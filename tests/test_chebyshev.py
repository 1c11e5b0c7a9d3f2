import random
from fractions import Fraction as F

import pytest

from polyref import RefPolynomial as P
from rootline.chebyshev import cheb_eval, cheb_poly
from rootline.graphs import Signing, cycle_graph, signed_adjacency
from rootline.poly import char_poly


def test_first_polynomials():
    assert cheb_poly(0) == P.one()
    assert cheb_poly(1) == P.x()
    assert cheb_poly(2) == P([-1, 0, 2])
    assert cheb_poly(3) == P([0, -3, 0, 4])


def test_degree_and_leading():
    for k in range(1, 20):
        t = cheb_poly(k)
        assert t.degree == k
        assert t.leading == 2 ** (k - 1)


def test_eval_matches_coefficients():
    rng = random.Random(3)
    for k in (0, 1, 2, 5, 11, 32):
        poly = P.of(cheb_poly(k))
        for _ in range(5):
            x = F(rng.randint(-40, 40), rng.choice([1, 2, 8, 16]))
            assert cheb_eval(k, x) == poly(x)


def test_eval_examples():
    for k in range(10):
        assert cheb_eval(k, 1) == 1
    assert cheb_eval(4, 0) == 1
    assert cheb_eval(2, 0) == -1
    assert cheb_eval(2, F(3, 2)) == F(7, 2)
    assert cheb_eval(4, 2) == 97


def test_boundedness_on_unit_interval():
    rng = random.Random(9)
    for _ in range(200):
        x = F(rng.randint(-64, 64), 64)
        k = rng.randint(0, 64)
        assert -1 <= cheb_eval(k, x) <= 1


def test_monotone_growth_right_of_one():
    for k in (1, 3, 8, 20):
        values = [cheb_eval(k, 1 + F(i, 7)) for i in range(8)]
        assert all(a < b for a, b in zip(values, values[1:]) if k >= 1)


def test_composition_law():
    for a in range(1, 9):
        for b in range(1, 9):
            if a * b > 24:
                continue
            assert P.of(cheb_poly(a)).compose(cheb_poly(b)) == cheb_poly(a * b)


@pytest.mark.parametrize("k", range(1, 17))
def test_double_angle_identity(k):
    two_tk2 = P.of(cheb_poly(k)) * cheb_poly(k) * 2
    assert two_tk2 - P.one() == cheb_poly(2 * k)


def test_cycle_determinant_identity():
    # det(2xI - A_n) for the n-cycle equals 2 T_n(x) - 2 exactly
    # (the classical identity as printed omits the additive constant)
    for n in range(3, 9):
        g = cycle_graph(n)
        A = signed_adjacency(g, Signing.all_plus(g))
        chi = char_poly(A)  # det(xI - A)
        # det(2xI - A) = 2^n chi(. evaluated at 2x .): substitute x -> 2x
        det2x = P.of(chi).compose(P([0, 2]))
        want = P.of(cheb_poly(n)) * 2 - P([2])
        assert det2x == want
