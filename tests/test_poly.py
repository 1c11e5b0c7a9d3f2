import json
import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from polyref import RefPolynomial as P
from rootline.interlacing import _rank_one_char_poly
from rootline.poly import char_poly


def test_mul_difference_of_squares():
    assert P([1, 1]) * P([-1, 1]) == P([-1, 0, 1])


def test_mul_identity():
    p = P([3, -2, F(1, 7)])
    assert p * P.one() == p


def test_mul_t3_squared():
    t3 = P([0, -3, 0, 4])
    assert t3 * t3 == P([0, 0, 9, 0, -24, 0, 16])


def test_add_and_degree():
    a = P([1, 2, 3])
    b = P([0, 0, -3])
    assert (a + b).degree == 1
    assert (a + -a).is_zero


def test_compose_square_of_linear():
    assert P([0, 0, 1]).compose(P([1, 1])) == \
        P([1, 2, 1])


def test_compose_identity_both_ways():
    q = P([-2, 0, 5, 1])
    x = P.x()
    assert x.compose(q) == q
    assert q.compose(x) == q


def test_compose_cheb_example():
    # (x^2 - 2) o (2x^2 - 1) = 4x^4 - 4x^2 - 1
    outer = P([-2, 0, 1])
    inner = P([-1, 0, 2])
    assert outer.compose(inner) == P([-1, 0, -4, 0, 4])


def test_shift_scale_single_root():
    p = P([-1, 1])  # x - 1
    assert p.shift_scale(2, 3) == P([-5, 1])


def test_shift_scale_identity():
    p = P([-1, 0, 1])
    assert p.shift_scale(1, 0) == p


def test_shift_scale_roots_12_to_23():
    p = P.from_roots([1, 2])
    assert p.shift_scale(1, 1) == P.from_roots([2, 3])


def test_shift_scale_rejects_zero_scale():
    with pytest.raises(ValueError):
        P.x().shift_scale(0, 1)


def test_shift_scale_preserves_leading_coefficient():
    p = P([1, 4, -3])
    q = p.shift_scale(F(2, 3), F(-1, 5))
    assert q.leading == p.leading


def test_shift_scale_maps_root_multiset():
    from rootline.isolation import isolate_real_roots

    roots = [F(-1), F(1, 2), F(1, 2), F(3)]
    p = P.from_roots(roots)
    a, b = F(-2, 3), F(5, 7)
    q = p.shift_scale(a, b)
    mapped = sorted(a * r + b for r in roots)
    found = isolate_real_roots(q, F(1, 2**40))
    expanded = []
    for r in found:
        expanded.extend([r] * r.multiplicity)
    assert len(expanded) == len(mapped)
    for want, got in zip(mapped, expanded):
        assert got.lo <= want <= got.hi


def test_shift_scale_without_shift_matches_composition():
    # b = 0 scales coefficient-wise; the general path composes with x/a
    rng = random.Random(12)
    for _ in range(40):
        p = P([F(rng.randint(-50, 50), rng.randint(1, 9))
                           for _ in range(rng.randint(1, 12))] + [F(rng.randint(1, 5))])
        a = F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
        composed = p.compose(P([0, 1 / a])).scale(a**p.degree)
        assert p.shift_scale(a, 0) == composed
        assert p.shift_scale(a, 0).coeffs == composed.coeffs
    assert P([7]).shift_scale(F(3, 2), 0) == P([7])


def test_char_poly_zero_matrix():
    assert char_poly([[0, 0], [0, 0]]) == P([0, 0, 1])


def test_char_poly_swap_matrix():
    assert char_poly([[0, 1], [1, 0]]) == P([-1, 0, 1])


def test_char_poly_triangle():
    assert char_poly([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == P([-2, -3, 0, 1])


def test_char_poly_needs_a_square_matrix():
    assert char_poly([]) == P.one()
    with pytest.raises(ValueError):
        char_poly([[1, 2]])


def _char_poly_by_minors(rows):
    """Brute-force det(xI - A) by Leibniz expansion over Fractions; oracle
    for n <= 5."""
    n = len(rows)
    x_minus_a = [[(P([-rows[i][j], 1]) if i == j else P([-rows[i][j]]))
                  for j in range(n)] for i in range(n)]
    total = P.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = P.one()
        for i in range(n):
            term = term * x_minus_a[i][perm[i]]
        total = total + term.scale(sign)
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_char_poly_matches_minor_expansion(n):
    rng = random.Random(100 + n)
    for _ in range(4):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert char_poly(rows) == _char_poly_by_minors(rows)


def _fraction_gram(vectors, d):
    """sum v v^T over Fractions, each v zero-padded to length d."""
    rows = [[F(0)] * d for _ in range(d)]
    for v in vectors:
        for a, va in enumerate(v):
            for b, vb in enumerate(v):
                rows[a][b] += F(va) * F(vb)
    return rows


def test_rank_one_char_poly_matches_fraction_minors():
    # the integer Gram sum over L^2 against Leibniz on the rational matrix:
    # unrelated denominators, vectors shorter than d, no vectors at all
    cases = [
        ([], 3),
        ([(F(1, 3), F(2, 7))], 2),
        ([(F(1, 3), F(2, 7)), (F(5, 4),), (F(-3, 11), F(0), F(9, 2))], 4),
        ([(F(2), F(-1))], 3),
    ]
    rng = random.Random(29)
    dens = (1, 2, 3, 5, 7, 8, 9, 13)
    for _ in range(40):
        d = rng.randint(1, 5)
        cases.append(([tuple(F(rng.randint(-9, 9), rng.choice(dens))
                             for _ in range(rng.randint(0, d)))
                       for _ in range(rng.randint(0, 4))], d))
    for vectors, d in cases:
        coeffs, scale = _rank_one_char_poly(vectors, d)
        assert all(type(c) is int for c in coeffs) and scale > 0
        got = P([F(c, scale) for c in coeffs])
        assert got == _char_poly_by_minors(_fraction_gram(vectors, d)), (vectors, d)
        assert got.degree == d and got.is_monic()
    assert _rank_one_char_poly([], 3) == ((0, 0, 0, 1), 1)


def test_poly_json_round_trip():
    p = P([F(-1, 3), 0, F(7, 2)])
    assert P.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


def test_truncate_top():
    chi = P.from_roots([1, 2, 3])  # x^3 - 6x^2 + 11x - 6
    assert chi.truncate_top(2) == (F(-6), F(11))
