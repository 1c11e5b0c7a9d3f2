import math
import random
from copy import copy
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyref import RefPolynomial as P
from rootline.chebyshev import cheb_poly
from rootline.interlacing import KSInstance, ks_leaf_poly
from rootline.isolation import (
    RootInterval,
    _deriv,
    _divide_exact,
    _int_poly,
    _open_roots,
    _primitive,
    _sign_at_ratio,
    _separate,
    _variations01,
    compare_roots,
    int_poly_gcd,
    isolate_real_roots,
    max_root,
    max_root_geq,
    max_root_leq,
    root_bound_pow2,
    separated_roots,
    squarefree_decomposition,
)
from rootline.lowerbounds import noisy_pair, weak_pair
from rootline.selftest import two_block_ks_instance


def sign_at(poly, x):
    return _sign_at_ratio(poly, x.numerator, x.denominator)


def cell(poly, lo, hi):
    """The RootInterval with the rational ends lo and hi, put over their
    common denominator."""
    lo, hi = F(lo), F(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    return RootInterval(poly, lo.numerator * (den // lo.denominator),
                        hi.numerator * (den // hi.denominator), den, 1)


def test_sqrt2_isolation_width():
    roots = isolate_real_roots(P([-2, 0, 1]), F(1, 1000))
    assert len(roots) == 2
    for r in roots:
        assert r.hi - r.lo <= F(1, 1000)
    # the enclosures contain +-sqrt(2): lo^2 and hi^2 straddle 2
    neg, pos = roots
    assert neg.lo**2 >= 2 >= neg.hi**2
    assert pos.lo**2 <= 2 <= pos.hi**2


def test_double_root_at_zero():
    roots = isolate_real_roots(P([0, 0, 1]))
    assert len(roots) == 1
    assert roots[0].exact and roots[0].lo == 0 and roots[0].multiplicity == 2


def test_t3_roots():
    roots = isolate_real_roots(P([0, -3, 0, 4]), F(1, 10**6))
    assert len(roots) == 3
    assert roots[1].exact and roots[1].lo == 0
    # +-sqrt(3)/2 ~ +-0.8660254
    assert abs(float(roots[0]) + 0.8660254) < 1e-6
    assert abs(float(roots[2]) - 0.8660254) < 1e-6


def test_multiplicities():
    p = P.from_roots([1]) ** 2 * P.from_roots([-3]) ** 5 * P.x()
    got = sorted((float(r), r.multiplicity) for r in isolate_real_roots(p))
    assert got == [(-3.0, 5), (0.0, 1), (1.0, 2)]


def test_rational_roots_enclosed():
    want = [F(-7, 5), F(1, 3), F(4)]
    p = P.from_roots(want)
    roots = isolate_real_roots(p, F(1, 2**40))
    assert len(roots) == 3
    for r, value in zip(roots, want):
        assert r.lo <= value <= r.hi
        assert r.hi - r.lo <= F(1, 2**40)


def test_integer_root_grid():
    w = P.from_roots(range(1, 13))
    roots = isolate_real_roots(w, F(1, 2**30))
    assert [float(r) for r in roots] == [float(i) for i in range(1, 13)]
    assert all(r.multiplicity == 1 for r in roots)


def test_count_equals_degree_iff_real_rooted():
    real = P.from_roots([0, 1, 1, 2])
    assert sum(r.multiplicity for r in isolate_real_roots(real)) == real.degree
    assert isolate_real_roots(P([1, 0, 1])) == []


def test_product_of_real_rooted_factors_counts():
    p = P([-2, 0, 1]) * P.from_roots([F(1, 2)]) ** 3
    roots = isolate_real_roots(p)
    assert sum(r.multiplicity for r in roots) == p.degree


def test_max_root_and_thresholds():
    w = P.from_roots(range(1, 13))
    assert float(max_root(w)) == 12.0
    assert max_root_leq(w, F(12))
    assert not max_root_leq(w, F(119, 10))
    assert max_root_geq(w, F(12))
    assert not max_root_geq(w, F(121, 10))


def _count_open_squarefree(q, lo, hi, den):
    return sum(1 for _ in _open_roots(q, lo, hi, den))


def test_count_distinct_in_interval():
    w = _int_poly(P.from_roots(range(1, 13)))
    assert _count_open_squarefree(w, 5, 14, 2) == 4  # (5/2, 7)
    assert _count_open_squarefree(w, 3, 7, 1) == 3  # open: 3 and 7 left out
    assert _count_open_squarefree(w, 6, 14, 2) == 3  # (3, 7) not in lowest terms
    assert _count_open_squarefree(w, -2, 75, 6) == 12  # (-1/3, 25/2)
    assert _count_open_squarefree(w, 7, 3, 1) == 0
    # T_64 has 64 simple roots in (-1, 1), 32 of them positive
    t64 = _int_poly(cheb_poly(64))
    assert _count_open_squarefree(t64, -1, 1, 1) == 64
    assert _count_open_squarefree(t64, 0, 1, 1) == 32


def test_compare_roots_equality_via_gcd():
    a = P([-2, 0, 1]) * P.from_roots([5])
    b = P([-2, 0, 1]) * P.from_roots([7])
    ra = [r for r in isolate_real_roots(a) if not r.exact and r.lo > 0][0]
    rb = [r for r in isolate_real_roots(b) if not r.exact and r.lo > 0 and r.hi < 2][0]
    assert compare_roots(ra, rb) == 0


def test_compare_roots_close_values():
    p = P([-2, 0, 1]) * P.from_roots([F(1415, 1000)])
    roots = isolate_real_roots(p, F(1, 10**9))
    vals = sorted(float(r) for r in roots)
    assert vals[1] < vals[2]
    assert compare_roots(roots[1], roots[2]) == -1


def test_squarefree_decomposition_structure():
    p = P.from_roots([F(1, 3)]) ** 2 * P([-2, 0, 1])
    decomp = squarefree_decomposition(p)
    assert sorted((len(f) - 1, m) for f, m in decomp) == [(1, 2), (2, 1)]


def _fraction_yun(p):
    """Yun's loop over Fraction on the whole polynomial, x^j included: the
    reference for the integer decomposition with the zero root split off."""

    def deriv(c):
        return [i * c[i] for i in range(1, len(c))]

    def sub(a, b):
        out = [F(0)] * max(len(a), len(b))
        for i, v in enumerate(a):
            out[i] += v
        for i, v in enumerate(b):
            out[i] -= v
        while out and out[-1] == 0:
            out.pop()
        return out

    def div(f, g):
        work, dg, out = list(f), len(g) - 1, []
        if len(work) < len(g):
            return []
        for shift in range(len(work) - 1 - dg, -1, -1):
            c = work[shift + dg] / g[-1]
            out.append(c)
            for i, gc in enumerate(g):
                work[shift + i] -= c * gc
        out.reverse()
        while out and out[-1] == 0:
            out.pop()
        return out

    def primitive(c):
        return _int_poly(P(c)) if c else ()

    def gcd(a, b):
        return [F(v) for v in int_poly_gcd(primitive(a), primitive(b))]

    if p.degree < 1:
        return []
    f = [F(c) for c in _int_poly(p)]
    fp = deriv(f)
    g = gcd(f, fp)
    if len(g) == 1:
        return [(primitive(f), 1)]
    c = div(f, g)
    d = sub(div(fp, g), deriv(c))
    out, i = [], 1
    while len(c) > 1:
        a = gcd(c, d)
        if len(a) > 1:
            out.append((primitive(a), i))
        c = div(c, a)
        d = sub(div(d, a), deriv(c))
        i += 1
    return out


def _random_factor(rng):
    # degree 1 or 2, nonzero constant term, non-integer leading coefficient
    coeffs = [F(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))]
    coeffs += [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(0, 1))]
    coeffs.append(F(rng.randint(1, 5), rng.randint(1, 5)))
    return P(coeffs)


@pytest.mark.parametrize("case", ["j-collides", "j-largest", "c-x^j", "j-zero", "j-random"])
def test_squarefree_decomposition_matches_fraction_yun(case):
    rng = random.Random(f"yun:{case}")
    for _ in range(25):
        mults = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        j = {"j-collides": rng.choice(mults), "j-largest": max(mults) + rng.randint(1, 5),
             "c-x^j": rng.randint(1, 9), "j-zero": 0, "j-random": rng.randint(0, 6)}[case]
        p = P([F(rng.randint(1, 9), rng.randint(2, 9))])
        if case != "c-x^j":
            for mult in mults:
                p = p * _random_factor(rng) ** mult
        p = p * P.x() ** j
        got = squarefree_decomposition(p)
        assert got == _fraction_yun(p)
        assert [m for _, m in got] == sorted(m for _, m in got)
        if j:
            assert sum(1 for f, m in got if f[0] == 0) == 1


def test_padded_leaf_max_root_matches_unpadded():
    rng = random.Random(17)
    for d in (2, 3):
        inst = two_block_ks_instance(rng, 8, d, 256)
        rank = KSInstance(2 * d, inst.supports)
        for bits in (0, 37, 200, 255):
            choices = tuple((bits >> i) & 1 for i in range(inst.m))
            padded, unpadded = ks_leaf_poly(inst, choices), ks_leaf_poly(rank, choices)
            assert padded[256 - 2 * d:] == unpadded
            a = max_root(padded, F(1, 2**20))
            b = max_root(unpadded, F(1, 2**20))
            assert (a.lo, a.hi) == (b.lo, b.hi)


def test_random_rational_root_recovery():
    rng = random.Random(5)
    for _ in range(10):
        roots = sorted(F(rng.randint(-20, 20), rng.choice([1, 2, 4]))
                       for _ in range(rng.randint(1, 5)))
        p = P.from_roots(roots)
        found = isolate_real_roots(p, F(1, 2**40))
        expanded = []
        for r in found:
            expanded.extend([r] * r.multiplicity)
        assert len(expanded) == len(roots)
        for want, got in zip(roots, expanded):
            assert got.lo <= want <= got.hi


def test_high_degree_chebyshev_pair_roots():
    p = P.of(cheb_poly(64)).compose(P([-1, 1])) + P.one()
    roots = isolate_real_roots(p, F(1, 2**40))
    assert sum(r.multiplicity for r in roots) == 64
    assert all(r.multiplicity == 2 for r in roots)
    assert abs(float(max_root(p)) - 1.9987954562) < 1e-9


def test_zero_polynomial_rejected():
    # max_root_geq used to answer True: the zero polynomial vanishes at a
    for zero in (P.zero(), (), (0, 0, 0)):
        for call in (isolate_real_roots, max_root, squarefree_decomposition,
                     lambda p: max_root_leq(p, F(1)), lambda p: max_root_geq(p, F(1))):
            with pytest.raises(ValueError):
                call(zero)


# ---------------------------------------------------------------------------
# the integer boundary: one primitive polynomial whatever the input form
# ---------------------------------------------------------------------------


@st.composite
def _two_forms(draw):
    """(ExactPolynomial, ascending integers) with the same roots: an
    integer polynomial with repeated factors allowed, given once over a
    random rational constant and once times a positive integer constant,
    both padded by x^j; the integers may carry zeros past the lead."""
    base = (draw(st.sampled_from([-3, -1, 1, 2])),)
    for _ in range(draw(st.integers(0, 3))):
        factor = tuple(draw(st.integers(-4, 4)) for _ in range(draw(st.integers(1, 2))))
        factor += (draw(st.sampled_from([-2, -1, 1, 3])),)
        base = _mul(base, *[factor] * draw(st.integers(1, 3)))
    j = draw(st.integers(0, 4))
    num = draw(st.integers(1, 9)) * draw(st.sampled_from([-1, 1]))
    den, scale = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    exact = P([F(0)] * j + [F(c * num, den) for c in base])
    ints = (0,) * j + tuple(c * scale for c in base) + (0,) * draw(st.integers(0, 2))
    return exact, ints


def _cells(roots):
    return [(r.poly, r.lo, r.hi, r.multiplicity) for r in roots]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_two_forms(), st.fractions(min_value=-6, max_value=6, max_denominator=8))
def test_integer_and_exact_forms_meet_at_one_boundary(forms, a):
    exact, ints = forms
    primitive = _int_poly(exact)
    assert _int_poly(ints) == primitive
    assert primitive[-1] > 0 and math.gcd(*primitive) == 1
    precision = F(1, 2**30)
    assert _cells(isolate_real_roots(exact, precision)) == _cells(
        isolate_real_roots(ints, precision))
    top, top_int = max_root(exact, precision), max_root(ints, precision)
    assert (top is None) == (top_int is None)
    thresholds = [a]
    if top is not None:
        assert _cells([top]) == _cells([top_int])
        thresholds += [top.lo, top.hi]
    for t in thresholds:
        assert max_root_leq(exact, t) == max_root_leq(ints, t)
        assert max_root_geq(exact, t) == max_root_geq(ints, t)


def test_root_interval_without_polynomial_raises():
    # a check that raises, not an assert, so it holds under python -O
    with pytest.raises(ValueError):
        cell(None, F(0), F(1))
    assert cell(None, F(1, 2), F(1, 2)).exact


def test_inverted_root_interval_raises():
    # an inverted enclosure used to be accepted with a negative width, and
    # compare_roots against its mirror image never returned
    with pytest.raises(ValueError):
        cell((-2, 0, 1), F(3, 2), F(1))
    with pytest.raises(ValueError):
        cell(None, F(1), F(0))
    with pytest.raises(ValueError):
        RootInterval((-1, 1), 0, 1, 0, 1)
    # an end that is a root certifies no root strictly inside: x - 1 on (0, 1)
    with pytest.raises(ValueError):
        cell((-1, 1), F(0), F(1))


# ---------------------------------------------------------------------------
# refine_below against step-by-step bisection
# ---------------------------------------------------------------------------


def _bisect(poly, lo, hi, width):
    """Reference: halve (lo, hi) until it is at most ``width`` wide, keeping
    the half whose ends differ in sign, or stop on a midpoint root."""
    sign_lo = sign_at(poly, lo)
    while lo != hi and hi - lo > width:
        mid = (lo + hi) / 2
        s = sign_at(poly, mid)
        if s == 0:
            lo = hi = mid
        elif s == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _assert_refines_like_bisection(poly, lo, hi, width):
    got = cell(poly, lo, hi).refine_below(width)
    want = _bisect(poly, lo, hi, width)
    assert (got.lo, got.hi) == want
    assert got.exact == (want[0] == want[1])
    assert type(got.lo) is F and type(got.hi) is F
    return got


def _random_squarefree_intervals(rng, count):
    out = []
    while len(out) < count:
        p = P([F(rng.randint(-30, 30)) for _ in range(rng.randint(3, 9))])
        if p.is_zero or p.degree < 1:
            continue
        out += [(r.poly, r.lo, r.hi) for r in separated_roots(p) if not r.exact]
    return out[:count]


def test_refine_below_matches_bisection_on_seeded_polynomials():
    rng = random.Random("refine-grid")
    widths = [F(1, 2**j) for j in range(1, 61)] + [F(3, 10**7), F(5, 3), F(1, 999)]
    for poly, lo, hi in _random_squarefree_intervals(rng, 12):
        for width in widths:
            _assert_refines_like_bisection(poly, lo, hi, width)


def test_refine_below_is_incremental():
    # refining to w1 and then to w2 < w1 lands where refining to w2 does
    rng = random.Random("refine-incremental")
    for poly, lo, hi in _random_squarefree_intervals(rng, 5):
        r = cell(poly, lo, hi)
        for j in (3, 17, 40, 41, 60):
            r.refine_below(F(1, 2**j))
            assert (r.lo, r.hi) == _bisect(poly, lo, hi, F(1, 2**j))


@pytest.mark.parametrize("lo, hi", [(F(0), F(1)), (F(-3), F(5)), (F(5, 4), F(11, 8))])
def test_refine_below_on_dyadic_grid_roots(lo, hi):
    # a root at a level-j grid point of (lo, hi), for j below, at and above
    # the level s that the width asks for: exact iff j <= s
    w = hi - lo
    for s in (1, 4, 9):
        for j in (s - 1, s, s + 1):
            if j < 1:
                continue
            root = lo + w * F(2 * (j * 7 % 2**(j - 1)) + 1, 2**j)  # odd numerator: level exactly j
            n, d = root.numerator, root.denominator
            poly = (-n, d, -n, d)  # (d x - n)(x^2 + 1)
            got = _assert_refines_like_bisection(poly, lo, hi, w / 2**s)
            assert got.exact == (j <= s)
            assert got.lo <= root <= got.hi


def test_refine_below_non_dyadic_endpoints():
    lo, hi = F(1, 3), F(5, 7)
    for width in (F(1, 2**10), F(1, 2**48), F(2, 21), F(3, 10**7)):
        got = _assert_refines_like_bisection((-1, 0, 2), lo, hi, width)  # 2x^2 - 1
        assert got.lo ** 2 * 2 < 1 < got.hi ** 2 * 2
    # the first midpoint 1/3 + 4/21 = 11/21 is the root of 21x - 11
    got = _assert_refines_like_bisection((-11, 21), lo, hi, F(1, 2**20))
    assert got.exact and got.lo == F(11, 21)


@st.composite
def _level_switch_cases(draw):
    """(poly, lo, hi, widths): one real root in (lo, hi), with ends over
    any denominator, and widths at, just below and just above a level
    boundary (hi - lo) / 2^s, where refine_below's level choice switches."""
    if draw(st.booleans()):  # a rational root, possibly on the grid: (b x - a)(x^2 + 1)
        root = draw(st.fractions(min_value=-4, max_value=4, max_denominator=64))
        poly = (-root.numerator, root.denominator, -root.numerator, root.denominator)
    else:  # an irrational one, sqrt(D), by an interval about isqrt(D)
        D = draw(st.sampled_from([2, 3, 5, 7, 10, 11]))
        poly, root = (-D, 0, 1), F(math.isqrt(D))
    below = draw(st.fractions(min_value=F(1, 40), max_value=1, max_denominator=40))
    above = draw(st.fractions(min_value=F(1, 40), max_value=1, max_denominator=40))
    lo, hi = root - below, root + above
    assume(sign_at(poly, lo) * sign_at(poly, hi) < 0)
    widths = []
    for _ in range(draw(st.integers(1, 3))):
        edge = (hi - lo) / 2 ** draw(st.integers(0, 45))
        nudge = draw(st.sampled_from([F(0), F(0), F(1, 2**80), F(-1, 2**80), F(1, 3)]))
        widths.append(edge * (1 + nudge))
    return poly, lo, hi, sorted(widths, reverse=True)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_level_switch_cases())
def test_refine_below_level_choice_matches_bisection(case):
    poly, lo, hi, widths = case
    for width in widths:
        _assert_refines_like_bisection(poly, lo, hi, width)
    r = cell(poly, lo, hi)
    for width in widths:  # narrowing one enclosure step by step lands alike
        r.refine_below(width)
        assert (r.lo, r.hi) == _bisect(poly, lo, hi, width)


def test_refine_below_leaves_wide_enough_and_exact_intervals():
    r = cell((-2, 0, 1), F(1), F(3, 2))
    for width in (F(1, 2), F(1), F(7)):
        r.refine_below(width)
        assert (r.lo, r.hi) == (F(1), F(3, 2))
    exact = cell((-1, 2), F(1, 2), F(1, 2))
    exact.refine_below(F(1, 2**60))
    assert exact.exact and exact.lo == F(1, 2)
    with pytest.raises(ValueError):
        r.refine_below(F(0))


def _top_matches(p, precision=F(1, 2**48)):
    top = max_root(p, precision)
    roots = isolate_real_roots(p, precision)
    if not roots:
        assert top is None
        return
    last = roots[-1]
    assert (top.lo, top.hi, top.multiplicity) == (last.lo, last.hi, last.multiplicity)


def test_max_root_is_last_isolated_root():
    rng = random.Random(23)
    for d in (2, 3):
        inst = two_block_ks_instance(rng, 8, d, 256)
        for bits in (0, 91, 255):
            _top_matches(ks_leaf_poly(inst, tuple((bits >> i) & 1 for i in range(inst.m))),
                         F(1, 2**40))
    for pair in (weak_pair(9), weak_pair(17), noisy_pair(3, 7), noisy_pair(5, 13)):
        _top_matches(pair.p)
        _top_matches(pair.q)
    _top_matches(P.from_roots([1, 1, 2, 2, 2, F(1, 3)]))
    _top_matches(P.from_roots([F(-1, 2)] * 3) * P([-2, 0, 1]) ** 2)
    _top_matches(P([0, 0, 0, F(3, 2)]))  # c x^j
    _top_matches(P([F(-7)]) * P.x() ** 5)
    _top_matches(P([1, 0, 1]))  # x^2 + 1: no real root
    assert max_root(P([1, 0, 1])) is None


# ---------------------------------------------------------------------------
# the top-down max_root against full isolation, and scaled enclosures
# ---------------------------------------------------------------------------

_WIDTH = F(1, 2**20)
_UNREFINED = F(2**256)  # wider than any enclosure drawn below: no refinement


@st.composite
def _top_down_cases(draw):
    """Ascending integers: a product of factors with multiplicities, times
    x^j.  The factors carry dyadic roots the walk meets at midpoints,
    other rational and irrational roots, dense small polynomials, and
    pairs of roots closer than _WIDTH, rational or irrational."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["dyadic", "rational", "quadratic", "close", "dense"]))
        if kind == "dyadic":  # the root n/2^j
            factor = (draw(st.integers(-40, 40)), -(1 << draw(st.integers(0, 4))))
        elif kind == "rational":
            factor = (draw(st.integers(-20, 20)), -draw(st.sampled_from([3, 5, 12])))
        elif kind == "quadratic":  # the roots +-sqrt(a/b)
            factor = (-draw(st.integers(1, 30)), 0, draw(st.integers(1, 4)))
        elif kind == "close":
            n, e = draw(st.integers(-12, 12)), draw(st.integers(21, 40))
            if draw(st.booleans()):  # n/3 and n/3 + 2^-e/3
                factor = _mul((-n, 3), (-((n << e) + 1), 3 << e))
            else:  # n/4 +- sqrt(2) 2^-e: 2^(2e-4) (4x - n)^2 - 2
                square = [c << (2 * e - 4) for c in _mul((-n, 4), (-n, 4))]
                factor = (square[0] - 2, *square[1:])
        else:
            factor = tuple(draw(st.integers(-6, 6)) for _ in range(draw(st.integers(1, 4))))
            factor += (draw(st.sampled_from([-2, -1, 1, 3])),)
        factors += [factor] * draw(st.integers(1, 3 if len(factor) <= 3 else 1))
    return (0,) * draw(st.integers(0, 3)) + _mul(*factors)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_top_down_cases())
def test_top_down_max_root_matches_full_isolation(p):
    full = isolate_real_roots(p, _WIDTH)
    top = max_root(p, _WIDTH)
    if not full:
        assert top is None
        return
    last = full[-1]
    assert top.multiplicity == last.multiplicity
    assert top.hi - top.lo <= _WIDTH
    assert compare_roots(copy(top), copy(last)) == 0
    # the cells agree unless a search left the top enclosure narrow already
    unrefined = (max_root(p, _UNREFINED), isolate_real_roots(p, _UNREFINED)[-1])
    if all(r.hi - r.lo > _WIDTH for r in unrefined):
        assert (top.lo, top.hi) == (last.lo, last.hi)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_top_down_cases(),
       st.fractions(min_value=-9, max_value=9, max_denominator=2**50).filter(bool))
def test_scaled_enclosure_is_a_root_of_the_scaled_copy(p, c):
    roots = isolate_real_roots(p, _WIDTH)
    assume(roots)
    copy_roots = isolate_real_roots(P([F(v) for v in p]).shift_scale(c, 0), _WIDTH)
    # c > 0 keeps the order of the roots; c < 0 reverses it
    ends = ((roots[-1], copy_roots[-1]), (roots[0], copy_roots[0]))
    for root, image in ends if c > 0 else ((roots[-1], copy_roots[0]), (roots[0], copy_roots[-1])):
        scaled = root.scaled(c)
        assert (scaled.lo, scaled.hi) == tuple(sorted((c * root.lo, c * root.hi)))
        assert scaled.exact == root.exact and scaled.multiplicity == root.multiplicity
        assert compare_roots(scaled, copy(image)) == 0


def test_scaled_enclosure_on_exact_and_zero_roots():
    top = max_root(weak_pair(2).p)  # lambda_max(p) = 1 exactly
    assert top.exact and top.lo == 1
    for c in (F(3, 7), F(-5, 2)):
        scaled = top.scaled(c)
        assert scaled.exact and scaled.lo == c
    zero = max_root(P([-2, 0, 1])).scaled(F(0))
    assert zero.exact and zero.lo == 0
    assert compare_roots(zero, max_root(P.from_roots([-1, 0]))) == 0


# ---------------------------------------------------------------------------
# compare_roots and _separate against Fraction-endpoint references
# ---------------------------------------------------------------------------


class _FractionEnclosure:
    """Reference enclosure: Fraction endpoints, halved one step at a time."""

    def __init__(self, poly, lo, hi):
        self.poly, self.lo, self.hi = poly, F(lo), F(hi)
        self.sign_lo = 0 if lo == hi else sign_at(poly, self.lo)

    @property
    def exact(self):
        return self.lo == self.hi

    def step(self):
        if self.exact:
            return
        mid = (self.lo + self.hi) / 2
        s = sign_at(self.poly, mid)
        if s == 0:
            self.lo = self.hi = mid
        elif s == self.sign_lo:
            self.lo = mid
        else:
            self.hi = mid


def _sturm_count(g, a, b):
    """Distinct roots of the integer polynomial g in (a, b], for g(a) != 0."""

    def rem(f, h):
        f = list(f)
        while len(f) >= len(h):
            c = f[-1] / h[-1]
            for i, v in enumerate(h):
                f[len(f) - len(h) + i] -= c * v
            f.pop()
        while f and f[-1] == 0:
            f.pop()
        return f

    seq = [[F(v) for v in g], [F(i * g[i]) for i in range(1, len(g))]]
    while len(seq[-1]) > 1:
        r = rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-v for v in r])

    def variations(x):
        signs = [s for s in (sign_at(tuple(f), x) for f in seq) if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(a) - variations(b)


def _compare_reference(r1, r2):
    """compare_roots on Fraction endpoints with the gcd test below 2^-256."""
    while True:
        if r1.hi < r2.lo:
            return -1
        if r2.hi < r1.lo:
            return 1
        if r1.exact and r2.exact:
            return (r1.lo > r2.lo) - (r1.lo < r2.lo)
        if r1.exact:
            if sign_at(r2.poly, r1.lo) == 0 and r2.lo < r1.lo < r2.hi:
                return 0
        elif r2.exact:
            if sign_at(r1.poly, r2.lo) == 0 and r1.lo < r2.lo < r1.hi:
                return 0
        else:
            lo, hi = max(r1.lo, r2.lo), min(r1.hi, r2.hi)
            if min(r1.hi - r1.lo, r2.hi - r2.lo) < F(1, 2**256):
                g = int_poly_gcd(r1.poly, r2.poly)
                if len(g) > 1 and (sign_at(g, lo) == 0 or sign_at(g, hi) == 0
                                   or _sturm_count(g, lo, hi) > 0):
                    return 0
        r1.step()
        r2.step()


def _separate_reference(roots):
    """_separate on Fraction endpoints: sort by (lo, hi), halve each
    neighbouring pair that is not provably ordered, until none is left."""

    def ordered(a, b):
        if a.hi < b.lo:
            return True
        if a.exact and b.exact:
            return a.lo < b.lo
        if a.exact or b.exact:
            return a.hi <= b.lo
        return False

    while True:
        roots.sort(key=lambda r: (r.lo, r.hi))
        clean = True
        for a, b in zip(roots, roots[1:]):
            if not ordered(a, b):
                a.step()
                b.step()
                clean = False
        if clean:
            return roots


def _assert_compare_like_reference(a, b):
    """a, b: (poly, lo, hi); checks both argument orders."""
    for (p1, lo1, hi1), (p2, lo2, hi2) in ((a, b), (b, a)):
        r1, r2 = cell(p1, lo1, hi1), cell(p2, lo2, hi2)
        f1, f2 = _FractionEnclosure(p1, lo1, hi1), _FractionEnclosure(p2, lo2, hi2)
        assert compare_roots(r1, r2) == _compare_reference(f1, f2)
        assert (r1.lo, r1.hi, r2.lo, r2.hi) == (f1.lo, f1.hi, f2.lo, f2.hi)
        assert type(r1.lo) is F and type(r2.hi) is F


def _assert_separate_like_reference(cells):
    got = _separate([cell(p, lo, hi) for p, lo, hi in cells])
    want = _separate_reference([_FractionEnclosure(p, lo, hi) for p, lo, hi in cells])
    assert [(r.poly, r.lo, r.hi) for r in got] == [(r.poly, r.lo, r.hi) for r in want]


def _mul(*polys):
    out = (1,)
    for q in polys:
        prod = [0] * (len(out) + len(q) - 1)
        for i, u in enumerate(out):
            for j, v in enumerate(q):
                prod[i + j] += u * v
        out = tuple(prod)
    return out


SQRT2 = (-2, 0, 1)


def test_compare_roots_matches_reference_on_seeded_cases():
    tie_a, tie_b = _mul(SQRT2, (5, 1)), _mul(SQRT2, (-1, 1))  # (x^2-2)(x+5), (x^2-2)(x-1)
    cases = [
        # a shared root sqrt(2) on different grids: the gcd branch decides 0
        ((tie_a, F(1), F(2)), (tie_b, F(5, 4), F(3, 2))),
        ((tie_a, F(1), F(2)), (tie_b, F(9, 7), F(11, 7))),
        ((tie_a, F(-2), F(-1)), (tie_b, F(-3), F(-5, 4))),
        # sqrt(2) against 1: x - 1 is exact, or open in (x^2-2)(x-1)
        ((tie_a, F(1), F(2)), ((-1, 1), F(1), F(1))),
        ((tie_a, F(1), F(2)), (tie_b, F(1, 2), F(5, 4))),
        # a root on the first and on a deeper midpoint
        ((_mul((-3, 2), (1, 0, 1)), F(1), F(2)), (SQRT2, F(1), F(2))),
        ((_mul((-3, 2), (1, 0, 1)), F(1), F(2)), ((-3, 2), F(3, 2), F(3, 2))),
        ((_mul((-11, 8), (1, 0, 1)), F(1), F(2)), ((-11, 8), F(1), F(3, 2))),
        ((_mul((-11, 21), (1, 0, 1)), F(1, 3), F(5, 7)), ((-11, 21), F(11, 21), F(11, 21))),
        # an exact root against an open interval around it and next to it
        (((-7, 5), F(7, 5), F(7, 5)), (_mul((-7, 5), (-3, 0, 1)), F(1), F(3, 2))),
        (((-7, 5), F(7, 5), F(7, 5)), (SQRT2, F(1), F(3, 2))),
        (((-7, 5), F(7, 5), F(7, 5)), (SQRT2, F(4, 3), F(10, 7))),
        (((-7, 5), F(7, 5), F(7, 5)), (None, F(7, 5), F(7, 5))),
        ((None, F(1, 3), F(1, 3)), (None, F(2, 7), F(2, 7))),
        # distinct close roots on non-dyadic grids
        ((SQRT2, F(1, 3), F(5, 3)), ((-1415, 1000), F(7, 5), F(10, 7))),
        (((-3, 0, 1), F(1), F(2)), (_mul((-1, 1, 1), (-2, 0, 1)), F(1, 3), F(7, 5))),
    ]
    for a, b in cases:
        _assert_compare_like_reference(a, b)


def test_separate_matches_reference_on_seeded_cases():
    _assert_separate_like_reference([
        (SQRT2, F(-1, 3), F(2)), ((-3, 2), F(1), F(2)), ((-2, 1), F(2), F(2)),
        ((-7, 5), F(7, 5), F(7, 5)), ((2, 1), F(-2), F(-2)), ((-3, 0, 1), F(1, 3), F(7, 3)),
    ])
    _assert_separate_like_reference([
        (SQRT2, F(1), F(2)), (SQRT2, F(-2), F(-1)), ((-3, 0, 1), F(1), F(2)),
        ((-5, 0, 1), F(2), F(3)), ((-1, 0, 0, 1), F(1, 2), F(3, 2)), ((0, 1), F(0), F(0)),
    ])
    _assert_separate_like_reference([
        (_mul((-11, 8), (1, 0, 1)), F(1), F(2)), (SQRT2, F(1), F(2)), ((-3, 2), F(3, 2), F(3, 2)),
        ((-11, 21), F(1, 3), F(5, 7)), ((-1, 0, 2), F(1, 3), F(5, 7)),
    ])


# irreducible factors with their real roots, as floats to aim the endpoints
_FACTORS = {
    (-2, 0, 1): (-2 ** 0.5, 2 ** 0.5), (-3, 0, 1): (-3 ** 0.5, 3 ** 0.5),
    (-1, 0, 2): (-0.5 ** 0.5, 0.5 ** 0.5), (-1, -1, 1): ((1 - 5 ** 0.5) / 2, (1 + 5 ** 0.5) / 2),
    (-3, 2): (1.5,), (-1, 1): (1.0,), (1, 3): (-1 / 3,), (-11, 8): (11 / 8,), (-7, 5): (1.4,),
    (2, 1): (-2.0,),
}
_FACTOR_LIST = sorted(_FACTORS)


@st.composite
def _cell(draw, factor, root, others):
    """(poly, lo, hi) around ``root`` of ``factor``, the factor times
    ``others``; exact when the root is rational and the draw says so,
    else an open sign-change interval with endpoints of mixed grids."""
    poly = _mul(factor, *others)
    if len(factor) == 2 and draw(st.booleans()):
        x = F(-factor[0], factor[1])
        return (draw(st.sampled_from([factor, poly, None])), x, x)
    centre = F(root).limit_denominator(draw(st.sampled_from([1, 2, 3, 7, 64, 1000])))
    if len(factor) == 2:
        centre = F(-factor[0], factor[1])
    left = F(1, draw(st.integers(3, 40)))
    right = draw(st.sampled_from([left, 3 * left, F(1, draw(st.integers(3, 40)))]))
    lo, hi = centre - left, centre + right
    assume(sign_at(poly, lo) * sign_at(poly, hi) < 0)
    return (poly, lo, hi)


@st.composite
def _compare_args(draw):
    shared = draw(st.sampled_from(_FACTOR_LIST))
    root = draw(st.sampled_from(_FACTORS[shared]))
    cells = []
    for _ in range(2):
        own = draw(st.sampled_from(_FACTOR_LIST))
        others = [own] if own != shared and draw(st.booleans()) else []
        if draw(st.integers(0, 3)) == 0:  # aim this argument at another root
            shared_here = own
            root_here = draw(st.sampled_from(_FACTORS[own]))
            others = []
        else:
            shared_here, root_here = shared, root
        cells.append(draw(_cell(shared_here, root_here, others)))
    return cells


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_compare_args())
def test_compare_roots_matches_reference_property(args):
    _assert_compare_like_reference(*args)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from([(f, x) for f in _FACTOR_LIST for x in _FACTORS[f]]),
                min_size=2, max_size=6, unique=True), st.data())
def test_separate_matches_reference_property(roots, data):
    _assert_separate_like_reference([data.draw(_cell(f, x, [])) for f, x in roots])


# ---------------------------------------------------------------------------
# the root bound and the early-exit Descartes test
# ---------------------------------------------------------------------------


def _cauchy_h(c):
    """The least h with 2^h > 1 + ceil(max |c_j / c_d|): Cauchy's bound as
    a power of two."""
    lead = abs(c[-1])
    top = max(abs(v) for v in c[:-1])
    return (1 + (top + lead - 1) // lead).bit_length()


@st.composite
def _bound_cases(draw):
    """Integer polynomials: random rational roots, of any size and sign
    and possibly repeated, times a random square-free factor."""
    roots = [(draw(st.integers(-5000, 5000)), draw(st.integers(1, 40)))
             for _ in range(draw(st.integers(0, 5)))]
    factor = [draw(st.integers(-60, 60)) for _ in range(draw(st.integers(1, 4)))]
    factor.append(draw(st.integers(1, 9)) * draw(st.sampled_from([-1, 1])))
    assume(len(int_poly_gcd(factor, [i * factor[i] for i in range(1, len(factor))])) == 1)
    return _mul(factor, *[(-num, den) for num, den in roots])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_bound_cases())
def test_root_bound_holds_and_is_never_above_cauchy(c):
    h = root_bound_pow2(c)
    bound = 1 << h
    assert 1 <= h <= _cauchy_h(c)
    # every distinct real root inside (-2^h, 2^h): Sturm counts there and
    # inside a wider Cauchy interval agree, and neither end is a root
    wide = 1 + sum(F(abs(v), abs(c[-1])) for v in c)
    assert sign_at(c, F(bound)) != 0 and sign_at(c, F(-bound)) != 0
    assert _sturm_count(c, -bound, bound) == _sturm_count(c, -wide, wide)
    # and h is the least h >= 1 passing the summed test
    if h > 1:
        d = len(c) - 1
        assert sum(F(abs(c[d - i]), abs(c[-1])) / 2 ** ((h - 1) * i)
                   for i in range(1, d + 1)) >= 1


def test_root_bound_of_the_noisy_pair():
    q = _int_poly(noisy_pair(16, 32).q)
    assert (root_bound_pow2(q), _cauchy_h(q)) == (7, 38)
    assert root_bound_pow2((6, -5, 1)) == 3  # Fujiwara's per-term rule gives 4


def _shifted_reversal_variations(c):
    """Sign variations of (x+1)^d c(1/(x+1)), by binomial expansion."""
    rev = list(reversed(c))
    while rev and rev[-1] == 0:
        rev.pop()
    shifted = [sum(v * math.comb(i, j) for i, v in enumerate(rev) if i >= j)
               for j in range(len(rev))]
    signs = [v > 0 for v in shifted if v]
    return sum(u != v for u, v in zip(signs, signs[1:]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-50, 50)), max_size=14))
def test_early_exit_variations_match_the_full_count(c):
    assert _variations01(c) == min(2, _shifted_reversal_variations(c))


# ---------------------------------------------------------------------------
# the gcd fallback: one sign test against the Descartes walk it replaced
# ---------------------------------------------------------------------------


def _old_compare_roots(r1, r2):
    """compare_roots as it decided equality before the sign test: the gcd
    has a root in the closed overlap, found by a Descartes walk on its
    square-free part."""

    def has_root_in_closed(g, lo, hi, den):
        if _sign_at_ratio(g, lo, den) == 0 or _sign_at_ratio(g, hi, den) == 0:
            return True
        if len(g) > 2:
            g = _primitive(_divide_exact(g, int_poly_gcd(g, _deriv(g))))
        return any(_open_roots(g, lo, hi, den))

    while True:
        d1, d2 = r1.den, r2.den
        lo1, hi1, lo2, hi2 = r1.lo_num * d2, r1.hi_num * d2, r2.lo_num * d1, r2.hi_num * d1
        if hi1 < lo2:
            return -1
        if hi2 < lo1:
            return 1
        if lo1 == hi1:
            if lo2 == hi2 or _sign_at_ratio(r2.poly, r1.lo_num, d1) == 0:
                return 0
        elif lo2 == hi2:
            if _sign_at_ratio(r1.poly, r2.lo_num, d2) == 0:
                return 0
        elif (hi1 - lo1) << 256 < d1 * d2 or (hi2 - lo2) << 256 < d1 * d2:
            g = int_poly_gcd(r1.poly, r2.poly)
            if len(g) > 1 and has_root_in_closed(g, max(lo1, lo2), min(hi1, hi2), d1 * d2):
                return 0
        r1.refine_step()
        r2.refine_step()


_NON_SQUARES = [2, 3, 5, 6, 7, 8, 10, 11]


@st.composite
def _close_top_roots(draw):
    """Two polynomials whose top roots are equal or closer than 2^-256, and
    whether they are equal.  p1 is (x^2 - t) and p2 is the same factor or
    one with the root sqrt(t + 2^-gap); with ``shared`` both also carry
    x^2 - s, whose root sqrt(s) is the top one when s > t."""
    s, t = draw(st.lists(st.sampled_from(_NON_SQUARES), min_size=2, max_size=2, unique=True))
    shared, gap = draw(st.booleans()), draw(st.sampled_from([None, 300, 600]))
    b = (-t, 0, 1)
    c = b if gap is None else (-(t << gap) - 1, 0, 1 << gap)
    if shared:
        return _mul((-s, 0, 1), b), _mul((-s, 0, 1), c), gap is None or s > t
    return b, c, gap is None


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_close_top_roots())
def test_compare_roots_gcd_fallback_matches_the_descartes_decision(case):
    p1, p2, equal = case
    r1, r2 = (max_root(p, F(1, 2**257)) for p in (p1, p2))
    assert (r2.hi - r2.lo) * 2**256 < 1 and not r1.exact  # the fallback decides
    for a, b in ((r1, r2), (r2, r1)):
        got = compare_roots(copy(a), copy(b))
        assert got == _old_compare_roots(copy(a), copy(b))
        assert (got == 0) == equal


def test_compare_roots_takes_one_gcd_per_call(monkeypatch):
    # sqrt(3) against sqrt(3 + 2^-600), both beside the shared factor
    # x^2 - 2: below 2^-256 the enclosures refine about 340 more steps
    # before they separate, on one gcd of the two unchanging polynomials
    import rootline.isolation as isolation

    p1 = _mul((-2, 0, 1), (-3, 0, 1))
    p2 = _mul((-2, 0, 1), (-(3 << 600) - 1, 0, 1 << 600))
    r1, r2 = (max_root(p, F(1, 2**257)) for p in (p1, p2))
    calls = []

    def counted(a, b):
        calls.append(1)
        return int_poly_gcd(a, b)

    monkeypatch.setattr(isolation, "int_poly_gcd", counted)
    assert compare_roots(r1, r2) == -1
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# refine_below is refine_step repeated: one sign evaluation per halving
# ---------------------------------------------------------------------------


def test_refine_below_signs_once_per_halving(monkeypatch):
    import rootline.isolation as isolation

    calls = []

    def counted(poly, num, den):
        calls.append(1)
        return _sign_at_ratio(poly, num, den)

    monkeypatch.setattr(isolation, "_sign_at_ratio", counted)
    cases = _random_squarefree_intervals(random.Random("refine-signs"), 12)
    cases.append(((-11, 21), F(1, 3), F(5, 7)))  # the first midpoint is the root
    for poly, lo, hi in cases:
        for width in (F(1, 2), F(1, 2**7), F(3, 10**7), F(1, 2**60)):
            r = cell(poly, lo, hi)
            den, wide = r.den, r.hi_num - r.lo_num
            calls.clear()
            r.refine_below(width)
            halvings = r.den.bit_length() - den.bit_length()
            assert r.den == den << halvings and len(calls) == halvings
            need = next(s for s in range(200) if F(wide, den << s) <= width)
            assert halvings == need or r.exact and halvings < need
