import json
import re
from fractions import Fraction as F

import pytest

from polyref import RefPolynomial as P
from rootline.chebyshev import cheb_poly
from rootline.graphs import cycle_graph, heawood_graph
from rootline.isolation import max_root, max_root_leq
from rootline.lowerbounds import (
    DEGREE_BUDGET,
    LowerBoundPair,
    boosted_pair,
    certified_ratio_lower,
    girth_pair,
    matched_coefficient_count,
    noisy_pair,
    verify_pair,
    weak_pair,
)
from rootline.maxroot import approx_max_root
from rootline.ratutil import cos_pi_bounds, format_rational
from rootline.symfuncs import profiles_equal_up_to_k


def test_weak_pair_n3_exact_values():
    pair = weak_pair(3)
    # mu = (3/2, 0, 3/2), nu = (2, 1/2, 1/2)
    assert pair.p == P.from_roots([F(3, 2), 0, F(3, 2)])
    assert pair.q == P.from_roots([2, F(1, 2), F(1, 2)])
    assert pair.k == 2
    prof_p, prof_q = pair.truncated_profiles()
    assert prof_p.e == (F(3), F(9, 4)) == prof_q.e
    assert pair.ratio_lower == F(4, 3)


def test_weak_pair_n2():
    pair = weak_pair(2)
    assert pair.p == P.from_roots([1, 1])
    assert pair.q == P.from_roots([0, 2])
    assert pair.ratio_lower == 2


def test_weak_pair_constant_gap():
    for n in (2, 5, 9):
        pair = weak_pair(n)
        diff = P.of(pair.q) - pair.p
        assert diff.degree == 0
        assert diff.coeff(0) == -F(2, 2 ** (n - 1))


@pytest.mark.parametrize("n", [2, 7, 16, 33])
def test_weak_pair_profiles_and_ratio(n):
    pair = weak_pair(n)
    assert pair.k == n - 1
    assert profiles_equal_up_to_k(*pair.truncated_profiles())
    assert pair.ratio_lower >= 1 + F(1, n * n)


def test_girth_pair_c8():
    pair = girth_pair(cycle_graph(8), 2)
    assert pair.k == 3  # floor((8-1)/2)
    assert profiles_equal_up_to_k(*pair.truncated_profiles())
    assert verify_pair(pair).ok


def test_girth_pair_heawood():
    pair = girth_pair(heawood_graph(), 2)
    assert pair.k == 2
    assert pair.ratio_lower >= F(9, 8)
    assert pair.certificate["nu_max_at_least"] == "9/1"
    assert pair.certificate["mu_max_at_most"] == "8/1"


def test_girth_pair_rejects_bad_power():
    with pytest.raises(ValueError):
        girth_pair(cycle_graph(8), 0)
    with pytest.raises(ValueError):
        girth_pair(cycle_graph(8), 3)
    with pytest.raises(ValueError):
        girth_pair(cycle_graph(8), 8)  # no statistics left below the girth


def test_boosted_identity_t1():
    base = weak_pair(4)
    out = boosted_pair(base, 1)
    assert out.k == base.k
    assert out.p.degree == base.p.degree
    # roots shifted by +1
    assert out.q == P.of(base.q).shift_scale(F(1, 2), 1)


def test_boosted_weak3_t2():
    out = boosted_pair(weak_pair(3), 2)
    assert out.p.degree == 6
    assert out.k >= 2 * 2 // 3  # >= 2 (base k) / 3, verified directly
    assert out.k == 5  # weak pairs differ only in the constant term
    rep = verify_pair(out)
    assert rep.ok
    # all roots land in [0, 2]
    from rootline.isolation import isolate_real_roots

    for poly in (out.p, out.q):
        roots = isolate_real_roots(poly, F(1, 2**20))
        assert sum(r.multiplicity for r in roots) == 6
        assert roots[0].lo >= 0 and roots[-1].hi <= 2


def test_boosted_chebyshev_ratio_with_large_gap():
    # a base with ratio >= 2: weak(2) has mu=(1,1), nu=(0,2), ratio 2
    out = boosted_pair(weak_pair(2), 3)
    assert out.certificate["chebyshev_ratio"] is not None
    assert verify_pair(out).ok


def test_noisy_pair_k2():
    pair = noisy_pair(2, 8)
    assert pair.k == 3
    assert pair.certificate["coeff_ratio"] == "49/47"
    # differing coefficient is at x^(n-2k) = x^4
    nz = [j for j in range(9) if pair.p.coeff(j) != pair.q.coeff(j)]
    assert nz == [4]
    assert verify_pair(pair).ok


@pytest.mark.parametrize("k", range(2, 17))
def test_noisy_identity_all_k(k):
    flip = P([F(3, 2), -1])
    tk = P.of(cheb_poly(k)).compose(flip)
    assert tk * tk * 2 - P.of(cheb_poly(2 * k)).compose(flip) == P.one()


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12, 16])
def test_noisy_certified_ratio_safe_constant(k):
    # the construction's real gap: certified ratio >= 1 + 1/(3k^2);
    # this construction does not reach 1/(2k^2) (true gap ~ 0.37/k^2)
    pair = noisy_pair(k, 2 * k)
    assert pair.ratio_lower >= 1 + F(1, 3 * k * k)
    assert pair.ratio_lower <= 1 + F(1, 2 * k * k)


def _compose_weak(n):
    """The weak pair's polynomials built on Fractions, by composition."""
    shifted = P.of(cheb_poly(n)).compose(P([-1, 1]))
    return (shifted + P.one()).monic(), (shifted - P.one()).monic()


def _compose_noisy(k, n):
    """The noisy pair's polynomials built on Fractions, by composition."""
    flip = P([F(3, 2), -1])
    tk = P.of(cheb_poly(k)).compose(flip)
    r, s = tk * tk * 2, P.of(cheb_poly(2 * k)).compose(flip)
    pad = [F(0)] * (n - 2 * k)
    return P(pad + [c / r.leading for c in r.coeffs]), P(pad + [c / r.leading for c in s.coeffs])


def _compose_boosted(base, t):
    """The boosted pair built on Fractions: rescale so lambda_max(q) = 1,
    compose with T_t, make monic and shift the roots by +1."""
    lam = max_root(base.q, F(1, 2**20)).lo
    ps, qs = P.of(base.p).shift_scale(1 / lam, 0), P.of(base.q).shift_scale(1 / lam, 0)
    inner = cheb_poly(t)
    p = ps.compose(inner).monic().shift_scale(1, 1)
    q = qs.compose(inner).monic().shift_scale(1, 1)
    ratio = certified_ratio_lower(p, q)
    cert = {"kind": "boosted", "t": t, "base_provenance": base.provenance,
            "base_k": base.k, "scale": format_rational(1 / lam), "chebyshev_ratio": None}
    if max_root_leq(ps, F(1, 2)):
        formula = 2 / (1 + cos_pi_bounds(F(1, 3 * t))[1])
        cert["chebyshev_ratio"] = format_rational(formula)
        ratio = max(ratio, formula)
    return LowerBoundPair(p, q, matched_coefficient_count(p, q), ratio, "boosted", cert)


def test_integer_builders_match_composition():
    for n in range(2, 65):
        pair = weak_pair(n)
        assert (pair.p, pair.q) == _compose_weak(n), n
    for k in range(2, 17):
        for n in (2 * k, 2 * k + 3):
            pair = noisy_pair(k, n)
            assert (pair.p, pair.q) == _compose_noisy(k, n), (k, n)
    for b in range(2, 13):
        base = weak_pair(b)
        for t in range(1, 5):
            got, want = boosted_pair(base, t), _compose_boosted(base, t)
            assert (got.p, got.q, got.k) == (want.p, want.q, want.k), (b, t)
            assert got.ratio_lower == want.ratio_lower, (b, t)
            assert got.certificate == want.certificate, (b, t)


def _base(p_roots, q_roots):
    """A base pair as a JSON file gives it: nothing checked on the way in."""
    return LowerBoundPair(P.from_roots(p_roots), P.from_roots(q_roots), 0, F(1), "weak", {})


@pytest.mark.parametrize("base, t, message", [
    (weak_pair(3), 0, "need t >= 1"),
    (noisy_pair(2, 4), 2, "exact rational lambda_max(q)"),
    (_base([-3, -2], [-2, -1]), 2, "lambda_max(q) > 0"),
    (_base([-1, 0], [-1, 0]), 2, "lambda_max(q) > 0"),
    (_base([0, 3], [0, 2]), 2, "rescaled p has roots outside [0,1]"),
    (_base([-1, 1], [0, 2]), 2, "rescaled p has roots outside [0,1]"),
    (_base([0, 1], [-1, 2]), 2, "rescaled q has roots outside [0,1]"),
])
def test_boosted_pair_refusals(base, t, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        boosted_pair(base, t)


def test_generators_refuse_degrees_above_the_budget(monkeypatch):
    # each generator refuses before it builds anything: the integer
    # Chebyshev builder and the root engine must not be reached
    def unreachable(*args):
        raise AssertionError("built past the degree budget")

    monkeypatch.setattr("rootline.lowerbounds._cheb_affine", unreachable)
    monkeypatch.setattr("rootline.lowerbounds.max_root", unreachable)
    over = DEGREE_BUDGET + 1
    cases = [
        (weak_pair, (over,)),
        (noisy_pair, (2, over)),
        (boosted_pair, (_base([F(1, 2)], [1]), over)),
    ]
    for make, args in cases:
        with pytest.raises(ValueError, match=f"degree {over} is above the pair degree "
                                             f"budget {DEGREE_BUDGET}"):
            make(*args)


def test_noisy_pair_guards():
    with pytest.raises(ValueError):
        noisy_pair(1, 4)
    with pytest.raises(ValueError):
        noisy_pair(3, 5)


def test_noisy_pair_padded_verifies():
    pair = noisy_pair(3, 8)
    rep = verify_pair(pair)
    assert rep.ok
    assert pair.certificate["zero_padding"] == 2
    names = {c.name for c in rep.checks}
    assert "noisy_single_differing_coefficient" in names
    assert "noisy_coefficient_ratio_bound" in names


def test_verify_pair_detects_perturbation():
    pair = weak_pair(5)
    coeffs = list(pair.q.coeffs)
    coeffs[2] += F(1, 1000)
    bad = LowerBoundPair(pair.p, P(coeffs), pair.k, pair.ratio_lower, "weak", {})
    rep = verify_pair(bad)
    assert not rep.ok
    failed = {c.name for c in rep.checks if not c.passed}
    assert "coefficients_match_up_to_k" in failed
    detail = next(c.detail for c in rep.checks if c.name == "coefficients_match_up_to_k")
    assert "position 3" in detail  # x^(n-3) is the perturbed coefficient


def test_verify_pair_detects_wrong_ratio():
    pair = weak_pair(4)
    inflated = LowerBoundPair(pair.p, pair.q, pair.k, pair.ratio_lower * 2,
                              "weak", pair.certificate)
    rep = verify_pair(inflated)
    assert not rep.ok


def _ratio_check(pair):
    rep = verify_pair(pair)
    return next(c for c in rep.checks if c.name == "ratio_lower_certified")


def test_verify_pair_decides_ratio_zero():
    # ratio_lower = 0 claims only lambda_max(q) >= 0, decided through the
    # exact root 0
    pair = weak_pair(4)
    zero = LowerBoundPair(pair.p, pair.q, pair.k, F(0), "weak", pair.certificate)
    rep = verify_pair(zero)
    assert rep.ok
    assert _ratio_check(zero).detail.startswith("claimed 0, certified interval >= ")
    # top roots 1 of x^2 - 1 and 0 of x^2 + 2x: 0 >= 0 * 1 holds at equality
    at_zero = LowerBoundPair(P.from_roots([-1, 1]), P.from_roots([-2, 0]), 0, F(0), "weak", {})
    assert _ratio_check(at_zero).passed
    below = LowerBoundPair(P.from_roots([-1, 1]), P.from_roots([-3, -1]), 0, F(0), "weak", {})
    assert not _ratio_check(below).passed


def test_verify_pair_rejects_constant_pair():
    # two constants have no largest root to compare
    one = P([F(1)])
    rep = verify_pair(LowerBoundPair(one, one, 0, F(1), "weak", {}))
    assert not rep.ok
    assert [c.name for c in rep.checks] == ["monic_equal_degree"]


def test_verify_pair_negative_ratio_scales_the_top_root():
    # -2 >= -1 * 3 = -1 * lambda_max(p); the smallest root 1 of p must not
    # stand in for the largest, as it does in the top root of p scaled by -1
    p, q = P.from_roots([1, 3]), P.from_roots([-5, -2])
    assert _ratio_check(LowerBoundPair(p, q, 0, F(-1), "weak", {})).passed
    assert not _ratio_check(LowerBoundPair(p, q, 0, F(-1, 2), "weak", {})).passed


def test_verify_pair_ratio_at_an_irrational_tie():
    # sqrt(8) = 2 sqrt(2): equality is decided through the gcd of x^2 - 8
    # and the scaled factor of x^2 - 2
    p, q = P([-2, 0, 1]), P([-8, 0, 1])
    for ratio, certified in ((F(2), True), (2 + F(1, 2**60), False), (2 - F(1, 2**60), True)):
        assert _ratio_check(LowerBoundPair(p, q, 1, ratio, "weak", {})).passed == certified


def test_matched_count_and_ratio_helpers():
    a = P.from_roots([1, 2, 3])
    b = P.from_roots([1, 2, 4])
    assert matched_coefficient_count(a, a) == 3
    assert matched_coefficient_count(a, b) == 0  # e_1 differs already
    r = certified_ratio_lower(P.from_roots([1]), P.from_roots([3]))
    assert r == 3


def test_pair_json_round_trip():
    pair = noisy_pair(3, 7)
    back = LowerBoundPair.from_json_dict(json.loads(json.dumps(pair.to_json_dict())))
    assert back.p == pair.p and back.q == pair.q
    assert back.k == pair.k and back.ratio_lower == pair.ratio_lower
    assert back.provenance == "noisy"


def test_truncated_profiles_feed_approx_identically():
    pair = weak_pair(6)
    prof_p, prof_q = pair.truncated_profiles()
    assert approx_max_root(prof_p) == approx_max_root(prof_q)
