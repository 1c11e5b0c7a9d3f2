import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootline.chebyshev import cheb_eval, cheb_poly
from rootline.maxroot import (
    CHEBYSHEV_LOOP,
    POWER_SUM,
    InconsistentProfileError,
    _decided_thresholds,
    _sign_at_ratio,
    _threshold_coeffs,
    alpha_factor,
    approx_max_root,
    iteration_bound,
    shrink_factor,
    uses_power_sum_branch,
)
from rootline.symfuncs import (
    SymmetricProfile,
    extended_power_sums,
    integer_power_sums,
    profile_of_roots,
)


def root_sum_test(prof: SymmetricProfile, t, cheb_index: int = None) -> F:
    """Reference: exact value of sum_i T_k(mu_i / t), with k = prof.k by default.

    <= n whenever t >= mu_max; > n forces t < mu_max (soundness of the
    loop's stopping rule).  A larger Chebyshev index may be requested
    when the profile is complete (k = n), in which case the higher power
    sums it needs are still determined exactly.
    """
    t = F(t)
    if t <= 0:
        raise ValueError("threshold t must be positive")
    if prof.k < 1:
        raise ValueError("profile carries no statistics")
    k = prof.k if cheb_index is None else cheb_index
    coeffs = cheb_poly(k).coeffs
    psums = extended_power_sums(prof, k)
    total = coeffs[0] * prof.n
    for j in range(1, len(coeffs)):
        total += coeffs[j] * psums[j - 1] / t**j
    return total


def test_branch_selection_uses_natural_log():
    # 2 > ln 4 but 2 < ln 8
    assert not uses_power_sum_branch(2, 4)
    assert uses_power_sum_branch(2, 8)
    assert uses_power_sum_branch(1, 3)
    assert not uses_power_sum_branch(1, 2)
    assert not uses_power_sum_branch(5, 64)  # ln 64 ~ 4.16


def test_alpha_factor_examples():
    assert alpha_factor(1, 7) == 7
    a = alpha_factor(2, 16)
    assert 4 < a < 4 + F(1, 2**30)  # n^(1/k) rounded up
    # limiting case: k = n makes the loop factor tiny for large n
    a_big = alpha_factor(4096, 4096)
    assert 1 < a_big < F(11, 10)
    with pytest.raises(ValueError):
        alpha_factor(0, 4)
    with pytest.raises(ValueError):
        alpha_factor(5, 4)


def test_all_ones_power_sum_branch():
    prof = profile_of_roots(8, [1] * 8).truncate(2)
    res = approx_max_root(prof)
    assert res.branch == POWER_SUM
    assert res.estimate == 1
    assert res.factor * res.estimate >= 1
    res1 = approx_max_root(prof.truncate(1))  # k = 1: the mean e_1/n, factor n
    assert (res1.estimate, res1.factor, res1.iterations, res1.branch) == (1, 8, 0, POWER_SUM)


def test_power_sum_estimate_value():
    # k=2 <= ln 8: estimate is a certified lower root of p_2/n
    mu = [1, 2, 3, 4, 0, 0, 0, 0]
    prof = profile_of_roots(8, mu).truncate(2)
    res = approx_max_root(prof)
    assert res.branch == POWER_SUM
    want = F(30, 8)
    assert res.estimate**2 <= want
    assert res.estimate**2 > want * (1 - F(1, 2**60))
    assert res.estimate <= 4 <= res.factor * res.estimate
    res1 = approx_max_root(prof.truncate(1))  # k = 1: the mean e_1/n, factor n
    assert (res1.estimate, res1.factor, res1.iterations, res1.branch) == (
        F(10, 8), 8, 0, POWER_SUM)


def test_loop_branch_on_small_n():
    prof = profile_of_roots(4, [1, 2, 3, 4]).truncate(4)
    res = approx_max_root(prof)
    assert res.branch == CHEBYSHEV_LOOP
    assert res.estimate <= 4 <= res.factor * res.estimate
    assert res.iterations <= iteration_bound(4, 4)
    # the single shrink-factor bracket claimed for this instance
    assert 4 <= shrink_factor(4, 4) * res.estimate


def test_root_sum_examples():
    assert root_sum_test(profile_of_roots(2, [1, 1]), 1) == 2
    assert root_sum_test(profile_of_roots(2, [1, 0]), 1) == 0
    assert root_sum_test(profile_of_roots(2, [2, 0]), 1, cheb_index=4) == 98


def test_root_sum_soundness_threshold():
    mu = [F(5), F(3), F(1)]
    prof = profile_of_roots(3, mu)
    assert root_sum_test(prof, 5) <= 3
    assert root_sum_test(prof, 6) <= 3
    assert root_sum_test(prof, F(1, 2)) > 3
    with pytest.raises(ValueError):
        root_sum_test(prof, 0)


def test_scale_equivariance_exact():
    rng = random.Random(77)
    for n, k in ((4, 4), (16, 6), (16, 2), (64, 5)):
        mu = [F(rng.randint(0, 64), 8) for _ in range(n)]
        if sum(mu) == 0:
            mu[0] = F(1)
        prof = profile_of_roots(n, mu).truncate(k)
        res = approx_max_root(prof)
        for c in (F(3), F(7, 5), F(1, 3)):
            scaled = profile_of_roots(n, [c * x for x in mu]).truncate(k)
            res_c = approx_max_root(scaled)
            assert res_c.estimate == c * res.estimate
            assert res_c.factor == res.factor
            assert res_c.iterations == res.iterations
            assert res_c.branch == res.branch


def test_zero_profile_and_n1():
    res = approx_max_root(SymmetricProfile(3, (F(0), F(0))))
    assert res.estimate == 0
    res1 = approx_max_root(SymmetricProfile(1, (F(5),)))
    assert res1.estimate == 5 and res1.factor == 1


def test_negative_e1_rejected():
    with pytest.raises(InconsistentProfileError):
        approx_max_root(SymmetricProfile(3, (F(-1),)))


def test_violated_nonnegativity_trips_iteration_cap():
    # e = (1, 1/2, 1/6) has every e_j >= 0 and power sums (1, 0, 0) >= 0,
    # so it passes the checks made before the loop, yet no real roots
    # summing to 1 have p_2 = 0.  With p_3 = 0 the Chebyshev sum is -3/t,
    # which never crosses n; the iteration cap must fire instead of
    # looping forever
    prof = SymmetricProfile(3, (F(1), F(1, 2), F(1, 6)))
    with pytest.raises(InconsistentProfileError, match="no threshold crossing"):
        approx_max_root(prof)


@pytest.mark.parametrize("e", [
    (F(10), F(100)),  # p_2 = 10^2 - 2 * 100 < 0
    (F(10), F(5), F(-1)),  # e_3 < 0
    (F(0), F(0), F(1)),  # e_1 = 0 forces every root, hence every e_j, to be 0
], ids=["negative-power-sum", "negative-e3", "zero-sum-nonzero-e3"])
def test_inconsistent_profile_rejected_before_the_loop(e, monkeypatch):
    import rootline.maxroot as maxroot

    def no_loop(*args):
        raise AssertionError("threshold loop entered")

    monkeypatch.setattr(maxroot, "_sign_at_ratio", no_loop)
    with pytest.raises(InconsistentProfileError):
        approx_max_root(SymmetricProfile(4, e))


def test_bracket_on_random_corpus_small():
    rng = random.Random(5150)
    for n in (4, 16, 64):
        ks = sorted({1, 2, math.ceil(math.log(n)), 2 * math.ceil(math.log(n)), n})
        for _ in range(5):
            mu = [F(rng.randint(0, 640), 64) for _ in range(n)]
            mu_max = max(mu)
            full = profile_of_roots(n, mu)
            for k in ks:
                res = approx_max_root(full.truncate(k))
                assert res.estimate <= mu_max <= res.factor * res.estimate
                if res.branch == CHEBYSHEV_LOOP:
                    assert res.iterations <= iteration_bound(k, n)


def test_iteration_bound_formula():
    # bound = ceil(1 + ln n / ln f) + 1 with certified logs
    for k, n in ((4, 4), (6, 16), (10, 64)):
        f = shrink_factor(k, n)
        approx = math.ceil(1 + math.log(n) / math.log(float(f))) + 1
        assert abs(iteration_bound(k, n) - approx) <= 1


def _dense_small(rng):
    n = rng.choice([3, 5, 8])
    k = rng.randint(2, n)
    mu = [F(rng.randint(0, 40), rng.choice([1, 2, 4])) for _ in range(n)]
    if sum(mu) == 0:
        mu[0] = F(1, 2)
    return profile_of_roots(n, mu).truncate(k), max(mu)


def _rank_bounded(rng):
    # k = n in {64, 256}, at most 6 nonzero roots: e_j = 0 past the rank
    n = rng.choice([64, 256])
    mu = [F(rng.randint(1, 40), rng.choice([1, 2, 3, 4])) for _ in range(rng.randint(1, 6))]
    mu += [F(0)] * (n - len(mu))
    rng.shuffle(mu)
    return profile_of_roots(n, mu), max(mu)


def _exceeds(coeffs, t):
    """The loop's decision at threshold t: C(t) > 0."""
    return _sign_at_ratio(coeffs, t.numerator, t.denominator) > 0


def test_loop_decision_agrees_with_fraction_sum():
    # the integer decision inside the loop, on coefficients built once
    # per call from the integer power sums, must agree with the plain
    # Fraction evaluation of the Chebyshev sum
    rng = random.Random(404)
    seen = set()
    for make in [_dense_small] * 20 + [_rank_bounded] * 10:
        prof, mu_max = make(rng)
        n, k = prof.n, prof.k
        e1 = prof.e[0]
        coeffs = _threshold_coeffs(n, e1, *integer_power_sums(prof.e, k))
        # thresholds t = e1 * t_hat spread around the largest root and far off
        near = mu_max / e1
        t_hats = [F(rng.randint(1, 64), rng.randint(1, 64)) for _ in range(2)]
        t_hats += [near * F(rng.randint(80, 120), 100) for _ in range(2)]
        for t_hat in t_hats:
            fast = _exceeds(coeffs, t_hat)
            slow = root_sum_test(prof, e1 * t_hat) > n
            assert fast == slow
            seen.add(fast)
    assert seen == {False, True}


@st.composite
def _real_roots(draw):
    """(n, roots, k): r <= n nonzero rational roots of either sign with a
    positive sum, padded with n - r zeros."""
    n = draw(st.integers(2, 24))
    r = draw(st.integers(1, min(n, 5)))
    nonzero = [F(draw(st.integers(1, 40)) * draw(st.sampled_from([-1, 1])),
                 draw(st.sampled_from([1, 2, 3, 4, 8])))
               for _ in range(r)]
    total = sum(nonzero)
    if total <= 0:  # raise the first root until e_1 > 0
        nonzero[0] = abs(nonzero[0]) - total + F(1, 8)
    return n, nonzero + [F(0)] * (n - r), draw(st.integers(1, n))


def _reference_exceeds(n, nu, k, t) -> bool:
    return sum(cheb_eval(k, x / t) for x in nu) > n


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_real_roots(), st.integers(1, 1 << 12), st.integers(0, 8),
       st.sampled_from([1, 1, 3, 5, 7, 11]))
def test_threshold_decision_matches_fraction_reference(case, num, shift, odd):
    # dyadic thresholds (odd = 1), as the loop makes them, and thresholds
    # whose denominator has an odd part, against sum_i T_k(nu_i / t) > n
    n, roots, k = case
    prof = profile_of_roots(n, roots).truncate(k)
    e1 = prof.e[0]
    coeffs = _threshold_coeffs(n, e1, *integer_power_sums(prof.e, k))
    t = F(num, odd << shift)
    assert _exceeds(coeffs, t) == _reference_exceeds(n, [x / e1 for x in roots], k, t)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_real_roots(), st.fractions(min_value=0, max_value=3, max_denominator=64))
def test_no_threshold_at_or_above_the_root_bound_crosses(case, above):
    # the loop skips every pass with t >= u: there the sum must be <= n
    n, roots, k = case
    prof = profile_of_roots(n, roots).truncate(k)
    e1 = prof.e[0]
    u = _decided_thresholds(n, e1, *integer_power_sums(prof.e, k))[1]
    if k < 2:
        assert u is None
        return
    nu = [x / e1 for x in roots]
    assert u is not None and u >= max(abs(x) for x in nu)
    assert not _reference_exceeds(n, nu, k, u * (1 + above))


@st.composite
def _crossing_cases(draw):
    """(n, roots, k): dense nonnegative roots, nonnegative roots of rank
    <= 6 at k = n, or real roots of either sign.  The roots take few
    values: the largest nonnegative one is often repeated, which puts the
    true crossing close to the certified one, and the root of largest
    magnitude is often negative, where an odd T_k falls below -1."""
    kind = draw(st.sampled_from(["dense", "rank", "signed"]))
    if kind == "signed":
        n = draw(st.integers(2, 12))
        roots = [F(draw(st.integers(-4, 4))) for _ in range(draw(st.integers(2, min(n, 5))))]
        if sum(roots) < 0:
            roots = [-x for x in roots]
        if sum(roots) == 0:
            roots[0] += 1
        return n, roots + [F(0)] * (n - len(roots)), draw(st.integers(1, n))
    if kind == "dense":
        n = draw(st.integers(2, 10))
        roots = [F(draw(st.integers(0, 4)), draw(st.sampled_from([1, 2])))
                 for _ in range(n)]
        k = draw(st.integers(1, n))
    else:
        n = draw(st.sampled_from([8, 16, 32, 64]))
        r = draw(st.integers(1, 6))
        top = r - draw(st.integers(0, r - 1))  # copies of the largest root
        roots = [F(3)] * top + [F(draw(st.integers(1, 3))) for _ in range(r - top)]
        roots += [F(0)] * (n - r)
        k = n
    if not any(roots):
        roots[0] = F(1, 2)
    return n, roots, k


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_crossing_cases(), st.integers(0, 72), st.integers(0, 3))
def test_every_threshold_below_the_certified_crossing_crosses(case, bits, below):
    # the loop returns at any t < c without Horner: there the sum must
    # exceed n.  c is certified for every even k and for no odd k; t runs
    # over the dyadics with ``bits`` fraction bits just below c, the
    # loop's thresholds being dyadic
    n, roots, k = case
    prof = profile_of_roots(n, roots).truncate(k)
    e1 = prof.e[0]
    cross = _decided_thresholds(n, e1, *integer_power_sums(prof.e, k))[0]
    if cross is None:
        assert k % 2
        return
    num = -((-cross.numerator << bits) // cross.denominator) - 1 - below  # < c 2^bits
    if num <= 0:
        return
    t = F(num, 1 << bits)
    assert _reference_exceeds(n, [x / e1 for x in roots], k, t)
