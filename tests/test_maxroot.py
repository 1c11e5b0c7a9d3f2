import math
import random
from fractions import Fraction as F

import pytest

from rootline.maxroot import (
    CHEBYSHEV_LOOP,
    POWER_SUM,
    InconsistentProfileError,
    alpha_factor,
    approx_max_root,
    iteration_bound,
    root_sum_test,
    shrink_factor,
    uses_power_sum_branch,
)
from rootline.symfuncs import SymmetricProfile, profile_of_roots


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
    prof = profile_of_roots(8, [1] * 8, 2)
    res = approx_max_root(prof)
    assert res.branch == POWER_SUM
    assert res.estimate == 1
    assert res.factor * res.estimate >= 1


def test_power_sum_estimate_value():
    # k=2 <= ln 8: estimate is a certified lower root of p_2/n
    mu = [1, 2, 3, 4, 0, 0, 0, 0]
    prof = profile_of_roots(8, mu, 2)
    res = approx_max_root(prof)
    assert res.branch == POWER_SUM
    want = F(30, 8)
    assert res.estimate**2 <= want
    assert res.estimate**2 > want * (1 - F(1, 2**60))
    assert res.estimate <= 4 <= res.factor * res.estimate


def test_loop_branch_on_small_n():
    prof = profile_of_roots(4, [1, 2, 3, 4], 4)
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
        prof = profile_of_roots(n, mu, k)
        res = approx_max_root(prof)
        for c in (F(3), F(7, 5), F(1, 3)):
            scaled = profile_of_roots(n, [c * x for x in mu], k)
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

    monkeypatch.setattr(maxroot, "_cheb_sum_exceeds", no_loop)
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
    return profile_of_roots(n, mu, k), max(mu)


def _rank_bounded(rng):
    # k = n in {64, 256}, at most 6 nonzero roots: e_j = 0 past the rank
    n = rng.choice([64, 256])
    mu = [F(rng.randint(1, 40), rng.choice([1, 2, 3, 4])) for _ in range(rng.randint(1, 6))]
    mu += [F(0)] * (n - len(mu))
    rng.shuffle(mu)
    return profile_of_roots(n, mu), max(mu)


def test_loop_decision_agrees_with_fraction_sum():
    # the integer decision inside the loop, on coefficients built once
    # per call from the integer power sums, must agree with the plain
    # Fraction evaluation of the Chebyshev sum
    from rootline.maxroot import _cheb_sum_exceeds, _threshold_coeffs
    from rootline.symfuncs import integer_power_sums

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
            fast = _cheb_sum_exceeds(coeffs, t_hat)
            slow = root_sum_test(prof, e1 * t_hat) > n
            assert fast == slow
            seen.add(fast)
    assert seen == {False, True}
