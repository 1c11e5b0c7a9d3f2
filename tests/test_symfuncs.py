import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyref import RefPolynomial as P
from rootline.symfuncs import (
    PowerSumProfile,
    SymmetricProfile,
    extended_power_sums,
    integer_power_sums,
    power_sums_from_elementary,
    profile_from_coefficients,
    profile_from_polynomial,
    profile_of_roots,
    profiles_equal_up_to_k,
)


def elementary_from_power_sums(prof: PowerSumProfile) -> SymmetricProfile:
    """Reference inverse of :func:`power_sums_from_elementary`.

    e_i = (1/i) * sum_{j=1..i} (-1)^(j-1) e_{i-j} p_j, with e_0 = 1.
    """
    p = prof.p
    k = prof.k
    if k > prof.n:
        raise ValueError("more power sums than roots")
    e = [F(1)]
    for i in range(1, k + 1):
        acc = F(0)
        for j in range(1, i + 1):
            term = e[i - j] * p[j - 1]
            acc += term if j % 2 == 1 else -term
        e.append(acc / i)
    return SymmetricProfile(prof.n, tuple(e[1:]))


def test_single_statistic():
    prof = SymmetricProfile(5, (F(7),))
    assert power_sums_from_elementary(prof).p == (F(7),)


def test_roots_1_2():
    prof = profile_of_roots(2, [1, 2])
    assert prof.e == (F(3), F(2))
    ps = power_sums_from_elementary(prof)
    assert ps.p == (F(3), F(5))
    assert elementary_from_power_sums(ps).e == prof.e


def test_all_zero_roots():
    prof = profile_of_roots(4, [0, 0, 0, 0])
    assert power_sums_from_elementary(prof).p == (F(0),) * 4


def test_inverse_direction_examples():
    assert elementary_from_power_sums(PowerSumProfile(2, (F(3), F(5)))).e == (F(3), F(2))
    # roots +-1: p = (0, 2), e = (0, -1)
    assert elementary_from_power_sums(PowerSumProfile(2, (F(0), F(2)))).e == (F(0), F(-1))


@pytest.mark.parametrize("k", [1, 3, 6, 12])
def test_round_trip_random_profiles(k):
    rng = random.Random(k)
    for _ in range(10):
        e = tuple(F(rng.randint(-30, 30), rng.choice([1, 2, 3, 4])) for _ in range(k))
        prof = SymmetricProfile(max(k, 12), e)
        back = elementary_from_power_sums(power_sums_from_elementary(prof))
        assert back.e == prof.e


def test_power_sums_match_bruteforce():
    rng = random.Random(17)
    for n in range(2, 9):
        roots = [F(rng.randint(-8, 8), rng.choice([1, 2])) for _ in range(n)]
        prof = profile_of_roots(n, roots)
        got = power_sums_from_elementary(prof).p
        want = tuple(sum((r**j for r in roots), F(0)) for j in range(1, n + 1))
        assert got == want


def test_profile_from_coefficients():
    assert profile_from_coefficients(3, [-3, 2]).e == (F(3), F(2))
    assert profile_from_coefficients(4, []).k == 0
    chi = P.from_roots([1, 2, 3])
    assert profile_from_polynomial(chi, 2).e == (F(6), F(11))


def test_profiles_equal_examples():
    a = profile_of_roots(2, [1, 2], 1)
    b = profile_of_roots(2, [0, 3], 1)
    assert profiles_equal_up_to_k(a, b)
    a2 = profile_of_roots(2, [1, 2])
    b2 = profile_of_roots(2, [0, 3])
    assert not profiles_equal_up_to_k(a2, b2)
    with pytest.raises(ValueError):
        profiles_equal_up_to_k(a, a2)


def test_e_agreement_iff_p_agreement():
    rng = random.Random(23)
    for _ in range(20):
        n, k = 6, 4
        mu = [F(rng.randint(0, 12), 2) for _ in range(n)]
        nu = [F(rng.randint(0, 12), 2) for _ in range(n)]
        pm = profile_of_roots(n, mu, k)
        pn = profile_of_roots(n, nu, k)
        e_agree = pm.e == pn.e
        p_agree = power_sums_from_elementary(pm).p == power_sums_from_elementary(pn).p
        assert e_agree == p_agree


def test_linear_transform_preserves_agreement():
    # profiles of mu, nu agreeing up to k keep agreeing after mu -> a mu + b
    rng = random.Random(31)
    for _ in range(10):
        base = [F(rng.randint(0, 10)) for _ in range(4)]
        mu = base + [F(1), F(2)]
        nu = base + [F(0), F(3)]  # e_1 matches, e_2 differs
        k = 1
        a = F(rng.randint(1, 6), rng.choice([1, 2]))
        b = F(rng.randint(-4, 4))
        pm = P.from_roots(mu).shift_scale(a, b)
        pn = P.from_roots(nu).shift_scale(a, b)
        assert profiles_equal_up_to_k(profile_from_polynomial(pm, k),
                                      profile_from_polynomial(pn, k))


def test_linear_transform_preserves_deep_agreement():
    # a pair matched up to k = n-1 stays matched after the root map
    from rootline.lowerbounds import weak_pair

    rng = random.Random(37)
    pair = weak_pair(6)
    for _ in range(5):
        a = F(rng.randint(1, 8), rng.choice([1, 2, 4]))
        b = F(rng.randint(-6, 6), rng.choice([1, 2]))
        pm = P.of(pair.p).shift_scale(a, b)
        pn = P.of(pair.q).shift_scale(a, b)
        assert profiles_equal_up_to_k(profile_from_polynomial(pm, pair.k),
                                      profile_from_polynomial(pn, pair.k))


def test_extended_power_sums():
    prof = profile_of_roots(2, [2, 0])
    assert extended_power_sums(prof, 4) == (F(2), F(4), F(8), F(16))
    with pytest.raises(ValueError):
        extended_power_sums(profile_of_roots(3, [1, 2, 3], 2), 4)


def test_profile_json_round_trip():
    prof = SymmetricProfile(4, (F(10), F(35)))
    assert SymmetricProfile.from_json_dict(json.loads(json.dumps(prof.to_json_dict()))) == prof


def test_k_zero_profile_is_legal():
    prof = SymmetricProfile(3, ())
    assert prof.k == 0
    assert power_sums_from_elementary(prof).p == ()


def _fraction_power_sums(e, upto):
    """The Newton recurrence over Fraction, the reference for the integer kernel.

    p_i = sum_{j=1..min(i-1,k)} (-1)^(j-1) e_j p_{i-j} + (-1)^(i-1) i e_i,
    the last term only for i <= k.
    """
    k = len(e)
    p = []
    for i in range(1, upto + 1):
        acc = F(0)
        for j in range(1, min(i - 1, k) + 1):
            term = e[j - 1] * p[i - j - 1]
            acc += term if j % 2 == 1 else -term
        if i <= k:
            tail = i * e[i - 1]
            acc += tail if i % 2 == 1 else -tail
        p.append(acc)
    return tuple(p)


def _mixed_denominator_roots(rng):
    n = rng.randint(1, 10)
    roots = [F(rng.randint(-50, 50), rng.choice([1, 2, 3, 4, 6, 9, 25, 64, 1024]))
             for _ in range(n)]
    return profile_of_roots(n, roots, rng.randint(0, n))


def _unrelated_denominators(rng):
    k = rng.randint(1, 8)
    e = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(k)]
    return SymmetricProfile(k + rng.randint(0, 3), tuple(e))


def _zero_and_negative(rng):
    k = rng.randint(1, 8)
    e = [F(rng.choice([0, 0, -1, 1]) * rng.randint(1, 30), rng.choice([1, 2, 8, 27]))
         for _ in range(k)]
    return SymmetricProfile(k, tuple(e))


def _tiny(rng):
    k = rng.randint(0, 1)
    return SymmetricProfile(rng.randint(1, 5), tuple(
        F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)))


def _zero_tail(rng):
    # k up to 64 with e_j = 0 past r <= 6, zeros inside e_1..e_r too, and
    # all-zero profiles (r = 0)
    k = rng.randint(1, 64)
    r = rng.randint(0, min(6, k))
    head = [F(rng.choice([0, 1, -1]) * rng.randint(1, 30), rng.choice([1, 2, 3, 8]))
            for _ in range(r)]
    if r:
        head[-1] = F(rng.choice([1, -1]) * rng.randint(1, 30), rng.choice([1, 4, 9]))
    return SymmetricProfile(k + rng.randint(0, 3), tuple(head) + (F(0),) * (k - r))


def _padded_roots(rng):
    # a complete profile (k = n) of at most 6 nonzero roots among many zeros
    n = rng.randint(8, 64)
    roots = [F(rng.randint(1, 40), rng.choice([1, 2, 3, 4])) for _ in range(rng.randint(0, 6))]
    roots += [F(0)] * (n - len(roots))
    rng.shuffle(roots)
    return profile_of_roots(n, roots)


@pytest.mark.parametrize("make", [
    _mixed_denominator_roots, _unrelated_denominators, _zero_and_negative, _tiny,
    _zero_tail, _padded_roots,
], ids=["roots-mixed-denominators", "unrelated-denominators", "zero-and-negative", "k0-k1",
        "zero-tail", "padded-roots"])
def test_integer_kernel_matches_fraction_recurrence(make):
    rng = random.Random(make.__name__)
    for _ in range(40):
        prof = make(rng)
        want = _fraction_power_sums(prof.e, prof.k)
        assert power_sums_from_elementary(prof).p == want
        scale, ints = integer_power_sums(prof.e, prof.k)
        assert tuple(F(v, scale**i) for i, v in enumerate(ints, 1)) == want


def test_extended_power_sums_match_fraction_recurrence():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 7)
        e = tuple(F(rng.randint(-20, 20), rng.choice([1, 3, 4, 7])) for _ in range(n))
        prof = SymmetricProfile(n, e)
        upto = rng.randint(0, 3 * n)
        assert extended_power_sums(prof, upto) == _fraction_power_sums(e, upto)


def test_scale_is_least_and_divides_root_denominator():
    # for roots over the common denominator q the scale D divides q; it is
    # the least D with D^i e_i integral, found here by trying q's divisors
    rng = random.Random(43)
    for q in (1, 2, 6, 12, 36, 64, 360):
        for _ in range(15):
            n = rng.randint(1, 8)
            roots = [F(rng.randint(-3 * q, 3 * q), q) for _ in range(n)]
            prof = profile_of_roots(n, roots, rng.randint(0, n))
            scale, _ = integer_power_sums(prof.e, 0)
            assert q % scale == 0
            least = min(d for d in range(1, q + 1) if q % d == 0 and all(
                (d**i * v).denominator == 1 for i, v in enumerate(prof.e, 1)))
            assert scale == least
            if prof.k == n:  # a complete profile needs every root denominator
                assert scale == math.lcm(*(r.denominator for r in roots))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=12), min_size=1,
                max_size=8),
       st.integers(0, 6), st.integers(0, 20))
def test_order_r_cut_matches_full_recurrence(head, zeros, upto):
    # any e_j, then zeros up to e_k: the recurrence cut to order r (the
    # last nonzero e_r) must give the sums of the full order-k recurrence,
    # past k as well
    e = tuple(head) + (F(0),) * zeros
    assume(any(e))
    scale, ints = integer_power_sums(e, upto)
    assert tuple(F(v, scale**i) for i, v in enumerate(ints, 1)) == _fraction_power_sums(e, upto)
