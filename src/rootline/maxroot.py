"""Largest-root approximation from the top k coefficients.

Given e_1..e_k of an unknown nonnegative root vector, return a certified
rational lower estimate of the maximum root together with the factor
alpha such that  estimate <= mu_max <= alpha * estimate.

Two branches:

* k <= ln n: the k-th power-sum estimate (p_k/n)^(1/k), factor n^(1/k);
* k >  ln n: a shrinking threshold t and the exact test
  sum_i T_k(mu_i / t) > n, evaluated from the profile alone via Newton's
  identities.  The threshold shrinks geometrically by
  1 + (20 ln n / k)^2 per iteration.

All arithmetic is exact.  The profile is first normalized by e_1 (i.e.
the roots are scaled so that their sum is 1); the algorithm is run on
the normalized profile and the estimate is scaled back.  Consequently
scaling the root vector by c > 0 scales the returned estimate by
exactly c, bit for bit, with identical iteration count and factor.

Irrational quantities never enter: ln n is replaced by a certified
dyadic upper bound, k-th roots are certified rational lower bounds with
relative error below 2^-64, and the loop threshold is floored to 64
significant dyadic bits each step.  The reported factor accounts for
every one of those roundings, so the bracket is a theorem about the
returned rationals, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from rootline.chebyshev import _cheb_coeffs
from rootline.ratutil import (
    dyadic_ceil,
    dyadic_floor,
    le_ln,
    ln_bounds,
    ln_upper_dyadic,
    nth_root_lower,
    nth_root_upper,
    to_fraction,
)
from rootline.symfuncs import (
    SymmetricProfile,
    extended_power_sums,
    integer_power_sums,
    power_sums_from_elementary,
)

POWER_SUM = "power-sum"
CHEBYSHEV_LOOP = "chebyshev-loop"

#: relative-error budget of the k-th root extraction (design constant)
_ROOT_BITS = 65
#: dyadic significand kept for the shrinking threshold
_T_BITS = 64
#: slack factor absorbing root/threshold roundings inside alpha
_GUARD = 1 + Fraction(1, 2**40)


class InconsistentProfileError(ValueError):
    """The profile cannot come from a nonnegative root vector.

    The nonnegativity precondition is not checkable from k < n
    statistics, so it is trusted; this error fires only on a consequence
    of its violation: some e_j < 0, some power sum p_j < 0, e_1 = 0 with
    some e_j != 0, or a threshold loop that never crosses.
    """


@dataclass(frozen=True)
class ApproxResult:
    estimate: Fraction
    factor: Fraction
    iterations: int
    branch: str

    def __post_init__(self):
        if self.estimate < 0:
            raise ValueError("estimate must be nonnegative")
        if self.factor < 1:
            raise ValueError("factor must be >= 1")


@lru_cache(maxsize=256)  # a constant of (k, n), asked for on every call
def uses_power_sum_branch(k: int, n: int) -> bool:
    """Branch test k <= ln n, decided exactly (equality cannot occur)."""
    return le_ln(Fraction(k), n)


@lru_cache(maxsize=256)  # a constant of (k, n), asked for on every call
def shrink_factor(k: int, n: int) -> Fraction:
    """The loop's threshold divisor 1 + (20 L / k)^2 with dyadic L >= ln n."""
    L = ln_upper_dyadic(n, bits=24)
    return 1 + (Fraction(20) * L / k) ** 2


@lru_cache(maxsize=256)  # a constant of (k, n), asked for on every call
def alpha_factor(k: int, n: int) -> Fraction:
    """Rational upper bound on the guaranteed approximation factor.

    k <= ln n: n^(1/k) rounded up (exactly n for k = 1).  Otherwise the
    square of the loop shrink factor: one power for the densest the
    geometric scan can straddle the largest root, one for the Chebyshev
    threshold claim, plus a 1 + 2^-40 guard for the dyadic roundings.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n == 1:
        return Fraction(1)
    if uses_power_sum_branch(k, n):
        if k == 1:
            return Fraction(n)
        return dyadic_ceil(nth_root_upper(Fraction(n), k, _ROOT_BITS) * _GUARD, 96)
    f = shrink_factor(k, n)
    return f * f * _GUARD


def _threshold_coeffs(n: int, e1: Fraction, scale: int, psums: Tuple[int, ...]) -> Tuple[int, ...]:
    """Integers c_0..c_k of the loop's threshold test, built once per call.

    The roots are normalized by e_1 > 0 (root sum 1).  The power sums
    come as :func:`~rootline.symfuncs.integer_power_sums` gives them,
    p_j = P_j / D^j, so the normalized sums are p_j / e_1^j = P_j / w^j
    with w = D e_1, an integer because D^1 p_1 = D e_1 is.  For
    1/t = u/v (v > 0),
    sum_i T_k(mu_i / t) - n = (a_0 - 1) n + sum_j a_j P_j w^-j (u/v)^j,
    and multiplying by w^k v^k > 0 gives sum_j c_j u^j v^(k-j) with
    c_0 = (a_0 - 1) n w^k and c_j = a_j P_j w^(k-j).  Any D that makes
    every P_j integral will do: another D' scales every c_j by the same
    (D'/D)^k > 0, which leaves each decision unchanged.
    """
    k = len(psums)
    w = scale * e1.numerator // e1.denominator
    a = _cheb_coeffs(k)
    wpow = [1] * (k + 1)
    for j in range(1, k + 1):
        wpow[j] = wpow[j - 1] * w
    return ((a[0] - 1) * n * wpow[k],) + tuple(
        a[j] * psums[j - 1] * wpow[k - j] for j in range(1, k + 1))


def _cheb_sum_exceeds(coeffs: Tuple[int, ...], t: Fraction) -> bool:
    """Exact decision  sum_i T_k(mu_i / t) > n  from :func:`_threshold_coeffs`.

    The sign of sum_j c_j u^j v^(k-j), 1/t = u/v, by Horner's rule in v.
    Writing u = 2^s o with o odd, u^j is a shift by s j times o^j; the
    loop's thresholds are dyadic, so o = 1 there and every step is a
    multiplication by the small v plus a shift.
    """
    u, v = t.denominator, t.numerator  # 1/t = u/v, v > 0
    shift = (u & -u).bit_length() - 1
    odd = u >> shift
    acc = 0
    opow = 1
    for j, c in enumerate(coeffs):
        acc *= v
        if c:
            acc += (c * opow) << (shift * j)
        opow *= odd
    return acc > 0


def root_sum_test(prof: SymmetricProfile, t, cheb_index: int = None) -> Fraction:
    """Exact value of sum_i T_k(mu_i / t), with k = prof.k by default.

    <= n whenever t >= mu_max; > n forces t < mu_max (soundness of the
    loop's stopping rule).  A larger Chebyshev index may be requested
    when the profile is complete (k = n), in which case the higher power
    sums it needs are still determined exactly.
    """
    t = to_fraction(t)
    if t <= 0:
        raise ValueError("threshold t must be positive")
    if prof.k < 1:
        raise ValueError("profile carries no statistics")
    k = prof.k if cheb_index is None else cheb_index
    coeffs = _cheb_coeffs(k)
    psums = extended_power_sums(prof, k)
    inv = 1 / t
    total = Fraction(coeffs[0] * prof.n)
    ipow = Fraction(1)
    for j in range(1, k + 1):
        ipow *= inv
        if coeffs[j]:
            total += coeffs[j] * psums[j - 1] * ipow
    return total


def iteration_bound(k: int, n: int) -> int:
    """Certified upper bound ceil(1 + ln n / ln f) + 1 on loop passes."""
    f = shrink_factor(k, n)
    ln_n_hi = ln_bounds(Fraction(n))[1]
    ln_f_lo = ln_bounds(f)[0]
    ratio = Fraction(1) + ln_n_hi / ln_f_lo
    return -((-ratio.numerator) // ratio.denominator) + 1


def approx_max_root(prof: SymmetricProfile) -> ApproxResult:
    """Estimate the largest root from the profile, with certified factor.

    Returns (estimate, factor, iterations, branch) with
    estimate <= mu_max <= factor * estimate for any nonnegative root
    vector matching the profile.
    """
    n, k = prof.n, prof.k
    if k < 1:
        raise ValueError("need at least e_1")
    e1 = prof.e[0]
    if any(v.numerator < 0 for v in prof.e):
        raise InconsistentProfileError("e_j < 0 is impossible for nonnegative roots")
    if n == 1:
        return ApproxResult(e1, Fraction(1), 0, POWER_SUM)
    if e1 == 0:
        # nonnegative roots summing to 0 are all zero
        if any(prof.e):
            raise InconsistentProfileError(
                "e_1 = 0 with some e_j != 0 is impossible for nonnegative roots")
        return ApproxResult(Fraction(0), alpha_factor(k, n), 0,
                            POWER_SUM if uses_power_sum_branch(k, n) else CHEBYSHEV_LOOP)

    power_sum = uses_power_sum_branch(k, n)
    if power_sum:
        psums = power_sums_from_elementary(prof).p  # p_j
    else:
        scale, psums = integer_power_sums(prof.e, k)  # D^j p_j
    if any(p < 0 for p in psums):
        raise InconsistentProfileError("p_j < 0 is impossible for nonnegative roots")
    if power_sum:
        pk = psums[k - 1] / e1**k  # of the e_1-normalized roots
        if k == 1:
            return ApproxResult(e1 * pk / n, Fraction(n), 0, POWER_SUM)
        est = e1 * nth_root_lower(pk / n, k, _ROOT_BITS)
        return ApproxResult(est, alpha_factor(k, n), 0, POWER_SUM)

    coeffs = _threshold_coeffs(n, e1, scale, psums)
    f = shrink_factor(k, n)
    cap = 10 * k * k + 100
    t = Fraction(1)  # normalized e_1
    iterations = 0
    while iterations < cap:
        iterations += 1
        if _cheb_sum_exceeds(coeffs, t):
            return ApproxResult(e1 * t, alpha_factor(k, n), iterations, CHEBYSHEV_LOOP)
        t = dyadic_floor(t / f, _T_BITS)
    raise InconsistentProfileError(
        f"no threshold crossing within {cap} iterations; "
        "profile cannot come from nonnegative roots")
