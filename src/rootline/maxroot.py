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

Passes whose answer is already known run no Horner.  Before the loop
the even power sum p_j (j = k, or k - 1 for odd k) of the normalized
roots nu_i gives two dyadic bounds, each seeded from floats and
verified once, exactly, on integers, so no float reaches a decision:

* an upper bound u >= max_i |nu_i|, since p_j >= max_i |nu_i|^j.  At
  every threshold t >= u each |nu_i / t| <= 1, so each
  |T_k(nu_i / t)| <= 1 and the sum is at most n: the test is False;
* for even k, a lower bound l <= (p_k / n)^(1/k) <= max_i |nu_i|.  At
  every threshold t with t (k^2 + 2n - 2) < l k^2 some |nu_i| / t
  exceeds 1 + (2n - 2) / k^2, and T_k(x) >= 1 + k^2 (x - 1) for x >= 1
  (T_k is convex there, with T_k(1) = 1 and T_k'(1) = k^2), so that
  term exceeds 2n - 1.  T_k is even and at least -1 on the whole real
  line, so the other n - 1 terms sum to at least -(n - 1): the test is
  True.  For odd k, T_k(x) < -1 at x < -1, so no crossing is certified.

Both need only real roots, of either sign, since j is even; so
estimate, factor, iteration count and branch are those of the loop
without them, and the Horner integers are built only for a pass that
neither bound decides.  Where an exact check fails its bound is
dropped and nothing more is decided.

Irrational quantities never enter: ln n is replaced by a certified
dyadic upper bound, k-th roots are certified rational lower bounds with
relative error below 2^-64, and the loop threshold is floored to 64
significant dyadic bits each step.  The reported factor accounts for
every one of those roundings, so the bracket is a theorem about the
returned rationals, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from rootline.chebyshev import _cheb_coeffs
from rootline.ratutil import (
    dyadic_ceil,
    dyadic_floor,
    le_ln,
    ln_bounds,
    ln_upper_dyadic,
    nth_root_lower,
    nth_root_upper,
)
from rootline.symfuncs import (
    SymmetricProfile,
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
#: significand bits of the dyadic root bounds that decide passes without Horner
_BOUND_BITS = 32


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
    L = ln_upper_dyadic(n)
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


def _dyadic_root(num: int, den: int, j: int, up: bool) -> Optional[Fraction]:
    """A dyadic r within about 2^-30 of (num / den)^(1/j), verified exactly:
    den r^j >= num if ``up``, else den r^j <= num and r > 0.  The
    candidate comes from floats (bit lengths and log2) with _BOUND_BITS
    significant bits; None when the exact check refuses it."""
    log_r = (math.log2(num) - math.log2(den)) / j
    s = _BOUND_BITS - math.ceil(log_r)
    x = 2.0 ** (log_r + s)
    a = math.ceil(x * (1 + 2.0**-30)) + 1 if up else math.floor(x * (1 - 2.0**-30)) - 1
    if a < 1:
        return None
    r = Fraction(a, 1 << s) if s >= 0 else Fraction(a << -s)
    lhs, rhs = num * r.denominator**j, den * r.numerator**j
    return r if (lhs <= rhs if up else rhs <= lhs) else None


def _decided_thresholds(n: int, e1: Fraction, scale: int, psums: Tuple[int, ...]
                        ) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    """(c, u): the loop's test is True at every threshold t < c and False
    at every t >= u, for real roots of either sign (module docstring);
    each is None where it is not certified.

    In the integers of :func:`_threshold_coeffs`, P_j / w^j = sum_i nu_i^j
    for the even j = k or k - 1.  u is checked as P_j <= w^j u^j and, for
    even k, l as n w^k l^k <= P_k, with c = l k^2 / (k^2 + 2n - 2).
    (None, None) when j < 2 or P_j = 0.
    """
    k = len(psums)
    j = k & ~1
    if j < 2 or psums[j - 1] <= 0:
        return None, None
    pj = psums[j - 1]
    wj = (scale * e1.numerator // e1.denominator) ** j
    upper = _dyadic_root(pj, wj, j, up=True)
    lower = _dyadic_root(pj, n * wj, j, up=False) if j == k else None
    cross = None if lower is None else lower * (k * k) / (k * k + 2 * n - 2)
    return cross, upper


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
        psums = power_sums_from_elementary(prof)  # p_j
    else:
        scale, psums = integer_power_sums(prof.e, k)  # D^j p_j
    if any(p < 0 for p in psums):
        raise InconsistentProfileError("p_j < 0 is impossible for nonnegative roots")
    if power_sum:
        pk = psums[k - 1] / e1**k  # of the e_1-normalized roots
        est = e1 * nth_root_lower(pk / n, k, _ROOT_BITS)
        return ApproxResult(est, alpha_factor(k, n), 0, POWER_SUM)

    cross, upper = _decided_thresholds(n, e1, scale, psums)
    coeffs: Tuple[int, ...] = ()  # built for the first pass neither bound decides
    f = shrink_factor(k, n)
    cap = 10 * k * k + 100
    t = Fraction(1)  # normalized e_1
    iterations = 0
    while iterations < cap:
        iterations += 1
        # t >= upper: the test is False; t < cross: it is True
        if upper is None or t < upper:
            crosses = cross is not None and t < cross
            if not crosses:
                coeffs = coeffs or _threshold_coeffs(n, e1, scale, psums)
                crosses = _cheb_sum_exceeds(coeffs, t)
            if crosses:
                return ApproxResult(e1 * t, alpha_factor(k, n), iterations, CHEBYSHEV_LOOP)
        t = dyadic_floor(t / f, _T_BITS)
    raise InconsistentProfileError(
        f"no threshold crossing within {cap} iterations; "
        "profile cannot come from nonnegative roots")
