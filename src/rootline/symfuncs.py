"""Newton's identities: elementary symmetric functions <-> power sums.

A ``SymmetricProfile`` is the "top k coefficients" view of an unknown
root vector: n roots, of which only e_1..e_k are known.  Conversions to
and from power sums are exact.  Values are ``Fraction``s at the
interface; the e -> p recurrence runs on integers, over the least common
scale D with D^i e_i integral, and has order r past the last nonzero e_r
(see :func:`integer_power_sums`).  The inverse direction divides by i and
stays over rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence, Tuple

from rootline.poly import ExactPolynomial
from rootline.ratutil import RationalLike, format_rational, iroot_floor, to_fraction


@dataclass(frozen=True)
class SymmetricProfile:
    """(n, e_1..e_k): the first k elementary symmetric values of n roots.

    k = 0 is legal and carries only n.
    """

    n: int
    e: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("profile needs n >= 1")
        if len(self.e) > self.n:
            raise ValueError(f"k={len(self.e)} exceeds n={self.n}")
        object.__setattr__(self, "e", tuple(to_fraction(v) for v in self.e))

    @property
    def k(self) -> int:
        return len(self.e)

    def truncate(self, k: int) -> "SymmetricProfile":
        if not 0 <= k <= self.k:
            raise ValueError(f"cannot truncate k={self.k} profile to {k}")
        return SymmetricProfile(self.n, self.e[:k])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "e": [format_rational(v) for v in self.e]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SymmetricProfile":
        if not (isinstance(d, dict) and isinstance(d.get("n"), int)
                and isinstance(d.get("e"), list)):
            raise ValueError('a profile is a JSON object {"n": int, "e": ["p/q", ...]}')
        return cls(d["n"], tuple(to_fraction(v) for v in d["e"]))


@dataclass(frozen=True)
class PowerSumProfile:
    """(n, p_1..p_k): the first k power sums of n roots."""

    n: int
    p: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("profile needs n >= 1")
        object.__setattr__(self, "p", tuple(to_fraction(v) for v in self.p))

    @property
    def k(self) -> int:
        return len(self.p)


def _over_powers(scale: int, ints: Sequence[int]) -> Tuple[Fraction, ...]:
    """(ints[i-1] / scale^i for i = 1, 2, ...)."""
    out = []
    dpow = 1
    for v in ints:
        dpow *= scale
        out.append(Fraction(v, dpow))
    return tuple(out)


def profile_of_roots(n: int, roots: Sequence[RationalLike], k: int = None) -> SymmetricProfile:
    """Exact e_1..e_k of an explicit root vector (k defaults to n).

    Computed by expanding prod (x - mu_i) incrementally, which is the
    brute-force definition and therefore usable as a test oracle.  With
    mu_i = a_i / d over one common denominator d, the expansion runs on
    the integers a_i and e_j = e_j(a) / d^j.
    """
    mus = [to_fraction(r) for r in roots]
    if len(mus) != n:
        raise ValueError("root count differs from n")
    if k is None:
        k = n
    d = lcm(*(mu.denominator for mu in mus))
    e = [0] * (k + 1)
    e[0] = 1
    for mu in mus:
        a = mu.numerator * (d // mu.denominator)
        for i in range(k, 0, -1):
            e[i] += a * e[i - 1]
    return SymmetricProfile(n, _over_powers(d, e[1:]))


def _multiplicity(b: int, r: int) -> int:
    """The largest m with r^m dividing b (b >= 1, r >= 2), by repeated squaring."""
    if r == 2:  # dyadic denominators, the common case: count trailing zero bits
        return (b & -b).bit_length() - 1
    squares = []
    s = r
    while b % s == 0:
        squares.append(s)
        s *= s
    m = 0
    for bit in range(len(squares) - 1, -1, -1):
        if b % squares[bit] == 0:
            b //= squares[bit]
            m += 1 << bit
    return m


def _perfect_power_base(q: int) -> int:
    """The least r with r^m = q for some m >= 1 (q >= 2)."""
    m = 2
    while (1 << m) <= q:
        r = iroot_floor(q, m)
        if r**m == q:
            q = r
        else:
            m += 1
    return q


def _coprime_basis(values: Sequence[int]) -> list:
    """Pairwise coprime integers >= 2, none a perfect power, such that every
    value is a product of powers of them.

    Found by gcd splitting alone: a value first loses every power of the
    current basis elements; a remainder sharing g > 1 with an element r
    sends r / g, g and the remainder / g back to be inserted in turn, and
    a remainder coprime to all of them joins the basis as its perfect-power
    base.  Each split divides the product of basis and pending numbers by
    g >= 2, so the loop ends.
    """
    basis = []
    # smallest first: later values are then mostly stripped, not split
    pending = sorted((v for v in values if v > 1), reverse=True)
    while pending:
        y = pending.pop()
        for r in basis:
            y //= r ** _multiplicity(y, r)
        if y == 1:
            continue
        for idx, r in enumerate(basis):
            g = gcd(r, y)
            if g > 1:
                del basis[idx]
                pending += [r // g, g, y // g]
                break
        else:
            basis.append(_perfect_power_base(y))
    return basis


def scaled_integers(values: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """(D, V) with values[i-1] = V[i-1] / D^i, all integers, D found
    without factoring.

    Over a coprime basis of the denominators b_i, D = prod r^x(r) with
    x(r) = max_i ceil(m_i(r) / i), where m_i(r) is the multiplicity of
    the basis element r in b_i: the least D among products of basis
    elements.  It is the least D overall whenever every basis element is
    squarefree; a lone b_2 = 48 gives D = 48 where 12 would do, and only
    factoring would find that.  On the profiles of root vectors over a
    common denominator q, D is the least scale and divides q (checked in
    the tests).
    """
    dens = [v.denominator for v in values]
    scale = 1
    for r in _coprime_basis(dens):
        scale *= r ** max(-(-_multiplicity(b, r) // i) for i, b in enumerate(dens, 1))
    out = []
    dpow = 1
    for v in values:
        dpow *= scale
        out.append(v.numerator * (dpow // v.denominator))
    return scale, tuple(out)


def integer_power_sums(e: Sequence[Fraction], upto: int) -> Tuple[int, Tuple[int, ...]]:
    """(D, P) with p_i = P[i-1] / D^i for i = 1..upto, all integers.

    p_1..p_upto are the power sums of a root vector with elementary
    symmetric values e = (e_1..e_k); indices i > k are determined only
    when k = n, which the caller checks.  D is the least scale with
    E_j = D^j e_j integral (see :func:`scaled_integers`), and Newton's
    recurrence multiplied by D^i,

        P_i = sum_{j=1..min(i-1,r)} (-1)^(j-1) E_j P_{i-j} + (-1)^(i-1) i E_i,

    (the last term only for i <= r) runs on integers throughout.  Here
    r <= k is the index of the last nonzero e_j: past it the recurrence
    has order r, so a profile of rank r costs O(upto * r), not
    O(upto * k).  Zeros before e_r stay in the recurrence.
    """
    r = len(e)
    while r and not e[r - 1]:
        r -= 1
    scale, ints = scaled_integers(e[:r])  # zeros leave the least scale alone
    signed = [v if j % 2 == 1 else -v for j, v in enumerate(ints, 1)]  # (-1)^(j-1) E_j
    p = []  # p[i-1] = P_i
    for i in range(1, upto + 1):
        # pairs (-1)^(j-1) E_j with P_{i-j} for j = 1..min(i-1, r)
        acc = sum(map(mul, signed, reversed(p)))
        if i <= r:
            acc += i * signed[i - 1]
        p.append(acc)
    return scale, tuple(p)


def power_sums_from_elementary(prof: SymmetricProfile) -> PowerSumProfile:
    """p_1..p_k from e_1..e_k by the Newton recurrence, O(k r) for r the
    index of the last nonzero e_j.

    p_i = e_1 p_{i-1} - e_2 p_{i-2} + ... + (-1)^i i e_i  (signs alternating),
    run on integers by :func:`integer_power_sums`.
    """
    return PowerSumProfile(prof.n, _over_powers(*integer_power_sums(prof.e, prof.k)))


def elementary_from_power_sums(prof: PowerSumProfile) -> SymmetricProfile:
    """Inverse of :func:`power_sums_from_elementary`; exact round trip.

    e_i = (1/i) * sum_{j=1..i} (-1)^(j-1) e_{i-j} p_j, with e_0 = 1.
    """
    p = prof.p
    k = prof.k
    if k > prof.n:
        raise ValueError("more power sums than roots")
    e = [Fraction(1)]
    for i in range(1, k + 1):
        acc = Fraction(0)
        for j in range(1, i + 1):
            term = e[i - j] * p[j - 1]
            acc += term if j % 2 == 1 else -term
        e.append(acc / i)
    return SymmetricProfile(prof.n, tuple(e[1:]))


def profile_from_coefficients(n: int, c: Sequence[RationalLike]) -> SymmetricProfile:
    """Profile from the top coefficients c_1..c_k of a monic chi of degree n.

    e_i = (-1)^i c_i.
    """
    cs = [to_fraction(v) for v in c]
    if len(cs) > n:
        raise ValueError("more coefficients than roots")
    return SymmetricProfile(n, tuple((-1) ** i * cs[i - 1] for i in range(1, len(cs) + 1)))


def profile_from_polynomial(p: ExactPolynomial, k: int = None) -> SymmetricProfile:
    """Profile of a monic polynomial's root multiset, from its coefficients."""
    if p.is_zero or not p.is_monic():
        raise ValueError("profile requires a monic polynomial")
    n = p.degree
    if k is None:
        k = n
    return profile_from_coefficients(n, p.truncate_top(k))


def extended_power_sums(prof: SymmetricProfile, upto: int) -> Tuple[Fraction, ...]:
    """p_1..p_upto, allowing upto > k only for complete profiles (k = n).

    For i > n every power sum is determined by e_1..e_n through
    p_i = sum_{j=1..n} (-1)^(j-1) e_j p_{i-j}.
    """
    if upto > prof.k and prof.k != prof.n:
        raise ValueError("power sums beyond k are undetermined unless k = n")
    return _over_powers(*integer_power_sums(prof.e, upto))


def profiles_equal_up_to_k(a: SymmetricProfile, b: SymmetricProfile) -> bool:
    """Exact equality of e_1..e_k (equivalently of p_1..p_k)."""
    if a.n != b.n:
        raise ValueError(f"profiles have different n: {a.n} != {b.n}")
    if a.k != b.k:
        raise ValueError(f"profiles have different k: {a.k} != {b.k}")
    return a.e == b.e
