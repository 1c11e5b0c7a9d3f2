"""Certified real-root isolation over exact rationals.

The engine is Descartes-rule bisection (Vincent-Collins-Akritas) applied
to the square-free factors produced by Yun's algorithm, entirely in
integer arithmetic:

* every entry point takes an ``ExactPolynomial`` or ascending integer
  coefficients and clears them at one boundary to the one primitive
  integer polynomial with a positive lead that has the same roots;
* a root interval is either an exact rational point or an open
  interval on which its defining square-free polynomial changes sign;
* every enclosure is held on integers, two numerators over one common
  denominator: refinement and comparison halve it by
  doubling the denominator, decide each midpoint by an integer sign and
  order ends by cross-multiplication, so no ``Fraction`` is built until
  an end is read;
* multiplicities come from the square-free decomposition, which first
  deflates the zero root (p = x^j f with f(0) != 0), runs Yun's loop on
  f alone and lists x as its own factor of multiplicity j;
* the walk starts on (-2^h, 2^h) for the least h that passes an exact
  Fujiwara-type test, sum_i |c_(d-i)| 2^(-hi) < |c_d|, never above the
  Cauchy bound's h and for Chebyshev-like coefficients far below it (7
  against 38 for T_32(3/2 - x)); below width 2^h the Descartes tree is
  the same aligned dyadic tree whatever the starting bound, and
  refinement reaches the same aligned cell from any wider aligned cell
  that holds the root, so an enclosure refined below the width it started
  at is the same from any bound;
* the Descartes test runs the Taylor shift pass by pass and stops at the
  second sign variation, since the walk only tells 0, 1 and >= 2 apart;
* refinement is step-by-step sign bisection (``refine_step``) on the
  integer grid, so certified width bounds are a loop, not an estimate;
* the Descartes walk runs right to left: ``isolate_real_roots`` drains
  it, while ``max_root`` stops each square-free factor's walk at its
  largest root, takes the largest of those tops with ``compare_roots``
  and refines only the winner;
  ``RootInterval.scaled`` turns an enclosure of a root into one of the
  root times a rational, with no second isolation.

On top of the isolator sit exact decision procedures used by the
certificate machinery: root counting on intervals, "no roots above a
rational threshold", and total-order comparison of two isolated
algebraic numbers (with a gcd fallback to detect equality).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice, zip_longest
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from rootline.poly import ExactPolynomial
from rootline.ratutil import to_fraction

IntPoly = Tuple[int, ...]  # ascending degree, trimmed, nonzero unless empty

DEFAULT_PRECISION = Fraction(1, 2**53)

# ---------------------------------------------------------------------------
# integer polynomial kernel
# ---------------------------------------------------------------------------


def _trim(c: List[int]) -> List[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _content(c: Iterable[int]) -> int:
    g = 0
    for v in c:
        g = math.gcd(g, abs(v))
        if g == 1:
            break
    return g or 1


def _primitive(c: Sequence[int]) -> IntPoly:
    """c over its content, lead made positive; () for zero.  The content is
    taken from the lead down, so on x^j f it mostly stops inside f."""
    c = _trim(list(c))
    g = _content(reversed(c))
    if c and c[-1] < 0:
        g = -g
    return tuple(c) if g == 1 else tuple(v // g for v in c)


PolyLike = Union[ExactPolynomial, Sequence[int]]


def _int_poly(p: PolyLike) -> IntPoly:
    """The boundary: p, an ``ExactPolynomial`` or ascending integers, as the
    primitive integer polynomial with a positive lead and p's roots."""
    if isinstance(p, ExactPolynomial):
        den = math.lcm(*(c.denominator for c in p.coeffs))
        p = [c.numerator * (den // c.denominator) for c in p.coeffs]
    full = _primitive(p)
    if not full:
        raise ValueError("the zero polynomial has no roots to isolate")
    return full


def _deriv(c: IntPoly) -> IntPoly:
    return tuple(i * c[i] for i in range(1, len(c)))


def _pseudo_rem(f: List[int], g: List[int]) -> List[int]:
    """Pseudo-remainder of f by g (g nonzero), all-integer."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        df = len(f) - 1
        lf = f[-1]
        f = [lg * c for c in f]
        shift = df - dg
        for i, gc in enumerate(g):
            f[i + shift] -= lf * gc
        f = _trim(f)
    return f


def int_poly_gcd(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    """Primitive gcd via the primitive pseudo-remainder sequence."""
    f = list(_primitive(a))
    g = list(_primitive(b))
    if not f:
        return tuple(g)
    if not g:
        return tuple(f)
    while g:
        r = _pseudo_rem(f, g)
        f, g = g, list(_primitive(r))
    return _primitive(f)


def _divide_exact(f: Sequence[int], g: Sequence[int]) -> List[int]:
    """Quotient f / g for a primitive g that divides f over Q.

    By Gauss's lemma the quotient has integer coefficients, so every step
    of the long division is an exact integer division.
    """
    work = list(f)
    dg = len(g) - 1
    lg = g[-1]
    if len(work) < len(g):
        return []
    out: List[int] = []
    for shift in range(len(work) - 1 - dg, -1, -1):
        c = work[shift + dg] // lg
        out.append(c)
        if c:
            for i, gc in enumerate(g):
                work[shift + i] -= c * gc
    out.reverse()
    return out


def _sign_at_ratio(c: Sequence[int], num: int, den: int) -> int:
    """Sign of c at num/den for den > 0 (num/den need not be in lowest
    terms): the sign of the integer den^d c(num/den), by Horner.

    Writing den = 2^s o with o odd, den^j is o^j shifted left by s j; on
    the dyadic grids of refinement and of the threshold loop o = 1, so
    each step is a multiplication by num plus a shift.
    """
    s = (den & -den).bit_length() - 1
    odd = den >> s
    acc, opow, shift = 0, 1, 0
    for coeff in reversed(c):
        acc = acc * num + ((coeff * opow) << shift)
        opow *= odd
        shift += s
    return (acc > 0) - (acc < 0)


def _shift1(c: Sequence[int]) -> List[int]:
    """Taylor shift p(x) -> p(x+1), Ruffini-Horner scheme."""
    c = list(c)
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _shift_int(c: Sequence[int], t: int) -> List[int]:
    """Taylor shift p(x) -> p(x+t) for integer t."""
    c = list(c)
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += t * c[j + 1]
    return c


def _scale_pow2(c: Sequence[int], h: int) -> List[int]:
    """2^(dh) * p(x / 2^h), keeping integer coefficients."""
    d = len(c) - 1
    return [v << (h * (d - i)) for i, v in enumerate(c)]


def _to_unit_interval(c: Sequence[int], lo: int, hi: int, den: int) -> List[int]:
    """Integer polynomial whose roots in (0, 1) are those of c in
    (lo/den, hi/den), mapped by x -> (x - lo/den) / ((hi - lo)/den).

    It is den^d c((lo + (hi - lo) x) / den): scale the argument by den,
    shift by lo, scale by hi - lo.
    """
    d, width = len(c) - 1, hi - lo
    shifted = _shift_int([v * den ** (d - i) for i, v in enumerate(c)], lo)
    return _trim([v * width**i for i, v in enumerate(shifted)])


def _variations01(c: Sequence[int]) -> int:
    """min(2, V), V the sign variations of (x+1)^d c(1/(x+1)), which bound
    the number of roots of c in the open (0,1).

    The shift is ``_shift1`` on the reversal, run pass by pass: pass i
    finalises coefficient i and the lead never moves, so the variations
    seen in the finished prefix are a lower bound on V, and the walk
    stops at the second one.  ``_descartes01`` tells only 0, 1 and >= 2
    apart.
    """
    c = _trim(list(reversed(c)))
    d = len(c) - 1
    count = prev = 0
    for i in range(d + 1):
        for j in range(d - 1, i - 1, -1):
            c[j] += c[j + 1]
        if c[i]:
            s = 1 if c[i] > 0 else -1
            if s == -prev:
                count += 1
                if count == 2:
                    return 2
            prev = s
    return count


def _deflate_root(c: Sequence[int], num: int, den: int) -> IntPoly:
    """Divide by (den*x - num) given that num/den is a root; the quotient
    is returned primitive."""
    g = math.gcd(num, den)
    return _primitive(_divide_exact(c, (-num // g, den // g)))


def root_bound_pow2(c: Sequence[int]) -> int:
    """The least h >= 1 with sum_(i=1..d) |c_(d-i)| 2^(-hi) < |c_d|, so that
    every real root lies strictly inside (-2^h, 2^h).

    At |x| >= 2^h the terms below the lead sum to less than |c_d x^d|.
    The test is exact, on integers: sum_(j<d) |c_j| 2^(hj) < |c_d| 2^(hd),
    by Horner in 2^h.  Its sum falls as h grows, so the scan starts at the
    least h that no single term rules out, |c_(d-i)| < |c_d| 2^(hi) by bit
    lengths; Fujiwara's per-term rule |c_(d-i)| < |c_d| 2^((h-1)i) passes
    the test within two steps of that start, and so does Cauchy's
    1 + max|c_j/c_d| <= 2^h, so h is never above either.
    """
    d, lead = len(c) - 1, abs(c[-1])
    top = lead.bit_length()
    h = max([1] + [-((top - abs(v).bit_length()) // i)
                   for i, v in enumerate(reversed(c[:-1]), 1) if v])
    while True:
        acc = 0
        for v in reversed(c[:-1]):
            acc = (acc << h) + abs(v)
        if acc < lead << (h * d):
            return h
        h += 1


# ---------------------------------------------------------------------------
# Yun square-free decomposition
# ---------------------------------------------------------------------------


def squarefree_decomposition(p: PolyLike) -> List[Tuple[IntPoly, int]]:
    """Yun decomposition: [(factor, multiplicity)] by increasing
    multiplicity, factors primitive, square-free and pairwise coprime; the
    product of factor^mult is p up to a constant.

    With p = x^j f and f(0) != 0, Yun's loop runs on f only and x is
    listed as its own factor of multiplicity j, ahead of any other factor
    of that multiplicity, so padding by x^j costs no iterations.
    Every divisor in the loop is primitive (a gcd's primitive part), so
    each quotient is an exact integer polynomial.
    """
    full = _int_poly(p)
    j = next(i for i, v in enumerate(full) if v)
    out: List[Tuple[IntPoly, int]] = []
    # Yun's invariant for i >= 1: c = a_i a_(i+1) ... and gcd(c, d) = a_i,
    # the product of f's irreducible factors of multiplicity i; the pass at
    # i = 0 divides f and f' by gcd(f, f')
    c, d, i = full[j:], _deriv(full[j:]), 0
    while len(c) > 1:
        a = int_poly_gcd(c, d)
        if i and len(a) > 1:
            out.append((a, i))
        c = _divide_exact(c, a)
        d = _trim([u - v for u, v in
                   zip_longest(_divide_exact(d, a), _deriv(c), fillvalue=0)])
        i += 1
    if j:
        out.insert(next((t for t, (_, mult) in enumerate(out) if mult >= j), len(out)),
                   ((0, 1), j))
    return out


# ---------------------------------------------------------------------------
# VCA isolation on a square-free integer polynomial
# ---------------------------------------------------------------------------


def _descartes01(q: Sequence[int]) -> Iterator[Tuple[int, int, bool, Tuple[Tuple[int, int], ...]]]:
    """Roots of square-free q inside the open unit interval, right to left.

    Preconditions: q(0) != 0 and q(1) != 0.  Yields (c, k, exact, path):
    the open cell (c/2^k, (c+1)/2^k) that holds one root or, when
    ``exact``, the dyadic root c/2^k itself.  A root found at a midpoint
    is divided out of both halves below it, so the item's cell belongs to
    q with the roots in ``path``, as (num, k) meaning num/2^k, divided
    out.  The walk is depth first and takes the right half first, so the
    first item is the largest root and a caller that needs only it stops.
    """
    stack = [(0, 0, list(q), ())]
    while stack:
        c, k, poly, path = stack.pop()
        if poly is None:  # a midpoint root, due once its right half is done
            yield c, k, True, path
            continue
        v = _variations01(poly)
        if v == 0:
            continue
        if v == 1:
            yield c, k, False, path
            continue
        left = _scale_pow2(poly, 1)
        at_mid = sum(left) == 0  # root exactly at the midpoint (2c+1)/2^(k+1)
        below = path + ((2 * c + 1, k + 1),) if at_mid else path
        if at_mid:
            left = list(_deflate_root(left, 1, 1))  # left-child coordinate x = 1
        stack.append((2 * c, k + 1, left, below))
        if at_mid:
            stack.append((2 * c + 1, k + 1, None, path))
        stack.append((2 * c + 1, k + 1, _trim(_shift1(left)), below))


def _squarefree_roots(q: IntPoly, multiplicity: int) -> Iterator[RootInterval]:
    """The real roots of square-free q, each of the given multiplicity,
    from right to left.

    Exact roots have lo == hi; a linear q has its one root exact.  An
    open cell belongs to q with the exact roots found on the way to it
    divided out, so its defining polynomial is nonzero at both ends (a
    genuine sign-change certificate).  A cell
    (c, k) of the unit interval maps onto (-2^h, 2^h) as the grid point
    c/2^k -> (c 2^(h+1) - 2^(h+k))/2^k.
    """
    if len(q) == 2:
        yield RootInterval(q, -q[0], -q[0], q[1], multiplicity)
    if len(q) <= 2:
        return
    h = root_bound_pow2(q)
    for c, k, exact, path in _descartes01(_to_unit_interval(q, -1 << h, 1 << h, 1)):
        poly = q
        for num, j in path:
            poly = _deflate_root(poly, (num << (h + 1)) - (1 << (h + j)), 1 << j)
        lo = (c << (h + 1)) - (1 << (h + k))
        yield RootInterval(poly, lo, lo if exact else lo + (1 << (h + 1)), 1 << k, multiplicity)


# ---------------------------------------------------------------------------
# root intervals
# ---------------------------------------------------------------------------


class RootInterval:
    """One real root: an exact rational or an open sign-change interval.

    The ends are held on one integer grid, lo = lo_num/den and
    hi = hi_num/den with den > 0: a halving doubles ``den`` and every
    endpoint test is an integer cross-multiplication. ``poly`` is the
    square-free integer factor that vanishes (exactly once) inside the
    interval, and at neither end of it; refinement bisects against it.
    """

    __slots__ = ("poly", "lo_num", "hi_num", "den", "multiplicity", "_sign_lo")

    def __init__(self, poly: Optional[IntPoly], lo: int, hi: int, den: int, multiplicity: int):
        """The root lies in [lo/den, hi/den], integer numerators over one
        denominator."""
        if den <= 0:
            raise ValueError("the common denominator must be positive")
        if lo > hi:
            raise ValueError("the lower end lies above the upper end")
        g = math.gcd(lo, hi, den)
        lo, hi, den = lo // g, hi // g, den // g
        self.poly = poly
        self.lo_num, self.hi_num, self.den = lo, hi, den
        self.multiplicity = multiplicity
        self._sign_lo = 0
        if lo < hi:
            if poly is None:
                raise ValueError("a non-degenerate interval needs its polynomial")
            self._sign_lo = _sign_at_ratio(poly, lo, den)
            if self._sign_lo == 0 or _sign_at_ratio(poly, hi, den) != -self._sign_lo:
                raise ValueError("not a sign-change isolating interval")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.den)

    @property
    def exact(self) -> bool:
        return self.lo_num == self.hi_num

    def refine_step(self) -> None:
        """Halve once: keep the half whose ends differ in sign, or stop on
        a midpoint that is the root."""
        if self.lo_num == self.hi_num:
            return
        mid = self.lo_num + self.hi_num
        self.den <<= 1
        s = _sign_at_ratio(self.poly, mid, self.den)
        if s == 0:
            self.lo_num = self.hi_num = mid
            self._sign_lo = 0
        elif s == self._sign_lo:
            self.lo_num = mid
            self.hi_num <<= 1
        else:
            self.lo_num <<= 1
            self.hi_num = mid

    def refine_below(self, width: Fraction) -> "RootInterval":
        """Bisect with ``refine_step`` until the enclosure is at most
        ``width`` wide or is the root itself; a width <= 0 is refused
        unless the enclosure already meets it."""
        num, den = width.numerator, width.denominator
        while (self.hi_num - self.lo_num) * den > num * self.den:
            if num <= 0:
                raise ValueError("refinement width must be positive")
            self.refine_step()
        return self

    def scaled(self, r: Fraction) -> "RootInterval":
        """This root times the rational r, as a new enclosure.

        Its polynomial is the square-free factor f(x/r), cleared to a
        primitive integer polynomial, and its ends are r*lo and r*hi,
        swapped for r < 0; for r = 0 it is the exact root 0.
        """
        a, b = r.numerator, r.denominator
        if a == 0:
            return RootInterval((0, 1), 0, 0, 1, self.multiplicity)
        poly = self.poly
        if poly is not None:  # a^d f(b x / a), term by term
            d = len(poly) - 1
            poly = _primitive([v * b**i * a ** (d - i) for i, v in enumerate(poly)])
        lo, hi = sorted((a * self.lo_num, a * self.hi_num))
        return RootInterval(poly, lo, hi, b * self.den, self.multiplicity)

    def __float__(self) -> float:
        return float(Fraction(self.lo_num + self.hi_num, 2 * self.den))

    def __repr__(self) -> str:
        if self.exact:
            return f"RootInterval({self.lo}, mult={self.multiplicity})"
        return f"RootInterval(({self.lo}, {self.hi}), mult={self.multiplicity})"


def separated_roots(p: PolyLike) -> List[RootInterval]:
    """All real roots of p with multiplicity, in pairwise disjoint
    enclosures sorted ascending, not yet refined to any width: a caller
    that reads only some of them refines only those.  The roots are
    distinct (Yun's factors are coprime), ``compare_roots`` orders two
    only once their enclosures are disjoint, and a sort has compared each
    pair it leaves adjacent."""
    return sorted((root for factor, mult in squarefree_decomposition(p)
                   for root in _squarefree_roots(factor, mult)),
                  key=cmp_to_key(compare_roots))


def isolate_real_roots(p: PolyLike,
                       precision: Fraction = DEFAULT_PRECISION) -> List[RootInterval]:
    """All real roots of p with multiplicity, isolated and refined.

    Result is sorted ascending; intervals are pairwise disjoint and each
    has width <= precision (exact rational roots have width 0).
    """
    roots = separated_roots(p)
    precision = to_fraction(precision)
    for r in roots:
        r.refine_below(precision)
    return roots


def max_root(p: PolyLike,
             precision: Fraction = DEFAULT_PRECISION) -> Optional[RootInterval]:
    """Largest real root of p, or None if p has no real roots.

    Each square-free factor's walk stops at its largest root; only those
    roots are compared, and only the top one is refined.  Every
    enclosure is an aligned dyadic cell, and refinement reaches the same
    cell from any wider aligned cell that holds the root, so the result
    is ``isolate_real_roots(p, precision)[-1]`` whenever neither search
    has already left that root's enclosure at most ``precision`` wide
    before refining it.
    """
    tops = [top for factor, mult in squarefree_decomposition(p)
            for top in islice(_squarefree_roots(factor, mult), 1)]
    top = max(tops, key=cmp_to_key(compare_roots), default=None)
    return top and top.refine_below(to_fraction(precision))


# ---------------------------------------------------------------------------
# exact counting and threshold certificates
# ---------------------------------------------------------------------------


def _open_roots(q: IntPoly, lo: int, hi: int, den: int) -> Iterator[Tuple]:
    """The roots of square-free q in the open interval (lo/den, hi/den),
    as the items of the Descartes walk on it, right to left."""
    if lo >= hi or len(q) <= 1:
        return iter(())
    work = _to_unit_interval(q, lo, hi, den)
    if work[0] == 0:  # root at lo/den itself: outside the open interval
        work = list(_primitive(work[1:]))
    if sum(work) == 0:  # likewise at hi/den
        work = list(_deflate_root(work, 1, 1))
    return _descartes01(_trim(work))


def _roots_leq(factors: List[Tuple[IntPoly, int]], a: Fraction) -> bool:
    """Every real root of the square-free factors is <= a."""
    for factor, _ in factors:
        bound = 1 << root_bound_pow2(factor)
        if a < bound and any(_open_roots(factor, a.numerator, bound * a.denominator,
                                         a.denominator)):
            return False
    return True


def max_root_leq(p: PolyLike, a: Fraction) -> bool:
    """Certified decision: every real root of p is <= a. Exact, no slack."""
    return _roots_leq(squarefree_decomposition(p), to_fraction(a))


def max_root_geq(p: PolyLike, a: Fraction) -> bool:
    """Certified decision: some real root of p is >= a: a is a root of a
    square-free factor, or not every root is <= a."""
    a = to_fraction(a)
    factors = squarefree_decomposition(p)
    return (any(_sign_at_ratio(f, a.numerator, a.denominator) == 0 for f, _ in factors)
            or not _roots_leq(factors, a))


# ---------------------------------------------------------------------------
# ordering isolated algebraic numbers
# ---------------------------------------------------------------------------


def compare_roots(r1: RootInterval, r2: RootInterval) -> int:
    """Total-order comparison of two isolated roots: -1, 0 or +1.

    Refines both intervals; if they refuse to separate, decides equality
    exactly through the gcd g of the two defining polynomials once one of
    them is narrower than 2^-256.  g divides two square-free polynomials,
    so it is square-free and nonzero at both ends of the overlap (each
    an end of one enclosure), and its only possible root there is the
    one both enclosures hold: the roots are equal iff g changes sign
    across the overlap.  Neither polynomial changes while the enclosures
    refine, so g is computed once, at the first such step.  An exact root
    inside an open enclosure equals its root iff it is a root of the
    enclosure's polynomial, since the ends never are.
    """
    g = None
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
            if g is None:
                g = int_poly_gcd(r1.poly, r2.poly)
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if _sign_at_ratio(g, lo, d1 * d2) != _sign_at_ratio(g, hi, d1 * d2):
                return 0
        r1.refine_step()
        r2.refine_step()
