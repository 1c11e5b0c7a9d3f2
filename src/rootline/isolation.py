"""Certified real-root isolation over exact rationals.

The engine is Descartes-rule bisection (Vincent-Collins-Akritas) applied
to the square-free factors produced by Yun's algorithm, entirely in
integer arithmetic:

* a root interval is either an exact rational point or an open dyadic
  interval on which the defining square-free factor changes sign;
* multiplicities come from the square-free decomposition, which first
  deflates the zero root (p = x^j f with f(0) != 0), runs Yun's loop on
  f alone and gives x back to the factor of multiplicity j;
* refinement is sign bisection, so certified width bounds are a loop,
  not an estimate; it walks the bisection grid on integers, deciding
  each midpoint by an integer sign, and lands on the same cell as
  step-by-step bisection;
* ``max_root`` isolates and separates every root but refines only the
  top one.

On top of the isolator sit exact decision procedures used by the
certificate machinery: root counting on intervals, "no roots above a
rational threshold", and total-order comparison of two isolated
algebraic numbers (with a gcd fallback to detect equality).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import List, Optional, Sequence, Tuple

from rootline.poly import ExactPolynomial
from rootline.ratutil import to_fraction

IntPoly = Tuple[int, ...]  # ascending degree, trimmed, nonzero unless empty

DEFAULT_PRECISION = Fraction(1, 2**53)

#: overlap width below which compare_roots decides equality by a gcd
_GCD_WIDTH = Fraction(1, 1 << 256)


# ---------------------------------------------------------------------------
# integer polynomial kernel
# ---------------------------------------------------------------------------


def _trim(c: List[int]) -> List[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _content(c: Sequence[int]) -> int:
    g = 0
    for v in c:
        g = math.gcd(g, abs(v))
        if g == 1:
            break
    return g or 1


def _primitive(c: Sequence[int]) -> IntPoly:
    c = _trim(list(c))
    if not c:
        return ()
    g = _content(c)
    if c[-1] < 0:
        g = -g
    return tuple(v // g for v in c)


def int_poly_from_fractions(coeffs: Sequence[Fraction]) -> IntPoly:
    """Clear denominators and strip integer content (sign of lead kept +)."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return _primitive([c.numerator * (lcm // c.denominator) for c in coeffs])


def int_poly_from_exact(p: ExactPolynomial) -> IntPoly:
    return int_poly_from_fractions(p.coeffs)


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


def sign_at(c: Sequence[int], x: Fraction) -> int:
    """Exact sign of the integer polynomial at a rational point."""
    return _sign_at_ratio(c, x.numerator, x.denominator)


def _sign_at_ratio(c: Sequence[int], num: int, den: int) -> int:
    """Sign of c at num/den for den > 0 (num/den need not be in lowest
    terms): the sign of the integer den^d c(num/den), by Horner."""
    acc = 0
    denpow = 1
    for coeff in reversed(c):
        acc = acc * num + coeff * denpow
        denpow *= den
    return (acc > 0) - (acc < 0)


def _variations(c: Sequence[int]) -> int:
    count = 0
    prev = 0
    for v in c:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


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


def _to_unit_interval(c: Sequence[int], a: Fraction, b: Fraction) -> List[int]:
    """Integer polynomial whose roots in (0, 1) are those of c in (a, b),
    mapped by x -> (x - a) / (b - a).

    With a = A/L and b - a = W/L over a common denominator L this is
    L^d c((A + W x) / L): scale the argument by L, shift by A, scale by W.
    """
    L = math.lcm(a.denominator, b.denominator)
    A = a.numerator * (L // a.denominator)
    W = b.numerator * (L // b.denominator) - A
    d = len(c) - 1
    shifted = _shift_int([v * L ** (d - i) for i, v in enumerate(c)], A)
    return _trim([v * W**i for i, v in enumerate(shifted)])


def _variations01(c: Sequence[int]) -> int:
    """Sign variations bounding the number of roots in the open (0,1)."""
    rev = list(reversed(c))
    return _variations(_shift1(_trim(rev)))


def _deflate_root(c: Sequence[int], num: int, den: int) -> IntPoly:
    """Divide by (den*x - num) given that num/den is a root (coprime num,
    den); the quotient is returned primitive."""
    return _primitive(_divide_exact(c, (-num, den)))


def cauchy_bound_pow2(c: Sequence[int]) -> int:
    """Power-of-two h with all real roots strictly inside (-2^h, 2^h)."""
    lead = abs(c[-1])
    top = max(abs(v) for v in c[:-1]) if len(c) > 1 else 0
    bound = 1 + (top + lead - 1) // lead  # ceil(top/lead) + 1 > cauchy bound
    return max(1, bound).bit_length()


# ---------------------------------------------------------------------------
# Yun square-free decomposition
# ---------------------------------------------------------------------------


def squarefree_decomposition(p: ExactPolynomial) -> List[Tuple[IntPoly, int]]:
    """Yun decomposition: [(factor, multiplicity)] by increasing
    multiplicity, factors primitive, square-free and pairwise coprime; the
    product of factor^mult is p up to a constant.

    With p = x^j f and f(0) != 0, Yun's loop runs on f only and x joins
    the factor of multiplicity j, so padding by x^j costs no iterations.
    Every divisor in the loop is primitive (a gcd's primitive part), so
    each quotient is an exact integer polynomial.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no square-free decomposition")
    if p.degree < 1:
        return []
    full = int_poly_from_exact(p)
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
        at = next((t for t, (_, mult) in enumerate(out) if mult >= j), len(out))
        if at < len(out) and out[at][1] == j:
            out[at] = ((0,) + out[at][0], j)
        else:
            out.insert(at, ((0, 1), j))
    return out


# ---------------------------------------------------------------------------
# VCA isolation on a square-free integer polynomial
# ---------------------------------------------------------------------------


def _isolate01(q: Sequence[int]) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Isolate roots of square-free q inside the open unit interval.

    Preconditions: q(0) != 0 and q(1) != 0.
    Returns (open intervals as (c, k) meaning (c/2^k, (c+1)/2^k),
             exact dyadic roots as (num, k) meaning num/2^k).
    """
    intervals: List[Tuple[int, int]] = []
    exact: List[Tuple[int, int]] = []
    stack = [(0, 0, list(q))]
    while stack:
        c, k, poly = stack.pop()
        v = _variations01(poly)
        if v == 0:
            continue
        if v == 1:
            intervals.append((c, k))
            continue
        left = _scale_pow2(poly, 1)
        if sum(left) == 0:  # root exactly at the midpoint (2c+1)/2^(k+1)
            exact.append((2 * c + 1, k + 1))
            left = list(_deflate_root(left, 1, 1))  # left-child coordinate x = 1
        right = _shift1(left)
        stack.append((2 * c, k + 1, left))
        stack.append((2 * c + 1, k + 1, _trim(right)))
    return intervals, exact


def _isolate_squarefree(q: IntPoly) -> List[Tuple[IntPoly, Fraction, Fraction]]:
    """All real roots of square-free q as (defining poly, lo, hi) triples.

    Exact roots have lo == hi.  Exact rational roots discovered during
    subdivision are divided out and the remainder re-isolated, so every
    open interval ends up with endpoints at which its defining
    polynomial is nonzero (a genuine sign-change certificate).
    """
    roots: List[Tuple[IntPoly, Fraction, Fraction]] = []
    work = q
    while True:
        if len(work) <= 1:
            break
        if work[0] == 0:  # simple zero root (q square-free)
            roots.append((work, Fraction(0), Fraction(0)))
            work = _primitive(work[1:])
            continue
        if len(work) == 2:
            r = Fraction(-work[0], work[1])
            roots.append((work, r, r))
            break
        bound = 1 << cauchy_bound_pow2(work)
        intervals, exact = _isolate01(_to_unit_interval(work, Fraction(-bound), Fraction(bound)))
        width = Fraction(2 * bound)
        if not exact:
            for c, k in intervals:
                lo = -bound + width * Fraction(c, 1 << k)
                hi = -bound + width * Fraction(c + 1, 1 << k)
                roots.append((work, lo, hi))
            break
        # peel the exact rational roots off and isolate the rest afresh
        for num, k in exact:
            x = -bound + width * Fraction(num, 1 << k)
            roots.append((work, x, x))
            work = _deflate_root(work, x.numerator, x.denominator)
    roots.sort(key=lambda t: t[1])
    return roots


# ---------------------------------------------------------------------------
# root intervals
# ---------------------------------------------------------------------------


class RootInterval:
    """One real root: an exact rational or an open sign-change interval.

    ``poly`` is the square-free integer factor that vanishes (exactly once)
    inside the interval; refinement bisects against it.
    """

    __slots__ = ("poly", "lo", "hi", "multiplicity", "_sign_lo")

    def __init__(self, poly: Optional[IntPoly], lo: Fraction, hi: Fraction,
                 multiplicity: int = 1):
        self.poly = poly
        self.lo = lo
        self.hi = hi
        self.multiplicity = multiplicity
        if lo == hi:
            self._sign_lo = 0
        else:
            if poly is None:
                raise ValueError("a non-degenerate interval needs its polynomial")
            self._sign_lo = sign_at(poly, lo)
            if self._sign_lo == 0 or self._sign_lo == sign_at(poly, hi):
                raise ValueError("not a sign-change isolating interval")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def refine_step(self) -> None:
        if self.exact:
            return
        mid = self.midpoint()
        s = sign_at(self.poly, mid)
        if s == 0:
            self.lo = self.hi = mid
            self._sign_lo = 0
        elif s == self._sign_lo:
            self.lo = mid
        else:
            self.hi = mid

    def refine_below(self, width: Fraction) -> "RootInterval":
        """Bisect until the enclosure is at most ``width`` wide.

        The result is what repeated ``refine_step`` gives, found on the
        integer bisection grid: with lo = A/L and hi - lo = W/L, s halvings
        (the least s with W/(L 2^s) <= width) end in the level-s cell
        (A 2^s + a W, A 2^s + (a+1) W)/(L 2^s) that holds the root, unless
        a midpoint on the way is the root itself. Each midpoint is decided
        by an integer sign; the Fraction endpoints are built once.
        """
        if self.exact or self.width <= width:
            return self
        if width <= 0:
            raise ValueError("refinement width must be positive")
        L = math.lcm(self.lo.denominator, self.hi.denominator)
        A = self.lo.numerator * (L // self.lo.denominator)
        W = self.hi.numerator * (L // self.hi.denominator) - A
        big, unit = W * width.denominator, width.numerator * L
        s = max(0, big.bit_length() - unit.bit_length())
        while (unit << s) < big:
            s += 1
        a = 0
        for t in range(1, s + 1):
            num = (A << t) + (2 * a + 1) * W
            sign = _sign_at_ratio(self.poly, num, L << t)
            if sign == 0:
                self.lo = self.hi = Fraction(num, L << t)
                self._sign_lo = 0
                return self
            a = 2 * a + (sign == self._sign_lo)
        self.lo = Fraction((A << s) + a * W, L << s)
        self.hi = Fraction((A << s) + (a + 1) * W, L << s)
        return self

    def contains(self, x: Fraction) -> bool:
        if self.exact:
            return self.lo == x
        return self.lo < x < self.hi

    def __float__(self) -> float:
        return float(self.midpoint())

    def __repr__(self) -> str:
        if self.exact:
            return f"RootInterval({self.lo}, mult={self.multiplicity})"
        return f"RootInterval(({self.lo}, {self.hi}), mult={self.multiplicity})"


def _disjoint_ordered(a: RootInterval, b: RootInterval) -> bool:
    """a's root provably precedes b's and the enclosures do not overlap."""
    if a.hi < b.lo:
        return True
    if a.exact and b.exact:
        return a.lo < b.lo
    if a.exact:
        return a.lo <= b.lo  # b's root lies strictly inside (b.lo, b.hi)
    if b.exact:
        return a.hi <= b.lo
    return False


def _separate(roots: List[RootInterval]) -> List[RootInterval]:
    """Refine until the enclosures are pairwise disjoint and sorted.

    Roots are pairwise distinct (square-free factors are coprime), so
    bisection always separates them eventually; the re-sort each round
    lets enclosures migrate past each other as they shrink.
    """
    while True:
        roots.sort(key=lambda r: (r.lo, r.hi))
        clean = True
        for a, b in zip(roots, roots[1:]):
            if not _disjoint_ordered(a, b):
                a.refine_step()
                b.refine_step()
                clean = False
        if clean:
            return roots


def _separated_roots(p: ExactPolynomial) -> List[RootInterval]:
    """All real roots of p with multiplicity, in pairwise disjoint
    enclosures sorted ascending, not yet refined to any width."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    return _separate([RootInterval(defining, lo, hi, mult)
                      for factor, mult in squarefree_decomposition(p)
                      for defining, lo, hi in _isolate_squarefree(factor)])


def isolate_real_roots(p: ExactPolynomial,
                       precision: Fraction = DEFAULT_PRECISION) -> List[RootInterval]:
    """All real roots of p with multiplicity, isolated and refined.

    Result is sorted ascending; intervals are pairwise disjoint and each
    has width <= precision (exact rational roots have width 0).
    """
    roots = _separated_roots(p)
    precision = to_fraction(precision)
    for r in roots:
        r.refine_below(precision)
    return roots


def max_root(p: ExactPolynomial,
             precision: Fraction = DEFAULT_PRECISION) -> Optional[RootInterval]:
    """Largest real root of p, or None if p has no real roots.

    Only the top enclosure is refined; it is the same interval that
    ``isolate_real_roots(p, precision)[-1]`` gives.
    """
    roots = _separated_roots(p)
    return roots[-1].refine_below(to_fraction(precision)) if roots else None


# ---------------------------------------------------------------------------
# exact counting and threshold certificates
# ---------------------------------------------------------------------------


def _count_open_squarefree(q: IntPoly, a: Fraction, b: Fraction) -> int:
    """Number of roots of square-free q in the open interval (a, b)."""
    if a >= b or len(q) <= 1:
        return 0
    work = _to_unit_interval(q, a, b)
    if work[0] == 0:  # root at a itself: outside the open interval
        work = list(_primitive(work[1:]))
    if sign_at(work, Fraction(1)) == 0:
        work = list(_deflate_root(work, 1, 1))
    intervals, exact = _isolate01(_trim(work))
    return len(intervals) + len(exact)


def max_root_leq(p: ExactPolynomial, a: Fraction) -> bool:
    """Certified decision: every real root of p is <= a. Exact, no slack."""
    a = to_fraction(a)
    for factor, _ in squarefree_decomposition(p):
        if len(factor) == 2:
            if Fraction(-factor[0], factor[1]) > a:
                return False
            continue
        bound = Fraction(1 << cauchy_bound_pow2(factor))
        if a >= bound:
            continue
        if _count_open_squarefree(factor, a, bound) > 0:
            return False
    return True


def max_root_geq(p: ExactPolynomial, a: Fraction) -> bool:
    """Certified decision: some real root of p is >= a."""
    a = to_fraction(a)
    return p(a) == 0 or not max_root_leq(p, a)


# ---------------------------------------------------------------------------
# ordering isolated algebraic numbers
# ---------------------------------------------------------------------------


def compare_roots(r1: RootInterval, r2: RootInterval) -> int:
    """Total-order comparison of two isolated roots: -1, 0 or +1.

    Refines both intervals; if they refuse to separate, decides equality
    exactly through the gcd of the two defining polynomials.
    """
    while True:
        if r1.hi < r2.lo:
            return -1
        if r2.hi < r1.lo:
            return 1
        if r1.exact and r2.exact:
            return (r1.lo > r2.lo) - (r1.lo < r2.lo)
        if r1.exact and r2.poly is not None:
            if sign_at(r2.poly, r1.lo) == 0 and r2.contains(r1.lo):
                return 0
        elif r2.exact and r1.poly is not None:
            if sign_at(r1.poly, r2.lo) == 0 and r1.contains(r2.lo):
                return 0
        if not r1.exact and not r2.exact and r1.poly is not None and r2.poly is not None:
            lo, hi = max(r1.lo, r2.lo), min(r1.hi, r2.hi)
            if _overlap_width_small(r1, r2):
                g = int_poly_gcd(r1.poly, r2.poly)
                if len(g) > 1 and _has_root_in_closed(g, lo, hi):
                    return 0
        r1.refine_step()
        r2.refine_step()


def _overlap_width_small(r1: RootInterval, r2: RootInterval) -> bool:
    w = min(r1.width, r2.width)
    return w > 0 and w < _GCD_WIDTH


def _has_root_in_closed(g: IntPoly, a: Fraction, b: Fraction) -> bool:
    if sign_at(g, a) == 0 or sign_at(g, b) == 0:
        return True
    return _count_open_squarefree(_squarefree_part(g), a, b) > 0


def _squarefree_part(g: IntPoly) -> IntPoly:
    if len(g) <= 2:
        return g
    return _primitive(_divide_exact(g, int_poly_gcd(g, _deriv(g))))
