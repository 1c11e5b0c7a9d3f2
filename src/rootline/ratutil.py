"""Exact-rational plumbing shared by every module.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator).  This module adds the utilities the rest of the package
needs on top of the stdlib type:

* parsing/formatting of the wire format ``"numerator/denominator"``,
* integer and rational k-th roots with a controlled rounding direction,
* dyadic rounding (used to keep iterated rationals from blowing up),
* certified rational bounds on ln and cos(pi*r), built on
  mpmath's interval arithmetic with outward rounding.

Every function here is deterministic: fixed inputs give fixed outputs,
independent of platform or call history.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Tuple, Union

import mpmath
from mpmath.libmp import to_rational

RationalLike = Union[int, str, Fraction]

#: the one wire form of a rational: -?digits, optionally /digits
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

#: digits after the point in `decimal_render`
_DECIMAL_DIGITS = 12

#: the working precision, in bits, of the transcendental bounds; `le_ln`
#: doubles it until the comparison is decided or it passes _MAX_PREC
_PREC = 96
_MAX_PREC = 1 << 14


def to_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:  # not bool: JSON true is no spelling of 1
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise ValueError(f"not an exact rational: {x!r} (floats and booleans are refused)")


def parse_rational(s: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"``: ASCII digits, an optional leading minus
    on p only, and a nonzero q; no other spelling is read."""
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"not a rational of the form p/q or p: {s!r}")
    num, _, den = s.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator: {s!r}")
    return Fraction(int(num), int(den or 1))


def format_rational(x: Fraction) -> str:
    """Canonical wire form ``"p/q"`` (denominator always present)."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def decimal_render(x: Fraction) -> str:
    """Human-oriented decimal rendering, truncated to 12 digits after the
    point; never authoritative."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    ipart = x.numerator // x.denominator
    rem = x - ipart
    scaled = (rem.numerator * 10**_DECIMAL_DIGITS) // rem.denominator
    frac_digits = str(scaled).rjust(_DECIMAL_DIGITS, "0").rstrip("0")
    return f"{sign}{ipart}.{frac_digits}" if frac_digits else f"{sign}{ipart}"


# ---------------------------------------------------------------------------
# integer / rational roots
# ---------------------------------------------------------------------------


def iroot_floor(a: int, k: int) -> int:
    """floor(a ** (1/k)) for a >= 0, k >= 1, by Newton iteration on ints.

    Newton descends monotonically from any start at or above the root.
    The start is a float estimate of the root from a's bit length and top
    53 bits, its log2 raised by 2^-40 (1 + log2 of the root), far above
    the float error, and checked exactly: it overshoots by a relative
    2^-40 times the root's bit length or so, and a few quadratic steps
    finish.  Should the check fail, the start is the power of two above
    the root, from which the descent takes about k ln 2 steps.
    """
    if a < 0 or k < 1:
        raise ValueError("iroot_floor needs a >= 0, k >= 1")
    if a == 0:
        return 0
    shift = max(0, a.bit_length() - 53)
    log2_root = (math.log2(a >> shift) + shift) / k
    log2_root += (log2_root + 1) * 2.0**-40
    e = max(0, math.floor(log2_root) - 52)
    x = math.ceil(2.0 ** (log2_root - e)) << e
    if x**k < a:
        x = 1 << -(-a.bit_length() // k)
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > a:
        x -= 1
    return x


def _scaled_root(x: Fraction, k: int, bits: int) -> Tuple[int, int, int]:
    """(floor(a^(1/k)), a, d) with x^(1/k) = a^(1/k)/d: for x = p/q,
    a = p q^(k-1) 2^(bits k) and d = q 2^bits, so that the integer root
    carries >= `bits` significant bits."""
    if x < 0:
        raise ValueError(f"a k-th root needs x >= 0, not {x}")
    radicand = x.numerator * x.denominator ** (k - 1) << bits * k
    return iroot_floor(radicand, k), radicand, x.denominator << bits


def nth_root_lower(x: Fraction, k: int, bits: int = 64) -> Fraction:
    """Rational r with r <= x**(1/k) < r * (1 + 2**(1-bits)), for x >= 0."""
    m, _, den = _scaled_root(x, k, bits)
    return Fraction(m, den)


def nth_root_upper(x: Fraction, k: int, bits: int = 64) -> Fraction:
    """Rational r with x**(1/k) <= r <= x**(1/k) * (1 + 2**(1-bits)).

    Exact (r**k == x) whenever x is the k-th power of a rational.
    """
    m, radicand, den = _scaled_root(x, k, bits)
    return Fraction(m + (m**k != radicand), den)


# ---------------------------------------------------------------------------
# dyadic rounding
# ---------------------------------------------------------------------------


def dyadic_floor(x: Fraction, bits: int = 64) -> Fraction:
    """Largest dyadic rational m/2^s <= x with about `bits` significant bits.

    For x > 0 the result r satisfies x * (1 - 2**(1-bits)) <= r <= x.
    Used to keep geometric iterates (t <- t/f) at bounded size.
    """
    if x < 0:
        return -dyadic_ceil(-x, bits)
    shift = bits - (x.numerator.bit_length() - x.denominator.bit_length())
    if shift <= 0:
        grid = 1 << -shift
        return Fraction((x.numerator // (x.denominator * grid)) * grid)
    return Fraction((x.numerator << shift) // x.denominator, 1 << shift)


def dyadic_ceil(x: Fraction, bits: int = 64) -> Fraction:
    """Smallest dyadic rational >= x with about `bits` significant bits."""
    if x < 0:
        return -dyadic_floor(-x, bits)
    shift = bits - (x.numerator.bit_length() - x.denominator.bit_length())
    if shift <= 0:
        shift = 1
    return Fraction(-((-(x.numerator << shift)) // x.denominator), 1 << shift)


# ---------------------------------------------------------------------------
# certified transcendental bounds (mpmath interval arithmetic)
# ---------------------------------------------------------------------------


#: the module's own interval context: each bound sets its precision, so
#: mpmath's global ``mpmath.iv`` is never read or written
_IV = mpmath.ctx_iv.MPIntervalContext()


def _iv_from_fraction(x: Fraction):
    return _IV.mpf(x.numerator) / _IV.mpf(x.denominator)


def _iv_endpoints(value) -> Tuple[Fraction, Fraction]:
    a_raw, b_raw = value._mpi_
    pa, qa = to_rational(a_raw)
    pb, qb = to_rational(b_raw)
    return Fraction(int(pa), int(qa)), Fraction(int(pb), int(qb))


def ln_bounds(x: Fraction, prec: int = _PREC) -> Tuple[Fraction, Fraction]:
    """Certified rational (lo, hi) with lo <= ln(x) <= hi, x > 0."""
    if x <= 0:
        raise ValueError("ln_bounds needs x > 0")
    _IV.prec = prec
    return _iv_endpoints(_IV.log(_iv_from_fraction(x)))


def cos_pi_bounds(r: Fraction) -> Tuple[Fraction, Fraction]:
    """Certified rational (lo, hi) with lo <= cos(pi * r) <= hi.

    Angles are exact rational multiples of pi, so the only rounding is in
    the interval evaluation itself.
    """
    # reduce mod 2 first: cos(pi r) has period 2 and huge multiples of pi
    # would needlessly inflate the interval
    r = Fraction(r.numerator % (2 * r.denominator), r.denominator)
    _IV.prec = _PREC
    lo, hi = _iv_endpoints(_IV.cos(_IV.pi * _iv_from_fraction(r)))
    return max(lo, Fraction(-1)), min(hi, Fraction(1))


def le_ln(k: Fraction, n: int) -> bool:
    """Decide k <= ln(n) exactly (k rational, n >= 1 integer).

    Equality k == ln(n) is impossible for rational k != 0 and integer
    n >= 2 (ln n is transcendental), so refinement always terminates;
    ln(1) = 0 comes back as the exact interval [0, 0].
    """
    if n < 1:
        raise ValueError("le_ln needs n >= 1")
    prec = _PREC
    while prec <= _MAX_PREC:
        lo, hi = ln_bounds(Fraction(n), prec)
        if k <= lo:
            return True
        if k > hi:
            return False
        prec *= 2
    raise ArithmeticError(f"could not separate {k} from ln({n})")  # pragma: no cover


def ln_upper_dyadic(n: int) -> Fraction:
    """Dyadic upper bound on ln(n), within 2**-24 of the true value."""
    _, hi = ln_bounds(Fraction(n), prec=64)
    return dyadic_ceil(hi, 32)
