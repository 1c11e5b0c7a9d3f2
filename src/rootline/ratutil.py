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
from contextlib import contextmanager
from fractions import Fraction
from typing import Tuple, Union

import mpmath
from mpmath.libmp import to_rational

RationalLike = Union[int, str, Fraction]

#: Interval endpoints below this width are considered decided for the
#: transcendental comparison helpers.
_MAX_PREC = 1 << 14


def to_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise ValueError(f"not an exact rational: {x!r} (floats are refused)")


def parse_rational(s: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (no decimal points allowed)."""
    s = s.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"decimal notation is not exact: {s!r}")
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator: {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(x: Fraction) -> str:
    """Canonical wire form ``"p/q"`` (denominator always present)."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def decimal_render(x: Fraction, digits: int = 12) -> str:
    """Human-oriented decimal rendering; never authoritative."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    x = abs(x)
    ipart = x.numerator // x.denominator
    rem = x - ipart
    scaled = (rem.numerator * 10**digits) // rem.denominator
    frac_digits = str(scaled).rjust(digits, "0").rstrip("0")
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
    if k == 1:
        return a
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


def nth_root_lower(x: Fraction, k: int, bits: int = 64) -> Fraction:
    """Rational r with r <= x**(1/k) < r * (1 + 2**(1-bits)), for x >= 0."""
    if x < 0:
        raise ValueError("nth_root_lower needs x >= 0")
    if x == 0:
        return Fraction(0)
    # (p/q)^(1/k) = (p q^(k-1))^(1/k) / q; scale so the integer root
    # carries >= `bits` significant bits.
    p, q = x.numerator, x.denominator
    scale = 1 << bits
    m = iroot_floor(p * q ** (k - 1) * scale**k, k)
    return Fraction(m, q * scale)


def nth_root_upper(x: Fraction, k: int, bits: int = 64) -> Fraction:
    """Rational r with x**(1/k) <= r <= x**(1/k) * (1 + 2**(1-bits)).

    Exact (r**k == x) whenever x is the k-th power of a rational.
    """
    if x < 0:
        raise ValueError("nth_root_upper needs x >= 0")
    if x == 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    scale = 1 << bits
    radicand = p * q ** (k - 1) * scale**k
    m = iroot_floor(radicand, k)
    if m**k != radicand:
        m += 1
    return Fraction(m, q * scale)


def sqrt_upper(x: Fraction, bits: int = 64) -> Fraction:
    return nth_root_upper(x, 2, bits)


# ---------------------------------------------------------------------------
# dyadic rounding
# ---------------------------------------------------------------------------


def dyadic_floor(x: Fraction, bits: int = 64) -> Fraction:
    """Largest dyadic rational m/2^s <= x with about `bits` significant bits.

    For x > 0 the result r satisfies x * (1 - 2**(1-bits)) <= r <= x.
    Used to keep geometric iterates (t <- t/f) at bounded size.
    """
    if x == 0:
        return Fraction(0)
    if x < 0:
        return -dyadic_ceil(-x, bits)
    shift = bits - (x.numerator.bit_length() - x.denominator.bit_length())
    if shift <= 0:
        grid = 1 << -shift
        return Fraction((x.numerator // (x.denominator * grid)) * grid)
    return Fraction((x.numerator << shift) // x.denominator, 1 << shift)


def dyadic_ceil(x: Fraction, bits: int = 64) -> Fraction:
    """Smallest dyadic rational >= x with about `bits` significant bits."""
    if x == 0:
        return Fraction(0)
    if x < 0:
        return -dyadic_floor(-x, bits)
    shift = bits - (x.numerator.bit_length() - x.denominator.bit_length())
    if shift <= 0:
        shift = 1
    return Fraction(-((-(x.numerator << shift)) // x.denominator), 1 << shift)


# ---------------------------------------------------------------------------
# certified transcendental bounds (mpmath interval arithmetic)
# ---------------------------------------------------------------------------


def _iv_from_fraction(ctx, x: Fraction):
    return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)


def _iv_endpoints(value) -> Tuple[Fraction, Fraction]:
    a_raw, b_raw = value._mpi_
    pa, qa = to_rational(a_raw)
    pb, qb = to_rational(b_raw)
    return Fraction(int(pa), int(qa)), Fraction(int(pb), int(qb))


@contextmanager
def _with_prec(prec: int):
    """mpmath's interval context at ``prec`` bits, its previous precision
    put back on exit (``mpmath.iv`` has no ``workprec``)."""
    ctx = mpmath.iv
    saved = ctx.prec
    ctx.prec = prec
    try:
        yield ctx
    finally:
        ctx.prec = saved


def ln_bounds(x: Fraction, prec: int = 96) -> Tuple[Fraction, Fraction]:
    """Certified rational (lo, hi) with lo <= ln(x) <= hi, x > 0."""
    if x <= 0:
        raise ValueError("ln_bounds needs x > 0")
    with _with_prec(prec) as ctx:
        return _iv_endpoints(ctx.log(_iv_from_fraction(ctx, x)))


def cos_pi_bounds(r: Fraction, prec: int = 96) -> Tuple[Fraction, Fraction]:
    """Certified rational (lo, hi) with lo <= cos(pi * r) <= hi.

    Angles are exact rational multiples of pi, so the only rounding is in
    the interval evaluation itself.
    """
    # reduce mod 2 first: cos(pi r) has period 2 and huge multiples of pi
    # would needlessly inflate the interval
    r = Fraction(r.numerator % (2 * r.denominator), r.denominator)
    with _with_prec(prec) as ctx:
        lo, hi = _iv_endpoints(ctx.cos(ctx.pi * _iv_from_fraction(ctx, r)))
    return max(lo, Fraction(-1)), min(hi, Fraction(1))


def le_ln(k: Fraction, n: int, prec: int = 96) -> bool:
    """Decide k <= ln(n) exactly (k rational, n >= 1 integer).

    Equality k == ln(n) is impossible for rational k != 0 and integer
    n >= 2 (ln n is transcendental), so refinement always terminates.
    """
    if n < 1:
        raise ValueError("le_ln needs n >= 1")
    if n == 1:
        return k <= 0
    k = Fraction(k)
    while prec <= _MAX_PREC:
        lo, hi = ln_bounds(Fraction(n), prec)
        if k <= lo:
            return True
        if k > hi:
            return False
        prec *= 2
    raise ArithmeticError(f"could not separate {k} from ln({n})")  # pragma: no cover


def ln_upper_dyadic(n: int, bits: int = 24) -> Fraction:
    """Dyadic upper bound on ln(n), within 2**-bits of the true value."""
    _, hi = ln_bounds(Fraction(n), prec=bits + 40)
    return dyadic_ceil(hi, bits + 8)
