import math
import random
from fractions import Fraction as F

import pytest

from rootline import ratutil
from rootline.ratutil import (
    cos_pi_bounds,
    decimal_render,
    dyadic_ceil,
    dyadic_floor,
    format_rational,
    iroot_floor,
    le_ln,
    ln_bounds,
    ln_upper_dyadic,
    nth_root_lower,
    nth_root_upper,
    parse_rational,
    to_fraction,
)


def test_parse_and_format():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-5") == F(-5)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(5)) == "5/1"
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize("text", ["1_000/3", "\u0661/\u0662", " 3/4", "3 / 4", "3/4\n", "+3",
                                  "1/-2", "-1/-2", "--1", "1/", "/2", "", "-", "0.5", "1e3",
                                  "0x10", "1/2/3"])
def test_parse_rational_reads_one_spelling(text):
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(text)


def test_to_fraction_refuses_floats():
    # a ValueError, so the CLI reports malformed input with exit status 2
    with pytest.raises(ValueError):
        to_fraction(0.5)
    with pytest.raises(ValueError, match="True"):
        to_fraction(True)  # JSON true is not a spelling of 1


def test_decimal_render():
    assert decimal_render(F(0)) == "0"
    assert decimal_render(F(3, 4)) == "0.75"
    assert decimal_render(F(-7, 2)) == "-3.5"


def test_iroot_floor():
    assert iroot_floor(0, 3) == 0
    assert iroot_floor(26, 3) == 2
    assert iroot_floor(27, 3) == 3
    assert iroot_floor(2**100 - 1, 10) == 2**10 - 1
    big = 12345678901234567890
    r = iroot_floor(big, 7)
    assert r**7 <= big < (r + 1) ** 7


class _CountingInt(int):
    """An int that counts the floor divisions it is the dividend of: one
    per Newton step of ``iroot_floor``."""

    steps = 0

    def __floordiv__(self, other):
        _CountingInt.steps += 1
        return int(self) // other


def _iroot_bisect(a, k):
    lo, hi = 0, 1 << (a.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= a:
            lo = mid
        else:
            hi = mid
    return lo


def _radicands():
    """(a, k, floor(a^(1/k))): seeded radicands of up to 20,000 bits, each
    with the exact power just below it and the neighbours of both."""
    rng = random.Random(20)
    for bits in (1, 2, 52, 53, 54, 64, 200, 1000, 5000, 20000):
        for k in (2, 3, 5, 16, 63, 64, 255, 256):
            a = rng.getrandbits(bits) | 1 << (bits - 1)
            r = _iroot_bisect(a, k)
            yield a, k, r
            yield r**k, k, r
            yield r**k - 1, k, r - 1
            yield (r + 1) ** k - 1, k, r


def test_iroot_floor_matches_bisection_in_few_steps():
    for a, k, root in _radicands():
        _CountingInt.steps = 0
        assert iroot_floor(_CountingInt(a), k) == root, (a.bit_length(), k)
        assert _CountingInt.steps <= 12, (a.bit_length(), k, _CountingInt.steps)


def test_iroot_floor_without_a_usable_estimate(monkeypatch):
    # a float estimate far below the root fails the exact check and the
    # power-of-two start takes over
    monkeypatch.setattr(ratutil.math, "log2", lambda v: 0.0)
    for a, k in [(2**100 - 1, 10), (3**500, 7), (12345678901234567890, 2)]:
        assert iroot_floor(a, k) == _iroot_bisect(a, k)


def test_nth_root_bounds_direction():
    for x, k in ((F(2), 2), (F(30, 4), 2), (F(100, 7), 5)):
        lo = nth_root_lower(x, k)
        hi = nth_root_upper(x, k)
        assert lo**k <= x <= hi**k
        assert hi <= lo * (1 + F(1, 2**60))


def test_nth_root_exact_on_perfect_powers():
    assert nth_root_lower(F(16), 2) == 4
    assert nth_root_upper(F(16), 2) == 4
    assert nth_root_upper(F(27, 8), 3) == F(3, 2)
    assert nth_root_lower(F(1), 2) == nth_root_upper(F(1), 2) == 1
    assert nth_root_lower(F(0), 3) == nth_root_upper(F(0), 3) == 0


def test_dyadic_rounding():
    for x in (F(7, 3), F(1, 3), F(12345, 991), F(2) ** 70 + F(1, 3)):
        lo = dyadic_floor(x, 64)
        hi = dyadic_ceil(x, 64)
        assert lo <= x <= hi
        assert lo > x * (1 - F(1, 2**62))
        assert hi < x * (1 + F(1, 2**62))
        assert dyadic_floor(-x, 64) == -dyadic_ceil(x, 64)
    assert dyadic_floor(F(0), 64) == dyadic_ceil(F(0), 64) == 0


def test_ln_bounds():
    # ln 16 = 2.7725887222397812376... (straddled at 16 digits)
    lo, hi = ln_bounds(F(16))
    assert F(27725887222397812, 10**16) < hi
    assert lo < F(27725887222397813, 10**16)
    assert hi - lo < F(1, 2**60)


def test_cos_pi_bounds_algebraic_points():
    lo, hi = cos_pi_bounds(F(1, 3))
    assert lo <= F(1, 2) <= hi and hi - lo < F(1, 2**80)
    lo, hi = cos_pi_bounds(F(1, 2))
    assert lo <= 0 <= hi
    lo, hi = cos_pi_bounds(F(1))
    assert lo == -1 and hi >= -1
    # period reduction: cos(7 pi) = cos(pi)
    lo7, hi7 = cos_pi_bounds(F(7))
    assert lo7 <= -1 <= hi7 + F(1, 2**70)


def test_le_ln_decides_exactly():
    assert le_ln(F(2), 8)       # ln 8 = 2.079...
    assert not le_ln(F(2), 7)   # ln 7 = 1.945...
    assert le_ln(F(1), 3)
    assert not le_ln(F(1), 2)
    assert le_ln(F(0), 1)
    assert not le_ln(F(1, 10**30), 1)
    # a very tight rational just below ln(2): 0.693147180559945 < ln 2
    assert le_ln(F(693147180559945, 10**15), 2)
    assert not le_ln(F(693147180559946, 10**15), 2)


def test_math_agreement_smoke():
    # certified bounds sit around the float values (sanity, not authority)
    for n in (2, 10, 1000):
        lo, hi = ln_bounds(F(n))
        assert float(lo) <= math.log(n) <= float(hi)


@pytest.mark.parametrize("bound", [
    lambda: ln_bounds(F(3)),
    lambda: cos_pi_bounds(F(1, 3)),
    lambda: ln_upper_dyadic(256),
], ids=["ln_bounds", "cos_pi_bounds", "ln_upper_dyadic"])
def test_bounds_leave_mpmath_precision_unchanged(bound):
    import mpmath

    saved = mpmath.iv.prec
    try:
        mpmath.iv.prec = 77
        bound()
        assert mpmath.iv.prec == 77
    finally:
        mpmath.iv.prec = saved
