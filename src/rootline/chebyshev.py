"""Chebyshev polynomials of the first kind, exactly.

T_0 = 1, T_1 = x, T_{n+1} = 2x T_n - T_{n-1}.  Coefficients are integers
(leading coefficient 2^(k-1) for k >= 1).  Two independent evaluation
paths exist on purpose: the coefficient expansion and the three-term
recurrence at a point must agree, and the test suite checks that they do.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from rootline.poly import ExactPolynomial
from rootline.ratutil import RationalLike, to_fraction


@lru_cache(maxsize=None)
def _cheb_coeffs(k: int) -> Tuple[int, ...]:
    if k == 0:
        return (1,)
    prev2: List[int] = [1]
    prev1: List[int] = [0, 1]
    for _ in range(2, k + 1):
        cur = [0] + [2 * c for c in prev1]
        for i, c in enumerate(prev2):
            cur[i] -= c
        prev2, prev1 = prev1, cur
    return tuple(prev1)


def cheb_poly(k: int) -> ExactPolynomial:
    """The k-th Chebyshev polynomial as an exact integer polynomial."""
    if k < 0:
        raise ValueError("Chebyshev index must be >= 0")
    return ExactPolynomial(_cheb_coeffs(k))


def cheb_eval(k: int, x: RationalLike) -> Fraction:
    """T_k(x) by the three-term recurrence at the point; O(k) operations.

    Never expands coefficients, so it stays cheap for large k at simple
    rational points.
    """
    if k < 0:
        raise ValueError("Chebyshev index must be >= 0")
    x = to_fraction(x)
    if k == 0:
        return Fraction(1)
    t_prev, t_cur = Fraction(1), x
    for _ in range(k - 1):
        t_prev, t_cur = t_cur, 2 * x * t_cur - t_prev
    return t_cur
