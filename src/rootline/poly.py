"""Dense univariate polynomials over exact rationals.

``ExactPolynomial`` stores coefficients in ascending degree order and is
the value the package hands across its interfaces: characteristic
polynomials, Chebyshev polynomials and every generated lower-bound
instance leave as one.  It does no polynomial arithmetic; the
constructions build integer coefficient lists and divide by the lead
once.  The zero polynomial is the empty coefficient list and has degree
-1.

Characteristic polynomials are taken of symmetric integer matrices,
given as rows, by one kernel: exact numpy batches of the traces of
A^i, i = 1..n, in a type chosen from a bound on every number formed,
then Newton's identities on Python integers.  The switching-class
scans of ``graphs`` run the same batches over many matrices at once; a
single matrix is a batch of one.  No Fraction arithmetic is done:
callers with rational entries scale them to integers first.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Tuple

import numpy as np

from rootline.ratutil import RationalLike, format_rational, to_fraction


class ExactPolynomial:
    """Immutable dense polynomial with Fraction coefficients, a value type:
    it holds, compares, hashes and serializes coefficients and does no
    arithmetic.  Constructions run on integers and become Fractions once.

    >>> p = ExactPolynomial([-2, 0, 2])   # 2x^2 - 2
    >>> p.degree
    2
    >>> p.monic().coeffs
    (Fraction(-1, 1), Fraction(0, 1), Fraction(1, 1))
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = [to_fraction(c) if not isinstance(c, Fraction) else c for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def monic(self) -> "ExactPolynomial":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading
        if lead == 1:
            return self
        return ExactPolynomial([c / lead for c in self.coeffs])

    # -- comparisons / hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "ExactPolynomial(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "ExactPolynomial(" + " + ".join(terms) + ")"

    # -- JSON wire format ----------------------------------------------

    def to_json_dict(self) -> dict:
        return {"coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExactPolynomial":
        if not isinstance(d, dict) or not isinstance(d.get("coeffs"), list):
            raise ValueError('a polynomial is a JSON object {"coeffs": [...]}')
        return cls(d["coeffs"])


# ---------------------------------------------------------------------------
# characteristic polynomials of integer matrices
# ---------------------------------------------------------------------------


def _batch_traces(mats: np.ndarray, k: int) -> np.ndarray:
    """traces[i-1, b] = trace(mats[b]^i) for i = 1..k.

    `mats` holds symmetric integer matrices in float64, int64 or object
    (Python integers), within the bound of `sign_invariance_report` for
    that type.  float64 traces are returned as int64; the other types
    are returned as they are.
    """
    out = np.empty((k, mats.shape[0]), dtype=mats.dtype)
    out[0] = np.einsum("bii->b", mats)
    # symmetric factors: trace(A^(2j-1)) = sum(A^j * A^(j-1)) and
    # trace(A^(2j)) = sum(A^j * A^j), so two powers are held at a time
    power = mats
    for i in range(2, k + 1):
        if i % 2:
            prev, power = power, np.matmul(power, mats)
            out[i - 1] = np.einsum("bij,bij->b", power, prev)
        else:
            out[i - 1] = np.einsum("bij,bij->b", power, power)
    return out.astype(np.int64) if out.dtype == np.float64 else out


def _exact_dtype(bound: int):
    """The batch type that holds every integer of absolute value <= bound
    exactly: float64, int64, or object for Python integers."""
    if bound < 2**53:
        return np.float64
    if bound < 2**62:
        return np.int64
    return object


def _char_poly_from_traces(p: Sequence[int]) -> Tuple[int, ...]:
    """det(xI - A) descending, from p_i = trace(A^i), i = 1..n.

    Newton's identities for the coefficients c_0 = 1, c_1, ..., c_n:
    k * c_k = -(c_(k-1) p_1 + c_(k-2) p_2 + ... + c_0 p_k).
    """
    c = [1]
    for k in range(1, len(p) + 1):
        q, r = divmod(-sum(map(mul, reversed(c), p)), k)
        if r:
            raise AssertionError(f"power sums give a non-integral coefficient at x^{len(p) - k}")
        c.append(q)
    return tuple(c)


def char_poly_int_rows(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """det(xI - A) coefficients, descending, of a symmetric integer matrix.

    The traces of A^i, i = 1..n, come from a batch of one in the type
    `_exact_dtype` picks for n * rho^n, rho the largest absolute row
    sum: the bound of `sign_invariance_report` at k = n, so every trace
    is exact.  Newton's identities then give the coefficients.
    """
    n = len(rows)
    if n == 0:
        return (1,)
    rho = max(sum(map(abs, row)) for row in rows)
    batch = np.array([rows], dtype=_exact_dtype(n * rho**n))
    return _char_poly_from_traces(_batch_traces(batch, n)[:, 0].tolist())


def char_poly(rows: Sequence[Sequence[int]]) -> ExactPolynomial:
    """Exact characteristic polynomial det(xI - A) of a symmetric integer
    matrix, given as rows; monic of degree n.

    Sign convention: det(xI - A) = sum_k (-1)^k sigma_k(A) x^(n-k) where
    sigma_k is the sum of all principal k-by-k minors.  Rational entries
    are the caller's to clear: for a common denominator L, the x^(n-k)
    coefficient for A is that for L*A divided by L^k.
    """
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    if any(rows[i][j] != rows[j][i] for i in range(len(rows)) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    return ExactPolynomial(reversed(char_poly_int_rows(rows)))
