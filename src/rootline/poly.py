"""Dense univariate polynomials over exact rationals.

``ExactPolynomial`` stores coefficients in ascending degree order and is
the value the package hands across its interfaces: characteristic
polynomials, Chebyshev polynomials and every generated lower-bound
instance leave as one.  It does no polynomial arithmetic; the
constructions build integer coefficient lists and divide by the lead
once.  The zero polynomial is the empty coefficient list and has degree
-1.

Characteristic polynomials are taken of integer matrices, given as rows,
by the Samuelson-Berkowitz scheme: it is division free, so every
intermediate value is an integer and no Fraction arithmetic is done.
Callers with rational entries scale them to integers first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

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

    def truncate_top(self, k: int) -> Tuple[Fraction, ...]:
        """The k coefficients after the leading one, descending.

        For a monic chi(x) = x^n + c_1 x^(n-1) + ... this is (c_1..c_k).
        """
        if self.is_zero:
            raise ValueError("zero polynomial has no top coefficients")
        n = self.degree
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= degree, got k={k}, degree={n}")
        return tuple(self.coeff(n - i) for i in range(1, k + 1))

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


def char_poly_int_rows(rows: Sequence[Sequence[int]]) -> List[int]:
    """det(xI - A) coefficients, descending, by Samuelson-Berkowitz.

    Division free, so integer rows stay integers throughout.
    """
    n = len(rows)
    if n == 0:
        return [1]
    vec = [1, -rows[0][0]]
    for r in range(1, n):
        a = rows[r][r]
        row = rows[r][:r]
        col = [rows[i][r] for i in range(r)]
        # s = [1, -a, -R.C, -R.A'C, -R.A'^2 C, ...], length r+2
        s = [1, -a]
        w = col
        for j in range(2, r + 2):
            s.append(-sum(x * y for x, y in zip(row, w)))
            if j < r + 1:
                w = [sum(rows[i][t] * w[t] for t in range(r)) for i in range(r)]
        new_vec = []
        for i in range(r + 2):
            acc = 0
            lo = max(0, i - len(s) + 1)
            for j in range(lo, min(i, r) + 1):
                acc += s[i - j] * vec[j]
            new_vec.append(acc)
        vec = new_vec
    return vec


def char_poly(rows: Sequence[Sequence[int]]) -> ExactPolynomial:
    """Exact characteristic polynomial det(xI - A) of a square integer
    matrix, given as rows; monic of degree n.

    Sign convention: det(xI - A) = sum_k (-1)^k sigma_k(A) x^(n-k) where
    sigma_k is the sum of all principal k-by-k minors.  Rational entries
    are the caller's to clear: for a common denominator L, the x^(n-k)
    coefficient for A is that for L*A divided by L^k.
    """
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    return ExactPolynomial(reversed(char_poly_int_rows(rows)))
