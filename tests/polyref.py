"""Reference polynomial arithmetic over Fractions, for the tests only.

``ExactPolynomial`` is a value type without arithmetic; the library builds
its polynomials on integers.  ``RefPolynomial`` adds the textbook Fraction
operations (``+ - * **``, evaluation, composition, scaling and the affine
root map) so that tests can state what those integer builds must equal.
It compares equal to an ``ExactPolynomial`` with the same coefficients.
"""

from fractions import Fraction

from rootline.poly import ExactPolynomial
from rootline.ratutil import to_fraction


class RefPolynomial(ExactPolynomial):
    __slots__ = ()

    @classmethod
    def of(cls, p: ExactPolynomial) -> "RefPolynomial":
        return cls(p.coeffs)

    @classmethod
    def zero(cls) -> "RefPolynomial":
        return cls([])

    @classmethod
    def one(cls) -> "RefPolynomial":
        return cls([1])

    @classmethod
    def x(cls) -> "RefPolynomial":
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots) -> "RefPolynomial":
        """Monic polynomial with the given rational roots."""
        p = cls.one()
        for r in roots:
            p = p * cls([-to_fraction(r), 1])
        return p

    def __add__(self, other: ExactPolynomial) -> "RefPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPolynomial(out)

    def __neg__(self) -> "RefPolynomial":
        return RefPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: ExactPolynomial) -> "RefPolynomial":
        return self + (-RefPolynomial.of(other))

    def __mul__(self, other) -> "RefPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RefPolynomial.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RefPolynomial(out)

    __rmul__ = __mul__

    def scale(self, c) -> "RefPolynomial":
        c = to_fraction(c)
        return RefPolynomial([c * a for a in self.coeffs])

    def __pow__(self, e: int) -> "RefPolynomial":
        if e < 0:
            raise ValueError("negative powers are not polynomials")
        result = RefPolynomial.one()
        for _ in range(e):
            result = result * self
        return result

    def __call__(self, x) -> Fraction:
        x = to_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: ExactPolynomial) -> "RefPolynomial":
        """self(inner(x)), by Horner over polynomials."""
        acc = RefPolynomial.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + RefPolynomial([c])
        return acc

    def shift_scale(self, a, b) -> "RefPolynomial":
        """Map the root multiset mu -> a*mu + b, a != 0, keeping the lead.

        Substitutes x -> (x - b)/a and multiplies by a^deg.
        """
        a, b = to_fraction(a), to_fraction(b)
        if a == 0:
            raise ValueError("shift_scale requires a != 0")
        if self.is_zero:
            return self
        n = self.degree
        if b == 0:
            return RefPolynomial([c * a ** (n - i) for i, c in enumerate(self.coeffs)])
        return self.compose(RefPolynomial([-b / a, 1 / a])).scale(a**n)

    def monic(self) -> "RefPolynomial":
        return RefPolynomial.of(super().monic())
