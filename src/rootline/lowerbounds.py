"""Coefficient-matched polynomial pairs with certified max-root gaps.

Each generator returns a ``LowerBoundPair``: two monic real-rooted
polynomials of equal degree that agree on their top k coefficients yet
have provably different largest roots.  The certified ratio_lower is a
rational lower bound on lambda_max(q)/lambda_max(p), backed by exact
root isolation (plus exact rational-threshold certificates where the
spectra allow them).

Four constructions:

* ``weak_pair``    -- Chebyshev T_n(x-1) +- 1; k = n-1 matched.
* ``girth_pair``   -- eigenvalues of two signings of a high-girth graph,
                      raised to an even power; signing-independence of
                      trace powers below the girth does the matching.
* ``boosted_pair`` -- composition with T_t multiplies the matched count.
* ``noisy_pair``   -- 2 T_k^2 and T_(2k): all coefficients equal except
                      one, which differs by a factor below 1 + 4/2^(2k),
                      yet the largest roots differ by 1 + Theta(1/k^2).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from rootline.chebyshev import _cheb_coeffs, cheb_eval
from rootline.graphs import (
    Graph,
    Signing,
    avg_degree_bound,
    best_signing_search,
    girth,
    matrix_power,
    signed_adjacency,
)
from rootline.isolation import (
    PolyLike,
    _int_poly,
    _shift_int,
    compare_roots,
    max_root,
    max_root_geq,
    max_root_leq,
    separated_roots,
)
from rootline.poly import ExactPolynomial, char_poly
from rootline.ratutil import cos_pi_bounds, format_rational, to_fraction
from rootline.symfuncs import SymmetricProfile, profile_from_polynomial, profiles_equal_up_to_k

_RATIO_WIDTH = Fraction(1, 2**48)

#: the largest degree a generator builds or a pair file may hold; a larger
#: one is refused before anything is allocated
DEGREE_BUDGET = 1024

PROVENANCES = ("weak", "girth", "boosted", "noisy")


@dataclass
class LowerBoundPair:
    """Two monic degree-n polynomials matching on k leading coefficients.

    ratio_lower certifies lambda_max(q) >= ratio_lower * lambda_max(p).
    """

    p: ExactPolynomial
    q: ExactPolynomial
    k: int
    ratio_lower: Fraction
    provenance: str
    certificate: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def truncated_profiles(self) -> Tuple[SymmetricProfile, SymmetricProfile]:
        """The two top-k coefficient views; equal by construction."""
        return (profile_from_polynomial(self.p, self.k), profile_from_polynomial(self.q, self.k))

    def to_json_dict(self) -> dict:
        return {
            "p": self.p.to_json_dict(),
            "q": self.q.to_json_dict(),
            "k": self.k,
            "ratio_lower": format_rational(self.ratio_lower),
            "provenance": self.provenance,
            "certificate": self.certificate,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LowerBoundPair":
        if not (isinstance(d, dict) and type(d.get("k")) is int
                and isinstance(d.get("provenance"), str)
                and isinstance(d.get("certificate", {}), dict)):
            raise ValueError('a pair is a JSON object {"p": ..., "q": ..., "k": int, '
                             '"ratio_lower": "p/q", "provenance": ..., "certificate": {...}}')
        for name in ("p", "q"):  # before any coefficient is read
            coeffs = d[name].get("coeffs") if isinstance(d.get(name), dict) else None
            if isinstance(coeffs, list):
                _check_degree(len(coeffs) - 1)
        return cls(
            p=ExactPolynomial.from_json_dict(d["p"]),
            q=ExactPolynomial.from_json_dict(d["q"]),
            k=d["k"],
            ratio_lower=to_fraction(d["ratio_lower"]),
            provenance=d["provenance"],
            certificate=dict(d.get("certificate", {})),
        )


def _max_root_bounds(p: PolyLike) -> Tuple[Fraction, Fraction]:
    r = max_root(p, _RATIO_WIDTH)
    if r is None:
        raise ValueError("polynomial has no real roots")
    return r.lo, r.hi


def certified_ratio_lower(p: PolyLike, q: PolyLike) -> Fraction:
    """Rational r with lambda_max(q)/lambda_max(p) >= r, from isolation."""
    _, p_hi = _max_root_bounds(p)
    q_lo, _ = _max_root_bounds(q)
    if p_hi <= 0:
        raise ValueError("ratio certificate needs lambda_max(p) > 0")
    return q_lo / p_hi


def matched_coefficient_count(p: ExactPolynomial, q: ExactPolynomial) -> int:
    """Number of leading coefficients (after the lead) that agree exactly."""
    if p.degree != q.degree:
        raise ValueError("degrees differ")
    n = p.degree
    for j in range(1, n + 1):
        if p.coeff(n - j) != q.coeff(n - j):
            return j - 1
    return n


def _cheb_affine(k: int, u: int, v: int, den: int = 1) -> List[int]:
    """Ascending integer coefficients of den^k T_k((u + v x)/den).

    With T_k(y) = sum_i a_i y^i this is g(u + v x) for the integer
    polynomial g(z) = sum_i a_i den^(k-i) z^i: scale, Taylor-shift by u,
    then multiply the coefficient of x^j by v^j.
    """
    g = [a * den ** (k - i) for i, a in enumerate(_cheb_coeffs(k))]
    return [c * v**j for j, c in enumerate(_shift_int(g, u))]


def _mul_int(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The product of two ascending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _check_degree(degree: int) -> None:
    if degree > DEGREE_BUDGET:
        raise ValueError(f"degree {degree} is above the pair degree budget {DEGREE_BUDGET}")


def _monic(c: List[int], pad: int = 0) -> ExactPolynomial:
    """x^pad c(x) / lead(c), the one place the integer coefficients become
    Fractions."""
    lead = c[-1]
    return ExactPolynomial([Fraction(0)] * pad + [Fraction(v, lead) for v in c])


# ---------------------------------------------------------------------------
# weak pair: T_n(x-1) +- 1
# ---------------------------------------------------------------------------


def weak_pair(n: int) -> LowerBoundPair:
    """The Chebyshev pair matching all but the constant coefficient.

    p has roots 1 + cos((pi + 2 pi i)/n) with largest 1 + cos(pi/n);
    q has roots 1 + cos(2 pi i/n) with largest exactly 2.  The certified
    ratio is 2 / (1 + cos(pi/n)) = 1 + Omega(1/n^2).

    Both are built on integers, T_n(x - 1) as the Taylor shift of T_n's
    coefficients by -1, and divided by the lead 2^(n-1) once at the end.
    """
    if n < 2:
        raise ValueError("weak pair needs n >= 2")
    _check_degree(n)
    shifted = _cheb_affine(n, -1, 1)
    p_int = [shifted[0] + 1] + shifted[1:]
    q_int = [shifted[0] - 1] + shifted[1:]

    # lambda_max(q) = 2 exactly: 2 is a root and T_n(1+x) > 1 for x > 0
    if sum(c << i for i, c in enumerate(q_int)) != 0 or not max_root_leq(q_int, Fraction(2)):
        raise AssertionError("weak pair: top root of q is not 2")
    p, q = _monic(p_int), _monic(q_int)
    p_lo, p_hi = _max_root_bounds(p_int)
    ratio = Fraction(2) / p_hi
    cert = {
        "kind": "weak",
        "n": n,
        "lambda_q": "2/1",
        "lambda_p_interval": [format_rational(p_lo), format_rational(p_hi)],
        "coefficient_gap": format_rational(Fraction(2, 2 ** (n - 1))),
    }
    return LowerBoundPair(p, q, n - 1, ratio, "weak", cert)


# ---------------------------------------------------------------------------
# girth pair: two signings of a high-girth graph, powered
# ---------------------------------------------------------------------------


def girth_pair(g: Graph, power: int) -> LowerBoundPair:
    """nu = spectrum(A_+1^t) vs mu = spectrum(A_best^t), t = power (even).

    Trace powers below the girth are signing-independent, so the two
    spectra share their first floor((girth-1)/t) elementary symmetric
    values while the largest roots differ by roughly
    deg_avg^t / (2 sqrt(deg_max - 1))^t.
    """
    if power < 2 or power % 2 != 0:
        raise ValueError("power must be an even integer >= 2")
    if not g.is_bipartite():
        raise ValueError("girth pair needs a bipartite graph")
    gi = girth(g)
    if gi == float("inf"):
        raise ValueError("girth pair needs a graph with a cycle")
    k = (gi - 1) // power
    if k < 1:
        raise ValueError(f"power {power} leaves no matched statistics below girth {gi}")

    best = best_signing_search(g)
    q = char_poly(matrix_power(signed_adjacency(g, Signing.all_plus(g)), power))
    p = char_poly(matrix_power(signed_adjacency(g, best.signing), power))

    prof_p, prof_q = profile_from_polynomial(p, k), profile_from_polynomial(q, k)
    if not profiles_equal_up_to_k(prof_p, prof_q):
        raise AssertionError("girth pair: trace-power matching failed")

    ratio = certified_ratio_lower(p, q)
    cert: Dict = {
        "kind": "girth",
        "power": power,
        "girth": gi,
        "best_signing": list(best.signing.signs),
    }
    # exact integer-threshold certificates sharpen the ratio when they apply
    davg = avg_degree_bound(g)
    dmax = g.max_degree()
    if dmax >= 2:
        nu_floor = davg**power
        mu_ceil = Fraction(4 * (dmax - 1)) ** (power // 2)
        if max_root_geq(q, nu_floor) and max_root_leq(p, mu_ceil):
            cert["nu_max_at_least"] = format_rational(nu_floor)
            cert["mu_max_at_most"] = format_rational(mu_ceil)
            ratio = max(ratio, nu_floor / mu_ceil)
    return LowerBoundPair(p, q, k, ratio, "girth", cert)


# ---------------------------------------------------------------------------
# boosted pair: composition with T_t
# ---------------------------------------------------------------------------


def _min_root_geq(c: List[int], a: Fraction) -> bool:
    """Every real root of the integer polynomial c is >= a."""
    return max_root_leq([v if i % 2 == 0 else -v for i, v in enumerate(c)], -a)


def boosted_pair(base: LowerBoundPair, t: int) -> LowerBoundPair:
    """Compose a rescaled pair with T_t, then shift roots by +1.

    The base is scaled so lambda_max(q) = 1 (which must be rational);
    composing with T_t multiplies the matched-coefficient count by about
    t, verified here by direct comparison rather than trusted.  When the
    scaled p stays below 1/2 the classical ratio 2/(1 + cos(pi/3t)) is
    certified; otherwise the ratio comes from root isolation alone.

    Built on integers: for lambda = u/v the rescaled c(x) is
    sum_i c_i u^i v^(n-i) x^i, composed by Horner with the integer
    T_t(x - 1) and divided by its lead once.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    _check_degree(max(base.p.degree, base.q.degree) * t)
    top = max_root(base.q, Fraction(1, 2**20))
    if top is None or not top.exact:
        raise ValueError("boosted pair needs an exact rational lambda_max(q) to rescale")
    lam = top.lo
    if lam <= 0:
        raise ValueError("boosted pair needs lambda_max(q) > 0")
    u, v = lam.numerator, lam.denominator
    scaled = []
    for name, poly in (("p", base.p), ("q", base.q)):
        c = _int_poly(poly)
        n = len(c) - 1
        c = [a * u**i * v ** (n - i) for i, a in enumerate(c)]
        if not (max_root_leq(c, Fraction(1)) and _min_root_geq(c, Fraction(0))):
            raise ValueError(f"rescaled {name} has roots outside [0,1]; cannot compose")
        scaled.append(c)

    inner = _cheb_affine(t, -1, 1)
    composed = []
    for c in scaled:
        acc = [c[-1]]
        for a in reversed(c[:-1]):
            acc = _mul_int(acc, inner)
            acc[0] += a
        composed.append(acc)
    P, Q = _monic(composed[0]), _monic(composed[1])
    k_new = matched_coefficient_count(P, Q)
    ratio = certified_ratio_lower(*composed)
    cert: Dict = {
        "kind": "boosted",
        "t": t,
        "base_provenance": base.provenance,
        "base_k": base.k,
        "scale": format_rational(1 / lam),
    }
    if max_root_leq(scaled[0], Fraction(1, 2)):
        # q's top root maps to 2 while p's stays below 1 + cos(pi/3t)
        _, cos_hi = cos_pi_bounds(Fraction(1, 3 * t))
        formula = Fraction(2) / (1 + cos_hi)
        cert["chebyshev_ratio"] = format_rational(formula)
        ratio = max(ratio, formula)
    else:
        cert["chebyshev_ratio"] = None  # base gap < 2: isolation-only certificate
    return LowerBoundPair(P, Q, k_new, ratio, "boosted", cert)


# ---------------------------------------------------------------------------
# noisy pair: 2 T_k^2 vs T_2k
# ---------------------------------------------------------------------------


def noisy_pair(k: int, n: int) -> LowerBoundPair:
    """All coefficients equal except one, which differs by <= 1 + 4/2^(2k).

    r(x) = 2 T_k(3/2 - x)^2 and s(x) = T_2k(3/2 - x) differ by the
    constant 1 (the identity 2 T_k^2 - T_2k = 1), padded by x^(n-2k) to
    degree n and normalized monic.  s carries the larger top root:
    3/2 + cos(pi/4k) versus 3/2 + cos(pi/2k) for r.

    Both are built on integers: A = 2^k T_k(3/2 - x) and
    B = 2^(2k) T_2k(3/2 - x), so that 2 A^2 - B = 2^(2k), and p and q are
    A^2 and B over their leads, 2^(4k-2) and 2^(4k-1).
    """
    if k <= 1:
        raise ValueError("noisy pair needs k >= 2")
    if 2 * k > n:
        raise ValueError(f"need 2k <= n, got k={k}, n={n}")
    _check_degree(n)
    a = _cheb_affine(k, 3, -2, 2)
    a2 = _mul_int(a, a)
    b = _cheb_affine(2 * k, 3, -2, 2)
    if [2 * u - v for u, v in zip(a2, b)] != [1 << (2 * k)] + [0] * (2 * k):
        raise AssertionError("identity 2 T_k^2 - T_2k = 1 failed")

    pad = n - 2 * k
    lead = Fraction(1 << (2 * k - 1))  # the lead of r = 2 T_k^2 and of s = T_2k
    p, q = _monic(a2, pad), _monic(b, pad)

    tk32 = cheb_eval(k, Fraction(3, 2))
    coeff_p = 2 * tk32**2 / lead
    coeff_q = coeff_p - 1 / lead
    coeff_ratio = coeff_p / coeff_q
    bound = 1 + Fraction(4, 2 ** (2 * k))
    if coeff_ratio > bound:
        raise AssertionError("coefficient ratio exceeded 1 + 4/2^(2k)")

    ratio = certified_ratio_lower([0] * pad + a2, [0] * pad + b)
    cert = {
        "kind": "noisy",
        "cheb_k": k,
        "differing_power": pad,
        "coeff_p": format_rational(coeff_p),
        "coeff_q": format_rational(coeff_q),
        "coeff_ratio": format_rational(coeff_ratio),
        "coeff_ratio_bound": format_rational(bound),
        # root formulas: 3/2 - cos((2j+1) pi / (2k)) twice for p,
        #                3/2 - cos((2j+1) pi / (4k)) once for q
        "root_angles_p": [[2 * j + 1, 2 * k] for j in range(k)],
        "root_angles_q": [[2 * j + 1, 4 * k] for j in range(2 * k)],
        "zero_padding": pad,
    }
    return LowerBoundPair(p, q, 2 * k - 1, ratio, "noisy", cert)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class PairCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class PairReport:
    ok: bool
    checks: List[PairCheck]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
        }


def verify_pair(pair: LowerBoundPair) -> PairReport:
    """Re-derive every invariant of the pair from scratch.

    Checks monicity, exact coefficient agreement up to k (reporting the
    first mismatch index on failure), certified real-rootedness of both
    polynomials, nonnegativity of the spectra, and that ratio_lower is
    actually a lower bound on the max-root ratio.

    Every root of p and q is isolated once, to count multiplicities; only
    the smallest and largest are refined, to 2^-48, since only they are
    read.  The ratio is decided exactly by comparing q's top root with
    p's top enclosure scaled by ratio_lower (``RootInterval.scaled``).
    """
    checks: List[PairCheck] = []

    def add(name: str, passed: bool, detail: str = ""):
        checks.append(PairCheck(name, bool(passed), detail))

    p, q = pair.p, pair.q
    same_shape = (not p.is_zero and not q.is_zero and p.degree == q.degree >= 1
                  and p.is_monic() and q.is_monic())
    add("monic_equal_degree", same_shape,
        f"deg p={p.degree}, deg q={q.degree}")
    if not same_shape:
        return PairReport(False, checks)

    n = p.degree
    matched = matched_coefficient_count(p, q)
    add("coefficients_match_up_to_k",
        matched >= pair.k,
        "all equal" if matched >= pair.k else f"first mismatch at position {matched + 1}")

    roots_p = separated_roots(p)
    roots_q = separated_roots(q)
    real_p = sum(r.multiplicity for r in roots_p) == n
    real_q = sum(r.multiplicity for r in roots_q) == n
    add("p_real_rooted", real_p, f"{sum(r.multiplicity for r in roots_p)}/{n} roots real")
    add("q_real_rooted", real_q, f"{sum(r.multiplicity for r in roots_q)}/{n} roots real")

    if real_p and real_q:
        for r in (roots_p[0], roots_p[-1], roots_q[0], roots_q[-1]):
            r.refine_below(_RATIO_WIDTH)
        nonneg = roots_p[0].lo >= 0 and roots_q[0].lo >= 0
        add("roots_nonnegative", nonneg,
            f"min root bounds {float(roots_p[0].lo):.6g}, {float(roots_q[0].lo):.6g}")
        if roots_p[-1].hi > 0:
            # exact decision lambda_max(q) >= ratio_lower * lambda_max(p);
            # compare_roots refines its arguments, so q's top enclosure is
            # compared through a copy and roots_q[-1] stays as reported
            cmp = compare_roots(copy(roots_q[-1]), roots_p[-1].scaled(pair.ratio_lower))
            add("ratio_lower_certified", cmp >= 0,
                f"claimed {float(pair.ratio_lower):.9g}, certified interval "
                f">= {float(roots_q[-1].lo / roots_p[-1].hi):.9g}")
        else:
            add("ratio_lower_certified", False, "lambda_max(p) <= 0")

    if pair.provenance == "noisy":
        nz = [j for j in range(n + 1) if p.coeff(j) != q.coeff(j)]
        single = len(nz) == 1
        add("noisy_single_differing_coefficient", single, f"differing powers {nz}")
        if single:
            j = nz[0]
            pj, qj = p.coeff(j), q.coeff(j)
            bound = to_fraction(pair.certificate["coeff_ratio_bound"])
            # p_j/q_j and q_j/p_j both in (0, bound], cross-multiplied
            add("noisy_coefficient_ratio_bound",
                pj * qj > 0 and abs(pj) <= bound * abs(qj) and abs(qj) <= bound * abs(pj),
                f"ratio {float(pj / qj):.9g} <= bound {float(bound):.9g}" if pj and qj
                else f"the coefficient of x^{j} is 0 in {'q' if pj else 'p'}")

    return PairReport(all(c.passed for c in checks), checks)
