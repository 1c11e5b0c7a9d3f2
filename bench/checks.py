"""Checks of the program's outputs, computed apart from the program.

Each check returns a list of failure messages (empty when the output
passes).  Exact claims are checked exactly over ``Fraction``; claims
about irrational numbers are checked against closed forms evaluated in
mpmath at a precision local to the check (``mpmath.mp.workprec``), and
claims about eigenvalues against float64 numpy with a relative slack of
``REL``.  Nothing here calls into ``rootline``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath
import numpy as np

#: relative slack of every float64 comparison
REL = 1e-9
#: bits of the local mpmath precision for closed forms
PREC = 256

Interval = Tuple[Fraction, Fraction]


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _le_closed_form(x: Fraction, form) -> bool:
    """x <= form(), with form evaluated at PREC bits."""
    with mpmath.mp.workprec(PREC):
        return _mpf(x) <= form()


def _within(lo: float, hi: float, x: float) -> bool:
    slack = REL * max(abs(lo), abs(hi), 1.0)
    return lo - slack <= x <= hi + slack


def interval_contains(tag: str, interval: Interval, x: float) -> List[str]:
    lo, hi = float(interval[0]), float(interval[1])
    if _within(lo, hi, x):
        return []
    return [f"{tag}: float value {x!r} outside [{lo!r}, {hi!r}]"]


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def bracket(n: int, k: int, mu_max: Fraction, estimate: Fraction, factor: Fraction,
            power_sum_branch: bool) -> List[str]:
    """estimate <= max mu <= factor * estimate; power-sum branch iff k <= ln n."""
    tag = f"bracket n={n} k={k}"
    out = []
    if not estimate <= mu_max <= factor * estimate:
        out.append(f"{tag}: mu_max={mu_max} outside [{estimate}, {factor} * {estimate}]")
    with mpmath.mp.workprec(PREC):
        want = k <= mpmath.log(n)
    if power_sum_branch != want:
        out.append(f"{tag}: power-sum branch is {power_sum_branch}, k <= ln n is {want}")
    return out


# ---------------------------------------------------------------------------
# rank-one sums: leaf eigenvalues and the expected characteristic polynomial
# ---------------------------------------------------------------------------

#: float supports: per coordinate, a list of (vector, probability)
FloatSupports = Sequence[Sequence[Tuple[Sequence[float], float]]]


def _dim(sups: FloatSupports) -> int:
    return max(len(v) for sup in sups for v, _ in sup)


def _padded(v: Sequence[float], dim: int) -> np.ndarray:
    out = np.zeros(dim)
    out[: len(v)] = v
    return out


def leaf_max_eigenvalue(sups: FloatSupports, choices: Sequence[int]) -> float:
    """Largest eigenvalue of sum_i v v^T over the chosen vectors."""
    dim = _dim(sups)
    mat = np.zeros((dim, dim))
    for sup, c in zip(sups, choices):
        v = _padded(sup[c][0], dim)
        mat += np.outer(v, v)
    return float(np.linalg.eigvalsh(mat)[-1])


def expected_char_poly(sups: FloatSupports) -> np.ndarray:
    """Descending coefficients of E[det(x I - sum_i v_i v_i^T)], summed over
    every outcome (the zero roots of the ambient padding left out)."""
    dim = _dim(sups)
    idx = np.array(list(itertools.product(*[range(len(s)) for s in sups])))
    mats = np.zeros((len(idx), dim, dim))
    weights = np.ones(len(idx))
    for i, sup in enumerate(sups):
        vecs = np.array([_padded(v, dim) for v, _ in sup])[idx[:, i]]
        mats += vecs[:, :, None] * vecs[:, None, :]
        weights *= np.array([p for _, p in sup])[idx[:, i]]
    eig = np.linalg.eigvalsh(mats)
    coeffs = np.zeros((len(idx), dim + 1))
    coeffs[:, 0] = 1.0
    for j in range(dim):
        coeffs[:, 1 : j + 2] = coeffs[:, 1 : j + 2] - eig[:, j : j + 1] * coeffs[:, : j + 1]
    return weights @ coeffs


def expected_max_root(sups: FloatSupports) -> float:
    """Largest real root of the expected characteristic polynomial."""
    c = expected_char_poly(sups)
    roots = np.roots(c)
    real = roots.real[np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(roots))]
    r = float(real.max())
    dc = np.polyder(c)
    for _ in range(4):  # Newton polish of the float root
        slope = np.polyval(dc, r)
        if slope == 0:
            break
        r -= float(np.polyval(c, r) / slope)
    return r


def rounding(certified: bool, lambda_leaf: Interval, lambda_root: Interval,
             eps: Fraction, leaf_eig: float, root: float) -> List[str]:
    """Certified, both intervals hold the float values, leaf <= (1+eps) root."""
    tag = f"rounding eps={eps}"
    out = []
    if not certified:
        out.append(f"{tag}: certificate failed")
    out += interval_contains(f"{tag} lambda_leaf", lambda_leaf, leaf_eig)
    out += interval_contains(f"{tag} lambda_root", lambda_root, root)
    if leaf_eig > (1 + float(eps)) * root * (1 + REL):
        out.append(f"{tag}: leaf eigenvalue {leaf_eig!r} > (1+eps) * root {root!r}")
    return out


def leaves_below_root(lambda_root: Interval, cmp: int, min_leaf_eig: float,
                      root: float) -> List[str]:
    """Interlacing: the smallest leaf root is at most the root polynomial's."""
    out = interval_contains("root polynomial", lambda_root, root)
    if cmp > 0:
        out.append("compare_roots puts the smallest leaf root above the root's")
    if min_leaf_eig > root * (1 + REL):
        out.append(f"smallest leaf eigenvalue {min_leaf_eig!r} above root {root!r}")
    return out


# ---------------------------------------------------------------------------
# coefficient-matched pairs
# ---------------------------------------------------------------------------


def verified(tag: str, ok: bool) -> List[str]:
    return [] if ok else [f"{tag}: verify_pair rejects the pair"]


def weak_pair(n: int, ok: bool, ratio_lower: Fraction) -> List[str]:
    """1 + 1/n^2 <= ratio_lower <= 2 / (1 + cos(pi/n))."""
    tag = f"weak({n})"
    out = verified(tag, ok)
    if not _le_closed_form(ratio_lower, lambda: 2 / (1 + mpmath.cos(mpmath.pi / n))):
        out.append(f"{tag}: ratio_lower {ratio_lower} above 2/(1+cos(pi/n))")
    if ratio_lower < 1 + Fraction(1, n * n):
        out.append(f"{tag}: ratio_lower {ratio_lower} below 1 + 1/n^2")
    return out


def noisy_pair(k: int, n: int, ok: bool, ratio_lower: Fraction,
               p_coeffs: Sequence[Fraction], q_coeffs: Sequence[Fraction]) -> List[str]:
    """Degree n, 1 + 1/(3k^2) <= ratio_lower <= (3/2 + cos(pi/4k)) / (3/2 + cos(pi/2k)),
    and exactly one differing coefficient, off by at most 1 + 4/2^(2k)."""
    tag = f"noisy({k},{n})"
    out = verified(tag, ok)
    if len(p_coeffs) != n + 1 or len(q_coeffs) != n + 1:
        out.append(f"{tag}: degrees {len(p_coeffs) - 1}, {len(q_coeffs) - 1} differ from n")
    def true_ratio():
        half3 = mpmath.mpf(3) / 2
        return ((half3 + mpmath.cos(mpmath.pi / (4 * k)))
                / (half3 + mpmath.cos(mpmath.pi / (2 * k))))

    if not _le_closed_form(ratio_lower, true_ratio):
        out.append(f"{tag}: ratio_lower {ratio_lower} above the true root ratio")
    if ratio_lower < 1 + Fraction(1, 3 * k * k):
        out.append(f"{tag}: ratio_lower {ratio_lower} below 1 + 1/(3k^2)")
    differ = [j for j, (a, b) in enumerate(zip(p_coeffs, q_coeffs)) if a != b]
    if len(differ) != 1:
        out.append(f"{tag}: {len(differ)} differing coefficients, not 1")
    else:
        a, b = p_coeffs[differ[0]], q_coeffs[differ[0]]
        bound = 1 + Fraction(4, 2 ** (2 * k))
        if a == 0 or b == 0 or a / b < 0 or max(a / b, b / a) > bound:
            out.append(f"{tag}: coefficient ratio {a}/{b} not in (0, 1 + 4/2^(2k)]")
    return out


def girth_pair(name: str, ok: bool, ratio_lower: Fraction) -> List[str]:
    """Verified; the Heawood pair at power 2 certifies at least 9/8."""
    out = verified(f"girth({name})", ok)
    if name == "heawood" and ratio_lower < Fraction(9, 8):
        out.append(f"girth(heawood): ratio_lower {ratio_lower} below 9/8")
    return out


# ---------------------------------------------------------------------------
# signings
# ---------------------------------------------------------------------------


def signed_adjacency_rows(n: int, edges: Sequence[Tuple[int, int]], bits: int) -> List[List[int]]:
    """Edge i carries sign -1 when bit i of ``bits`` is set, +1 otherwise."""
    rows = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        s = -1 if (bits >> i) & 1 else 1
        rows[u][v] = rows[v][u] = s
    return rows


def trace_power(rows: List[List[int]], power: int) -> int:
    n = len(rows)
    acc = [[int(a == b) for b in range(n)] for a in range(n)]
    for _ in range(power):
        acc = [[sum(acc[a][t] * rows[t][b] for t in range(n)) for b in range(n)]
               for a in range(n)]
    return sum(acc[a][a] for a in range(n))


def witness(tag: str, n: int, edges: Sequence[Tuple[int, int]], agree: bool,
            found: Optional[Tuple[int, int, int]]) -> List[str]:
    """At the girth the scan must name two signings whose traces differ."""
    if agree or found is None:
        return [f"{tag}: no disagreement reported at the girth"]
    bits_a, bits_b, power = found
    ta = trace_power(signed_adjacency_rows(n, edges, bits_a), power)
    tb = trace_power(signed_adjacency_rows(n, edges, bits_b), power)
    if ta == tb:
        return [f"{tag}: witness signings {bits_a}, {bits_b} agree at power {power} ({ta})"]
    return []


def ramanujan(name: str, n: int, edges: Sequence[Tuple[int, int]],
              signs: Sequence[int]) -> List[str]:
    """The best signing's float lambda_max is at most 2 sqrt(d_max - 1)."""
    mat = np.zeros((n, n))
    degree = [0] * n
    for (u, v), s in zip(edges, signs):
        mat[u, v] = mat[v, u] = s
        degree[u] += 1
        degree[v] += 1
    lam = float(np.linalg.eigvalsh(mat)[-1])
    bound = 2 * (max(degree) - 1) ** 0.5
    if lam > bound * (1 + REL):
        return [f"best signing of {name}: lambda_max {lam!r} > 2 sqrt(d_max - 1) = {bound!r}"]
    return []
