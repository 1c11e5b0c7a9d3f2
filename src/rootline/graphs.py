"""Graphs, girth, signings and exact signed spectra.

Signings assign +-1 to each edge; the signed adjacency matrix replaces
1-entries by the edge signs.  Two facts shape the implementation:

* switching a signing at a vertex set (flipping every crossing edge)
  conjugates D + A_s by a +-1 diagonal matrix, so every spectral or
  trace quantity is a function of the switching class only;
* a switching class is a coset of the GF(2) cut space, and with the
  cut space in echelon form (pivots at the highest bits) each coset has
  exactly one member that is +1 on every pivot edge, its least member in
  bits order; so the 2^|E| signings fall into 2^(|E|-n+components)
  classes, enumerated by their least members in increasing order.

Both exhaustive computations form one matrix per class, and each
verdict holds for every signing of the class, so all 2^|E| signings are
certified.  The trace scan (`sign_invariance_report`) reports the
witness a literal scan in bits order would: the first differing signing
and its class's least member differ at the same power, and that member
comes no later, so it is the first differing representative.  It
clears denominators, bounds every partial sum by n * rho^k (rho the
largest absolute row sum) and runs the batches on float64 BLAS below
2^53, on int64 below 2^62, and on numpy object arrays of Python
integers beyond, all through the same batch code; each choice is exact.
The class characteristic polynomials come from the same trace batches
by Newton's identities.  Outside the batches every matrix is a list of
integer rows.  The search for the best signing returns exactly the
signing a full lexicographic brute force would return (cross-checked in
the tests).
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from rootline.isolation import RootInterval, compare_roots, max_root
from rootline.poly import ExactPolynomial, char_poly_int_rows
from rootline.ratutil import RationalLike, to_fraction

EXHAUSTION_CAP = 24

#: the largest graph file read: girth's BFS from every vertex costs
#: O(n (n + |E|)), 0.35 s for the 1,024-vertex cycle on one Xeon core
VERTEX_BUDGET = 1024
EDGE_BUDGET = 4096


class ExhaustionCapError(ValueError):
    """Raised when an exact enumeration would exceed the signing cap."""


def _check_cap(g: Graph) -> None:
    if g.num_edges > EXHAUSTION_CAP:
        raise ExhaustionCapError(
            f"{g.num_edges} edges exceeds the exhaustion cap {EXHAUSTION_CAP}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        canon = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency_lists(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> List[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        return max(self.degrees())

    def is_bipartite(self) -> bool:
        adj = self.adjacency_lists()
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            queue = [s]
            while queue:
                u = queue.pop()
                for v in adj[u]:
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        queue.append(v)
                    elif color[v] == color[u]:
                        return False
        return True

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Graph":
        # type(...) is int: JSON true and false are not vertex numbers
        if not (isinstance(d, dict) and type(d.get("n")) is int
                and isinstance(d.get("edges"), list)
                and all(isinstance(e, list) and len(e) == 2
                        and all(type(v) is int for v in e) for e in d["edges"])):
            raise ValueError('a graph is a JSON object {"n": int, "edges": [[u, v], ...]}')
        if d["n"] > VERTEX_BUDGET:
            raise ValueError(f"{d['n']} vertices exceeds the vertex budget {VERTEX_BUDGET}")
        if len(d["edges"]) > EDGE_BUDGET:
            raise ValueError(f"{len(d['edges'])} edges exceeds the edge budget {EDGE_BUDGET}")
        return cls(d["n"], tuple((u, v) for u, v in d["edges"]))


@dataclass(frozen=True)
class Signing:
    """+-1 per edge, aligned with the owning graph's sorted edge order."""

    signs: Tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1")

    @classmethod
    def all_plus(cls, g: Graph) -> "Signing":
        return cls((1,) * g.num_edges)

    @classmethod
    def from_bits(cls, g: Graph, bits: int) -> "Signing":
        """Bit i set means edge i carries -1 (so bits order lex-minimal +1 first)."""
        return cls(tuple(-1 if (bits >> i) & 1 else 1 for i in range(g.num_edges)))


def girth(g: Graph):
    """Length of the shortest cycle; math.inf for forests.

    Per-vertex BFS; the minimum over all roots of the first non-tree
    edge closure is exact.
    """
    adj = g.adjacency_lists()
    best = math.inf
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if 2 * dist[u] >= best:
                break
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    best = min(best, dist[u] + dist[v] + 1)
        if best == 3:
            return 3
    return best


def avg_degree_bound(g: Graph) -> Fraction:
    """2|E|/n; the all-plus adjacency has an eigenvalue at least this."""
    return Fraction(2 * g.num_edges, g.n)


def signed_adjacency(g: Graph, s: Signing) -> List[List[int]]:
    """Rows of the integer matrix A_s."""
    if len(s.signs) != g.num_edges:
        raise ValueError("signing does not cover the edge set")
    rows = [[0] * g.n for _ in range(g.n)]
    for (u, v), sign in zip(g.edges, s.signs):
        rows[u][v] = rows[v][u] = sign
    return rows


def _matmul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def matrix_power(rows: List[List[int]], t: int) -> List[List[int]]:
    """Rows of M^t, t >= 1, for the square integer matrix M."""
    if t < 1:
        raise ValueError(f"need a matrix power t >= 1, got t={t}")
    power = rows
    for _ in range(t - 1):
        power = _matmul(power, rows)
    return power


# ---------------------------------------------------------------------------
# switching classes
# ---------------------------------------------------------------------------


def _cut_space_rows(g: Graph) -> List[int]:
    """Vertex-star rows of the GF(2) cut space, as edge-indexed bitmasks."""
    rows = []
    for v in range(g.n):
        mask = 0
        for i, (a, b) in enumerate(g.edges):
            if a == v or b == v:
                mask |= 1 << i
        rows.append(mask)
    return rows


def _gf2_echelon(rows: List[int]) -> List[int]:
    """Reduced echelon basis of the rows' GF(2) span.

    Each basis row's pivot is its highest set bit, and no pivot is set
    in any other basis row.
    """
    basis: Dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            piv = cur.bit_length() - 1
            if piv in basis:
                cur ^= basis[piv]
            else:
                basis[piv] = cur
                break
    # ascending pivots: every lower pivot is cleared by an already-reduced row
    reduced: Dict[int, int] = {}
    for piv in sorted(basis):
        row = basis[piv]
        for p2, r2 in reduced.items():
            if (row >> p2) & 1:
                row ^= r2
        reduced[piv] = row
    return list(reduced.values())


def _coset_min(bits: int, echelon: List[int]) -> int:
    """The least member of bits + span(echelon), as an integer.

    Clearing every pivot bit leaves the one member without pivot bits;
    any other member differs from it by a nonzero span element, whose
    highest bit is a pivot, so that member is larger.
    """
    for row in echelon:
        if (bits >> (row.bit_length() - 1)) & 1:
            bits ^= row
    return bits


def _reverse(bits: int, m: int) -> int:
    """Move bit i to bit m-1-i: integer order becomes sign-vector lex order."""
    return int(format(bits, f"0{m}b")[::-1], 2)


def _free_edges(g: Graph) -> List[int]:
    """The edges that are not pivots of the cut space's echelon form.

    The signings that are -1 only on free edges are the least members in
    bits order (`_coset_min`) of the 2^(|E| - n + components) classes.
    """
    pivots = {row.bit_length() - 1 for row in _gf2_echelon(_cut_space_rows(g))}
    return [i for i in range(g.num_edges) if i not in pivots]


def _class_bits(assign: int, free: List[int]) -> int:
    """The representative whose free edge free[j] is -1 iff bit j of assign is set.

    Increasing in assign, so counting assign upward visits the classes
    in the bits order of their least members.
    """
    return sum(1 << e for j, e in enumerate(free) if (assign >> j) & 1)


def _class_traces(g: Graph, free: List[int], diag: Sequence[int], scale: int, k: int,
                  dtype) -> Iterator[Tuple[int, np.ndarray]]:
    """(first assign, traces) per batch of class representatives M = diag + scale*A_s.

    traces[i-1, j] = trace(M^i) of representative assign = first + j.
    Batch `high` holds assign = (high << low) + j, j < 2^low: the low (at
    most 13) free edges take every sign pattern, set once in a template,
    the pivot edges stay +scale, and only the high free edges' entries
    are rewritten per batch.
    """
    n = g.n
    low = min(len(free), 13)
    us = np.array([u for u, _ in g.edges], dtype=np.intp)
    vs = np.array([v for _, v in g.edges], dtype=np.intp)
    mats = np.zeros((1 << low, n, n), dtype=dtype)
    mats[:, np.arange(n), np.arange(n)] = diag
    mats[:, us, vs] = scale
    mats[:, vs, us] = scale
    fu, fv = us[free], vs[free]
    # +-scale by sign bit, built in the batch type: object keeps Python ints
    entry = np.array([scale, -scale], dtype=dtype)
    signs = entry[(np.arange(1 << low)[:, None] >> np.arange(low)) & 1]
    mats[:, fu[:low], fv[:low]] = signs
    mats[:, fv[:low], fu[:low]] = signs
    for high in range(1 << (len(free) - low)):
        signs = entry[(high >> np.arange(len(free) - low)) & 1]
        mats[:, fu[low:], fv[low:]] = signs
        mats[:, fv[low:], fu[low:]] = signs
        yield high << low, _batch_traces(mats, k)


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


# ---------------------------------------------------------------------------
# exhaustive trace scan over all signings
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    """Outcome of scanning trace powers over every signing."""

    agree: bool
    #: first power at which the witness signing's trace differs from all-plus
    first_disagreement: Optional[int] = None
    #: (0, bits, power): the first signing in bits order whose traces differ
    #: from the all-plus signing's, and that first differing power
    witness: Optional[Tuple[int, int, int]] = None


def _scaled_diag(g: Graph, D: Optional[Sequence[RationalLike]]) -> Tuple[List[int], int]:
    """Clear denominators: returns (L*D as ints, L)."""
    if D is None:
        return [0] * g.n, 1
    if len(D) != g.n:
        raise ValueError("diagonal has wrong length")
    fracs = [to_fraction(d) for d in D]
    L = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (L // f.denominator) for f in fracs], L


def sign_invariance_report(g: Graph, D: Optional[Sequence[RationalLike]],
                           k: int) -> InvarianceReport:
    """Decide trace((D+A_s)^i) = trace((D+A)^i), i = 1..k, for ALL 2^|E| signings.

    The scan forms one matrix per switching class, its least member in
    bits order, and reports the witness a literal scan over all signings
    would (see the module docstring).

    The scan runs on the integer matrices M = L*(D + A_s), L the common
    denominator of D; trace(M^i) = L^i trace((D+A_s)^i), so agreement
    and the witness are those of D + A_s.

    Every number the batch kernel forms is exact.  Let rho be the
    largest absolute row sum of M, max_i |L*d_i| + L*deg_i, so every row
    of |M|^j sums to at most rho^j.  Entrywise |M^j| <= |M|^j, hence the
    terms (M^{j-1})_at M_tb of (M^j)_ab have absolute values summing to
    at most (|M|^j)_ab <= rho^j, and the terms (M^a)_xy (M^b)_xy of
    trace(M^a M^b) to at most trace(|M|^(a+b)) <= n * rho^(a+b).  With
    B = n * rho^k every product and partial sum the kernel forms, in any
    order, is an integer of absolute value at most B:

    * B < 2^53: float64 represents each one exactly, whatever order or
      fused multiply-adds BLAS uses;
    * B < 2^62: int64 never overflows;
    * otherwise the batches are object arrays of Python integers.
    """
    if k < 1:
        raise ValueError(f"need k >= 1 trace powers, got k={k}")
    _check_cap(g)
    diag, L = _scaled_diag(g, D)
    rho = max(abs(d) + L * deg for d, deg in zip(diag, g.degrees()))
    return _scan_numpy(g, diag, L, k, _exact_dtype(g.n * rho ** k))


def _scan_numpy(g: Graph, diag: List[int], L: int, k: int, dtype) -> InvarianceReport:
    """The class scan in batches of `dtype` matrices, representatives in
    bits order.

    Representative 0 of the first batch is the all-plus signing; within
    a batch the first differing column is the least differing assign.
    """
    free = _free_edges(g)
    ref: Optional[np.ndarray] = None
    for first, traces in _class_traces(g, free, diag, L, k, dtype):
        if ref is None:
            ref = traces[:, :1].copy()
        diff = traces != ref
        differs = diff.any(axis=0)
        if differs.any():
            j = int(differs.argmax())
            power = int(diff[:, j].argmax()) + 1
            return InvarianceReport(False, power, (0, _class_bits(first + j, free), power))
    return InvarianceReport(True)


# ---------------------------------------------------------------------------
# best signing search (minimum largest eigenvalue)
# ---------------------------------------------------------------------------


@dataclass
class BestSigning:
    signing: Signing
    char: ExactPolynomial
    lambda_max: RootInterval
    classes_searched: int


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


def switching_class_char_polys(g: Graph) -> List[Tuple[Tuple[int, ...], int]]:
    """(descending char poly coefficients, representative bits) per class.

    The characteristic polynomial of A_s is constant on switching
    classes, so these cover every one of the 2^|E| signings exactly.
    The representatives are the scan's (`_free_edges`), stacked with a
    zero diagonal; each polynomial comes from trace(A_s^i), i = 1..n,
    by Newton's identities.  The traces are exact in the batch type
    chosen from the scan's bound with rho = max degree and k = n.
    """
    free = _free_edges(g)
    n = g.n
    zero_diag = [0] * n
    reps = [_class_bits(assign, free) for assign in range(1 << len(free))]
    dtype = _exact_dtype(n * g.max_degree() ** n)
    out = []
    for first, traces in _class_traces(g, free, zero_diag, 1, n, dtype):
        for j, p in enumerate(traces.T.tolist()):
            out.append((_char_poly_from_traces(p), reps[first + j]))
    return out


def best_signing_search(g: Graph) -> BestSigning:
    """The signing minimizing lambda_max(A_s), ties broken lexicographically.

    Groups the switching classes by their exact characteristic
    polynomials, compares the polynomials by certified root intervals,
    then takes the lexicographically smallest signing over every class
    of every argmin polynomial by a GF(2) coset reduction.  Output is
    identical to brute force over all 2^|E| signings.
    """
    _check_cap(g)
    m = g.num_edges
    by_char: Dict[Tuple[int, ...], List[int]] = {}
    for coeffs, bits in switching_class_char_polys(g):
        by_char.setdefault(coeffs, []).append(bits)

    # compare_roots refines its arguments, so each polynomial's 2^-20
    # enclosure is kept as a copy; the winner's copy is then refined on
    # to 2^-30, the cell that isolating it afresh would give
    best: List[Tuple[Tuple[int, ...], RootInterval]] = []
    lam_of: Dict[Tuple[int, ...], RootInterval] = {}
    for coeffs in by_char:
        lam = max_root(coeffs[::-1], Fraction(1, 2**20))
        lam_of[coeffs] = copy(lam)
        if not best:
            best = [(coeffs, lam)]
            continue
        cmp = compare_roots(lam, best[0][1])
        if cmp < 0:
            best = [(coeffs, lam)]
        elif cmp == 0:
            best.append((coeffs, lam))

    # on bit-reversed masks, integer order is the sign vectors' lex order
    echelon = _gf2_echelon([_reverse(row, m) for row in _cut_space_rows(g)])
    min_key, min_coeffs = min((_coset_min(_reverse(bits, m), echelon), coeffs)
                              for coeffs, _ in best for bits in by_char[coeffs])
    signing = Signing.from_bits(g, _reverse(min_key, m))
    lam = lam_of[min_coeffs].refine_below(Fraction(1, 2**30))
    return BestSigning(signing, ExactPolynomial(reversed(min_coeffs)), lam, len(by_char))


def ramanujan_bound_holds(g: Graph, s: Signing) -> bool:
    """Exact check lambda_max(A_s) <= 2*sqrt(deg_max - 1), no slack.

    2*sqrt(deg_max - 1) is the top root of x^2 - 4*(deg_max - 1), so the
    two top roots are compared exactly (equality by ``compare_roots``'
    gcd fallback).  Only the top eigenvalue is bounded: the spectrum of
    A_s need not be symmetric.
    """
    d = g.max_degree()
    if d < 2:
        raise ValueError("bound is vacuous for max degree < 2")
    lam = max_root(char_poly_int_rows(signed_adjacency(g, s))[::-1])
    return compare_roots(lam, max_root([-4 * (d - 1), 0, 1])) <= 0


# ---------------------------------------------------------------------------
# catalog of small high-girth graphs
# ---------------------------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def cube_graph() -> Graph:
    edges = []
    for v in range(8):
        for b in (1, 2, 4):
            if v < v ^ b:
                edges.append((v, v ^ b))
    return Graph(8, tuple(edges))


def heawood_graph() -> Graph:
    """Incidence graph of the Fano plane: 14 vertices, 21 edges, girth 6."""
    edges = []
    for line in range(7):
        for p in (line, (line + 1) % 7, (line + 3) % 7):
            edges.append((p, 7 + line))
    return Graph(14, tuple(edges))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def tutte_coxeter_graph() -> Graph:
    """Duad-syntheme incidence: 30 vertices, 45 edges, girth 8."""
    duads = list(combinations(range(6), 2))
    duad_index = {d: i for i, d in enumerate(duads)}
    synthemes = []
    for m1 in duads:
        rest1 = [x for x in range(6) if x not in m1]
        for m2 in combinations(rest1, 2):
            if m2 < m1:
                continue
            m3 = tuple(x for x in rest1 if x not in m2)
            syn = tuple(sorted((m1, m2, m3)))
            if syn not in synthemes:
                synthemes.append(syn)
    edges = []
    for j, syn in enumerate(sorted(synthemes)):
        for d in syn:
            edges.append((duad_index[d], 15 + j))
    return Graph(30, tuple(edges))


#: the named graphs, each under its one name: even cycles, the cube,
#: balanced complete bipartite graphs and two cages, all bipartite
CATALOG: Dict[str, Graph] = {
    **{f"C_{n}": cycle_graph(n) for n in (4, 6, 8, 10, 12)},
    "Q_3": cube_graph(),
    **{f"K_{d},{d}": complete_bipartite(d, d) for d in (2, 3, 4)},
    "heawood": heawood_graph(),
    "tutte-coxeter": tutte_coxeter_graph(),
}


def high_girth_catalog(name: str) -> Graph:
    """The catalog graph of exactly this name."""
    if name not in CATALOG:
        raise ValueError(f"unknown catalog graph {name!r}; the catalog holds "
                         + ", ".join(CATALOG))
    return CATALOG[name]
