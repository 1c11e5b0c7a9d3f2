"""Rounding interlacing families through a top-k coefficient oracle.

An oracle exposes, for any prefix assignment (s_1..s_l), the top k
coefficients of the partial sum f_{s_1..s_l} exactly.  The rounding
algorithm walks the tree in groups of ceil(m^(1/3)) coordinates; within
a group it enumerates the not-identically-zero extensions, estimates
each one's largest root from its top coefficients, and keeps the
argmin (lexicographic tie-break).  The final inequality
lambda_max(leaf) <= (1+eps) * lambda_max(root) is then certified
directly on the exact polynomials, independent of the estimates.

Two concrete oracles are provided: independent finite-support random
rank-one sums (``KSInstance``) and subset distributions given by a
dense probability table with fixed vectors (``SRInstance``).  Leaf
polynomials carry their probability as a factor, so a prefix's
polynomial is literally the sum of its children's, exactly.  Both take
their Gram determinants from one integer table on one scale, each
bordered in O(d^2) from the determinant one row shorter; the KS oracle
borders each path of (coordinate, choice) pairs once, in one trie, and
reads every prefix's expected minors off the per-subset sums it leaves.
The walk depends on eps only through the coefficient budget k, so both
oracles keep it per k and a second eps only certifies again.  One enumeration of either family's leaves cross-checks both.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from rootline.isolation import (
    IntPoly,
    RootInterval,
    compare_roots,
    isolate_real_roots,
    max_root,
)
from rootline.maxroot import approx_max_root
from rootline.poly import ExactPolynomial, char_poly_int_rows
from rootline.ratutil import (
    RationalLike,
    format_rational,
    iroot_floor,
    ln_bounds,
    nth_root_upper,
    to_fraction,
)
from rootline.symfuncs import SymmetricProfile


class OracleInconsistencyError(ValueError):
    """Refinement sums of oracle coefficients failed to telescope."""


# ---------------------------------------------------------------------------
# common interlacing test
# ---------------------------------------------------------------------------


def check_common_interlacing(polys: Sequence[ExactPolynomial]) -> bool:
    """Decide whether the family admits a common interlacer.

    All inputs must share one degree, have positive leading coefficients
    and be certified real-rooted (anything else raises).  The criterion:
    a common interlacing exists iff for every j the j-th smallest roots
    across the family all precede every (j+1)-th smallest root, decided
    with certified comparisons.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("empty family")
    deg = polys[0].degree
    if deg < 1:
        raise ValueError("family members must have degree >= 1")
    root_lists = []
    for p in polys:
        if p.is_zero or p.degree != deg:
            raise ValueError("family members must share one degree")
        if p.leading <= 0:
            raise ValueError("family members need positive leading coefficients")
        roots = isolate_real_roots(p, Fraction(1, 2**30))
        if sum(r.multiplicity for r in roots) != deg:
            raise ValueError("non-real-rooted polynomial in family")
        expanded = []
        for r in roots:
            expanded.extend([r] * r.multiplicity)
        root_lists.append(expanded)
    for j in range(deg - 1):
        top = max((lst[j] for lst in root_lists), key=cmp_to_key(compare_roots))
        if any(compare_roots(top, lst[j + 1]) > 0 for lst in root_lists):
            return False
    return True


# ---------------------------------------------------------------------------
# family specification and oracle interface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Depth m, explicit choice-set sizes, and the polynomial degree n."""

    m: int
    sizes: Tuple[int, ...]
    n: int

    def __post_init__(self):
        if self.m != len(self.sizes) or any(s < 1 for s in self.sizes):
            raise ValueError("need one nonempty choice set per coordinate")
        if self.n < 1:
            raise ValueError("degree must be >= 1")


class FamilyOracle:
    """Interface: exact top coefficients of partially-assigned sums.

    ``coeffs(prefix, k)`` returns the k+1 leading coefficients
    (of x^n down to x^(n-k)) of f_prefix, unnormalized: the sum over all
    leaves extending the prefix, each leaf weighted by its probability.
    An identically-zero polynomial yields all zeros.
    """

    spec: FamilySpec

    def coeffs(self, prefix: Tuple[int, ...], k: int) -> Tuple[Fraction, ...]:
        raise NotImplementedError

    def _check(self, prefix: Tuple[int, ...], k: int) -> None:
        """Raise ValueError unless 0 <= k <= n and prefix is a valid choice
        for its first len(prefix) coordinates."""
        spec = self.spec
        if not 0 <= k <= spec.n:
            raise ValueError(f"need 0 <= k <= n, got k={k}")
        if len(prefix) > spec.m:
            raise ValueError("prefix longer than the family depth")
        for i, c in enumerate(prefix):
            if not 0 <= c < spec.sizes[i]:
                raise ValueError(f"choice {c} at coordinate {i} is not in 0..{spec.sizes[i] - 1}")


class _GramKernel:
    """The exact integer kernel both oracles run on.

    Coordinate i offers the vectors ``choices[i]``.  Every distinct vector
    is scaled by one L, the lcm of the entry denominators of all of them,
    and ``gram`` holds every integer inner product of the scaled vectors
    (shorter vectors read as zero-padded).  ``rows[i][c]`` is the table
    row of choice c of coordinate i, and for any rows of the table

        det Gram(v_T) = det(Gram sub-table on T) / scale^|T|,

    with ``scale`` = L^2.

    Determinants grow one row at a time (``border``): both oracles walk
    their row sets as paths that add a row, so every determinant extends
    its parent's in O(d^2) exact steps, and a zero leading minor ends a
    path, since a Gram matrix of dependent vectors stays singular.
    """

    def __init__(self, choices: Sequence[Sequence[Tuple[Fraction, ...]]]):
        index: Dict[Tuple[Fraction, ...], int] = {}
        for vectors in choices:
            for v in vectors:
                index.setdefault(v, len(index))
        L = math.lcm(*(x.denominator for v in index for x in v))
        ints = [[x.numerator * (L // x.denominator) for x in v] for v in index]
        self.rows = [[index[v] for v in vectors] for vectors in choices]
        self.scale = L * L
        self.dim = max(map(len, ints), default=0)  # rank bound on every Gram matrix
        self.gram = [[sum(x * y for x, y in zip(u, w)) for w in ints] for u in ints]

    def border(self, rows: Sequence[int], reduced: Sequence[Sequence[int]],
               pivots: Sequence[int], a: int) -> Tuple[int, List[int]]:
        """The Gram sub-table on ``rows`` bordered by table row ``a``.

        Symmetric fraction-free (Bareiss) elimination, one row at a time:
        ``pivots`` are the leading principal minors p_0 = 1, p_1, ..., p_d
        of the sub-table on the d ``rows``, none of them zero, and
        ``reduced[c]`` is row c's entries x_c[i], i < c, as elimination
        step i met them.  Returns p_(d+1), the determinant with row a
        added, and a's own reduced row.  Step i sets
        x[c] <- (x[c] p_(i+1) - x[i] reduced[c][i]) / p_i for c > i and
        the new pivot <- (pivot p_(i+1) - x[i]^2) / p_i; Sylvester's
        identity makes every division exact.
        """
        g = self.gram[a]
        x = [g[b] for b in rows]
        top = g[a]
        for i, xi in enumerate(x):  # x[i] is final once the steps before i have run
            p, q = pivots[i + 1], pivots[i]
            for c in range(i + 1, len(x)):
                x[c] = (x[c] * p - xi * reduced[c][i]) // q
            top = (top * p - xi * xi) // q
        return top, x


# ---------------------------------------------------------------------------
# Kadison-Singer style oracle: independent finite-support random vectors
# ---------------------------------------------------------------------------


#: the largest ambient dimension n of a family: the round walk's work and
#: memory grow linearly in n
DIMENSION_BUDGET = 1 << 20


def _check_dimension(n: int) -> None:
    if n > DIMENSION_BUDGET:
        raise ValueError(f"ambient dimension {n} is above the family dimension budget "
                         f"{DIMENSION_BUDGET}")


@dataclass(frozen=True)
class KSInstance:
    """Independent random vectors with explicit finite supports.

    ``n`` is the ambient dimension (vectors shorter than n are read as
    zero-padded, which just adds zero eigenvalues).  Leaf polynomials
    are probability-weighted characteristic polynomials.
    """

    n: int
    supports: Tuple[Tuple[Tuple[Tuple[Fraction, ...], Fraction], ...], ...]

    def __post_init__(self):
        _check_dimension(self.n)
        for i, sup in enumerate(self.supports):
            if not sup:
                raise ValueError(f"support {i} is empty")
            total = sum((p for _, p in sup), Fraction(0))
            if total != 1:
                raise ValueError(f"support {i} probabilities sum to {total}, not 1")
            if any(p < 0 for _, p in sup):
                raise ValueError(f"support {i} has a negative probability")
            if any(len(v) > self.n for v, _ in sup):
                raise ValueError("vector longer than the ambient dimension")

    @property
    def m(self) -> int:
        return len(self.supports)

    def spec(self) -> FamilySpec:
        return FamilySpec(self.m, tuple(len(s) for s in self.supports), self.n)

    @property
    def dim(self) -> int:
        """The longest vector's length, at least 1."""
        return max([len(v) for sup in self.supports for v, _ in sup] + [1])

    def leaves(self, prefix: Tuple[int, ...] = ()) -> Iterator[Tuple[Fraction, list]]:
        """(probability, vectors) of every outcome extending ``prefix``, in
        lexicographic order, those of probability zero included."""
        for tail in product(*self.supports[len(prefix):]):
            picked = [self.supports[i][c] for i, c in enumerate(prefix)] + list(tail)
            yield math.prod(p for _, p in picked), [v for v, _ in picked]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "supports": [
                [{"vector": [format_rational(x) for x in v], "prob": format_rational(p)}
                 for v, p in sup]
                for sup in self.supports
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "KSInstance":
        if not (isinstance(d, dict) and type(d.get("n")) is int
                and isinstance(d.get("supports"), list)
                and all(isinstance(sup, list) and all(
                    isinstance(ent, dict) and isinstance(ent.get("vector"), list)
                    for ent in sup) for sup in d["supports"])):
            raise ValueError('a KS family is a JSON object {"n": int, "supports": '
                             '[[{"vector": ["p/q", ...], "prob": "p/q"}, ...], ...]}')
        sups = tuple(
            tuple((tuple(to_fraction(x) for x in ent["vector"]),
                   to_fraction(ent["prob"])) for ent in sup)
            for sup in d["supports"]
        )
        return cls(d["n"], sups)


class KSOracle(FamilyOracle):
    """Top-k coefficients via expected principal minors.

    The x^(n-j) coefficient of the conditional expectation is
    (-1)^j sum over j-subsets T of E_T = E[sigma_j(sum_{i in T} r_i r_i^T)],
    and sigma_j of a rank-j sum is the Gram determinant of its vectors.

    Everything runs on one integer table built in the constructor
    (``_GramKernel``), every support vector scaled by one L, and every
    probability is taken over P, the lcm of all their denominators.  A
    coordinate of T weighs p P while the prefix leaves it free and P once
    the prefix fixes it (its probability is in the prefix's weight), so
    N_T = sum over T's free outcomes of (product of weights) * det(rows)
    is an integer, E_T = N_T / (P L^2)^j, and each coefficient is the one
    Fraction (-1)^j weight * sum_T N_T / (P L^2)^j.

    A prefix of length l fixes exactly T's leading elements, those below
    l.  In the tree over T's outcomes the node c_1..c_f holds the choices
    of T's first f coordinates; its U is the Gram determinant at a leaf
    and sum_c (p P of c) * U(child c) above, and N(T; c_1..c_f) = P^f * U.
    That node is a path of (coordinate, choice) pairs with increasing
    coordinates, shared by every T that starts with its coordinates, so
    ``_build`` walks the trie of these paths once, depth first, bordering
    each determinant from its parent's, and on the way up adds each
    child's U into its parent's node in every T through the child.  T's
    tree is one flat list, the node c_1..c_f at sum_g (c_g + 1) W_(g-1),
    W_g the product of the choice counts of T's first g coordinates (a
    bijection onto the list's indices), so a call reads one entry per
    subset.  The trie is as deep as the deepest call so far needs,
    min(k, m, dim); a deeper call builds it again.
    """

    def __init__(self, inst: KSInstance):
        self.inst = inst
        self.spec = inst.spec()
        self._walks: Dict = {}  # round_family's walks, by (spec, k)
        #: per j, (T, U at every node of T's tree) for every j-subset T
        self._subsets: List[List[Tuple[Tuple[int, ...], List[int]]]] = []
        self._P = math.lcm(*(p.denominator for sup in inst.supports for _, p in sup))
        kernel = self._kernel = _GramKernel([[v for v, _ in sup] for sup in inst.supports])
        # per coordinate, (choice, table row, p P) of each outcome of positive probability
        self._options = [[(c, a, p.numerator * (self._P // p.denominator))
                          for c, ((_, p), a) in enumerate(zip(sup, rows)) if p]
                         for sup, rows in zip(inst.supports, kernel.rows)]

    def _build(self, depth: int) -> None:
        """The trees of every subset of at most ``depth`` coordinates, from
        one depth-first pass over the trie of (coordinate, choice) paths."""
        kernel, options, sizes, m = self._kernel, self._options, self.spec.sizes, self.spec.m
        # B -> the trees of every T that starts with B, that of T = B first
        through: Dict[Tuple[int, ...], List[List[int]]] = {}
        self._subsets = []
        for j in range(1, depth + 1):
            level = []
            for subset in combinations(range(m), j):
                width = size = 1
                for i in subset:
                    width *= sizes[i]
                    size += width
                tree = [0] * size
                for f in range(1, j + 1):
                    through.setdefault(subset[:f], []).append(tree)
                level.append((subset, tree))
            self._subsets.append(level)

        def visit(path, rows, reduced, pivots, pos, width):
            # the trie node of ``path``, whose node in each tree through it is at ``pos``
            for i in range(path[-1] + 1 if path else 0, m):
                key = path + (i,)
                below = through[key]
                for c, a, free in options[i]:
                    p, x = kernel.border(rows, reduced, pivots, a)
                    if not p:
                        continue
                    child = pos + (c + 1) * width
                    below[0][child] = p  # U at a leaf of T = key is its determinant
                    if len(key) < depth:
                        visit(key, rows + [a], reduced + [x], pivots + [p], child,
                              width * sizes[i])
                    for tree in below:
                        tree[pos] += free * tree[child]

        visit((), [], [], [1], 0, 1)
        # visit holds itself through its closure: drop it, so that the tables
        # above are freed on return and not at the next cyclic collection
        del visit

    def coeffs(self, prefix: Tuple[int, ...], k: int) -> Tuple[Fraction, ...]:
        self._check(prefix, k)
        inst = self.inst
        weight = Fraction(1)
        for i, c in enumerate(prefix):
            weight *= inst.supports[i][c][1]
        out = [weight] + [Fraction(0)] * k
        if weight == 0:
            return tuple(out)
        ell, sizes, P = len(prefix), self.spec.sizes, self._P
        top = min(k, inst.m, self._kernel.dim)
        if top > len(self._subsets):
            self._build(top)
        for j in range(1, top + 1):
            acc = [0] * (j + 1)  # sum of U over the subsets with f fixed coordinates
            for subset, tree in self._subsets[j - 1]:
                pos, width, f = 0, 1, 0
                for i in subset:  # down the choices the prefix fixes
                    if i >= ell:
                        break
                    pos += (prefix[i] + 1) * width
                    width *= sizes[i]
                    f += 1
                acc[f] += tree[pos]
            total = sum(P**f * u for f, u in enumerate(acc))
            out[j] = Fraction((-1) ** j * weight.numerator * total,
                              weight.denominator * (P * self._kernel.scale) ** j)
        return tuple(out)


def ks_oracle(inst: KSInstance) -> KSOracle:
    return KSOracle(inst)


def _rank_one_char_poly(vectors: Sequence[Sequence[Fraction]], d: int) -> Tuple[IntPoly, int]:
    """Characteristic polynomial of the d x d matrix M = sum v v^T, each v
    read as zero-padded to length d, as ascending integers over a scale.

    ``char_poly_int_rows`` runs on the symmetric integer Gram sum
    G = sum w w^T of w = L v, L the common denominator of every entry.
    G = L^2 M, so the x^(d-i) coefficient c_i of det(xI - G) is L^(2i)
    times that of det(xI - M), and det(xI - M) is the integers
    c_i L^(2(d-i)) over the scale L^(2d).
    """
    L = math.lcm(*(x.denominator for v in vectors for x in v))
    rows = [[0] * d for _ in range(d)]
    for v in vectors:
        w = [x.numerator * (L // x.denominator) for x in v]
        for a, wa in enumerate(w):
            if wa:
                row = rows[a]
                for b, wb in enumerate(w):
                    if wb:
                        row[b] += wa * wb
    desc = char_poly_int_rows(rows)
    L2 = L * L
    # from a list: tuple() of a generator resizes its tuple, and CPython's
    # free lists then keep up to 2,000 such tuples across a leaf enumeration
    return tuple([c * L2**k for k, c in enumerate(reversed(desc))]), L2**d


def padded_coeffs(p: ExactPolynomial, n: int) -> Tuple[Fraction, ...]:
    """The coefficients of x^n down to x^0 of p (degree at most n), laid
    out as ``FamilyOracle.coeffs(prefix, n)`` returns them."""
    return tuple(p.coeff(n - i) for i in range(n + 1))


def ks_leaf_poly(inst: KSInstance, choices: Tuple[int, ...]) -> IntPoly:
    """Unweighted char poly of the chosen rank-one sum, padded to degree n,
    as ascending integers: a positive multiple of it, with its roots."""
    vectors = [inst.supports[i][c][0] for i, c in enumerate(choices)]
    d = max([len(v) for v in vectors] + [1])
    return (0,) * (inst.n - d) + _rank_one_char_poly(vectors, d)[0]


# ---------------------------------------------------------------------------
# strongly-Rayleigh style oracle: dense subset-probability table
# ---------------------------------------------------------------------------


#: largest m whose dense 2^m subset table an SRInstance accepts
SR_MAX_M = 20


@dataclass(frozen=True)
class SRInstance:
    """Distribution over subsets of [m] (dense table) with fixed vectors.

    Choice semantics per coordinate: 0 = leave the vector out,
    1 = take it.  Conditioning is exact table restriction.  Whether the
    table's generating polynomial is actually real stable is not
    checked; the interlacing property is a trusted precondition.
    """

    n: int
    m: int
    vectors: Tuple[Tuple[Fraction, ...], ...]
    table: Tuple[Fraction, ...]  # index = subset bitmask, length 2^m

    def __post_init__(self):
        _check_dimension(self.n)
        if self.m > SR_MAX_M:
            raise ValueError(f"dense table capped at m <= {SR_MAX_M}")
        if len(self.vectors) != self.m:
            raise ValueError("need one vector per coordinate")
        if len(self.table) != 1 << self.m:
            raise ValueError("table must have 2^m entries")
        if any(p < 0 for p in self.table):
            raise ValueError("negative probability in table")
        if sum(self.table) != 1:
            raise ValueError("table probabilities must sum to 1")
        if any(len(v) > self.n for v in self.vectors):
            raise ValueError("vector longer than the ambient dimension")

    def spec(self) -> FamilySpec:
        return FamilySpec(self.m, (2,) * self.m, self.n)

    @property
    def dim(self) -> int:
        """The longest vector's length, at least 1."""
        return max([len(v) for v in self.vectors] + [1])

    def leaves(self, prefix: Tuple[int, ...] = ()) -> Iterator[Tuple[Fraction, list]]:
        """(probability, vectors) of every subset of positive probability
        that agrees with ``prefix``, by increasing bitmask."""
        low = (1 << len(prefix)) - 1
        bits = sum(c << i for i, c in enumerate(prefix))
        for mask, p in enumerate(self.table):
            if p and mask & low == bits:
                yield p, [v for i, v in enumerate(self.vectors) if (mask >> i) & 1]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "vectors": [[format_rational(x) for x in v] for v in self.vectors],
            "table": {str(mask): format_rational(p)
                      for mask, p in enumerate(self.table) if p},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SRInstance":
        if not (isinstance(d, dict) and type(d.get("n")) is int
                and type(d.get("m")) is int and isinstance(d.get("table"), dict)
                and isinstance(d.get("vectors"), list)
                and all(isinstance(v, list) for v in d["vectors"])):
            raise ValueError('an SR family is a JSON object {"n": int, "m": int, '
                             '"table": {"<bitmask>": "p/q"}, "vectors": [["p/q", ...], ...]}')
        m = d["m"]
        if not 0 <= m <= SR_MAX_M:  # before the 2^m table is allocated
            raise ValueError(f"dense table needs 0 <= m <= {SR_MAX_M}, got m={m}")
        table = [Fraction(0)] * (1 << m)
        for key, p in d["table"].items():
            mask = int(key) if key.isascii() and key.isdigit() else -1
            if not 0 <= mask < 1 << m or key != str(mask):  # one spelling per mask
                raise ValueError(f"table key {key!r} is not a bitmask below 2^{m}")
            table[mask] = to_fraction(p)
        vectors = tuple(tuple(to_fraction(x) for x in v) for v in d["vectors"])
        return cls(d["n"], m, vectors, tuple(table))


class SROracle(FamilyOracle):
    """Coefficients from subset marginals of the restricted table.

    Runs on the same integer kernel as ``KSOracle``, over the m fixed
    vectors: det Gram(v_i : i in T) is the determinant of the sub-table
    over L^(2|T|), bordered from that of T without its last element and
    memoized per subset.  The table's probabilities are taken over their
    one common denominator, so the x^(n-j) coefficient is formed as one
    Fraction over denom * L^(2j).
    """

    def __init__(self, inst: SRInstance):
        self.inst = inst
        self.spec = inst.spec()
        self._walks: Dict = {}  # round_family's walks, by (spec, k)
        self._kernel = _GramKernel([[v] for v in inst.vectors])
        self._row = [rows[0] for rows in self._kernel.rows]
        self._memo: Dict[Tuple[int, ...], Optional[tuple]] = {(): ([1], [])}
        self._denom = math.lcm(*(p.denominator for p in inst.table))
        self._weights = [p.numerator * (self._denom // p.denominator) for p in inst.table]

    def _bordered(self, subset: Tuple[int, ...]) -> Optional[tuple]:
        """(leading minors, reduced rows) of the Gram sub-table on
        ``subset``, bordered from that of ``subset[:-1]``; None once a
        leading minor is 0."""
        if subset not in self._memo:
            head, state = self._bordered(subset[:-1]), None
            if head is not None:
                pivots, reduced = head
                p, x = self._kernel.border([self._row[i] for i in subset[:-1]], reduced,
                                           pivots, self._row[subset[-1]])
                if p:
                    state = (pivots + [p], reduced + [x])
            self._memo[subset] = state
        return self._memo[subset]

    def coeffs(self, prefix: Tuple[int, ...], k: int) -> Tuple[Fraction, ...]:
        self._check(prefix, k)
        m = self.inst.m
        kernel = self._kernel
        low = (1 << len(prefix)) - 1
        bits = sum(c << i for i, c in enumerate(prefix))
        top = min(k, m, kernel.dim)
        sums = [0] * (k + 1)
        for mask, w in enumerate(self._weights):
            if w == 0 or mask & low != bits:
                continue
            members = [i for i in range(m) if (mask >> i) & 1]
            sums[0] += w
            for j in range(1, min(top, len(members)) + 1):
                acc = 0
                for subset in combinations(members, j):
                    state = self._bordered(subset)
                    acc += state[0][-1] if state else 0  # the sub-table's determinant
                sums[j] += w * acc
        return (Fraction(sums[0], self._denom),) + tuple(
            Fraction((-1) ** j * sums[j], self._denom * kernel.scale**j) for j in range(1, k + 1))


# ---------------------------------------------------------------------------
# the cross-check: every leaf enumerated
# ---------------------------------------------------------------------------


def brute_force_leaves(inst: KSInstance | SRInstance, prefix: Tuple[int, ...] = ()
                       ) -> Iterator[Tuple[Fraction, IntPoly, int]]:
    """(probability, coefficients, scale) of every leaf extending
    ``prefix``, in the order of ``inst.leaves``: the leaf's unweighted
    characteristic polynomial is x^(n-d) sum_i c_i x^i / scale, d =
    ``inst.dim``, with the c_i ascending integers.

    Independent test oracle for the coefficient formulas.  It is
    exponential in the unfixed coordinates, so it refuses more leaves than
    the largest SR table holds, 2^SR_MAX_M, before forming any; each leaf
    is formed as it is read, so a reader holds only what it keeps.
    """
    count = math.prod(inst.spec().sizes[len(prefix):])
    if count > 1 << SR_MAX_M:
        raise ValueError(f"{count} leaves exceed the exhaustive check's budget of 2^{SR_MAX_M}")
    d = inst.dim
    return ((p, *_rank_one_char_poly(vectors, d)) for p, vectors in inst.leaves(prefix))


def expected_poly(n: int, leaves: Iterable[Tuple[Fraction, IntPoly, int]]) -> ExactPolynomial:
    """sum p * leaf over ``leaves`` as :func:`brute_force_leaves` gives
    them, padded to degree n: one integer sum over a common denominator
    that grows as the leaves come in, so nothing per leaf is kept."""
    den, total = 1, []
    for p, coeffs, scale in leaves:
        if not p:
            continue
        q = p.denominator * scale
        if den % q:
            grow = q // math.gcd(den, q)
            den *= grow
            total = [t * grow for t in total]
        f = p.numerator * (den // q)
        total = [t + f * c for t, c in zip(total or [0] * len(coeffs), coeffs)]
    return ExactPolynomial([Fraction(0)] * (n + 1 - len(total)) + [Fraction(t, den) for t in total])


def brute_force_poly(inst: KSInstance | SRInstance,
                     prefix: Tuple[int, ...] = ()) -> ExactPolynomial:
    """Expected characteristic polynomial by full enumeration of the leaves."""
    return expected_poly(inst.n, brute_force_leaves(inst, prefix))


# ---------------------------------------------------------------------------
# the rounding algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepLog:
    prefix_length: int
    group: Tuple[int, ...]
    candidates: int
    chosen: Tuple[int, ...]
    estimate: Fraction


@dataclass
class RoundingResult:
    assignment: Tuple[int, ...]
    certified: bool
    lambda_leaf: Tuple[Fraction, Fraction]
    lambda_root: Tuple[Fraction, Fraction]
    epsilon: Fraction
    k_used: int
    group_size: int
    steps: List[StepLog] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "assignment": list(self.assignment),
            "certified": self.certified,
            "lambda_leaf": [format_rational(v) for v in self.lambda_leaf],
            "lambda_root": [format_rational(v) for v in self.lambda_root],
            "epsilon": format_rational(self.epsilon),
            "k_used": self.k_used,
            "group_size": self.group_size,
            "per_step_log": [
                {
                    "prefix_length": s.prefix_length,
                    "group": list(s.group),
                    "candidates": s.candidates,
                    "chosen": list(s.chosen),
                    "estimate": format_rational(s.estimate),
                }
                for s in self.steps
            ],
        }


def rounding_coefficient_budget(n: int, m: int, eps: Fraction) -> Tuple[int, int]:
    """(group size M, coefficient count k) for the given accuracy.

    M = ceil(m^(1/3)); k = ceil(20 ln(n) M sqrt(2/eps)) capped at n, so
    each step's estimate carries factor about 1 + eps/(2 M^2).
    """
    r = iroot_floor(m, 3)
    M = r if r**3 == m else r + 1
    ln_hi = ln_bounds(Fraction(n))[1]
    s_hi = nth_root_upper(2 / eps, 2)
    target = 20 * ln_hi * M * s_hi
    k = -((-target.numerator) // target.denominator)
    return M, min(n, k)


def _support(raw: Sequence[Fraction], guess: int) -> int:
    """1 + the index of the last nonzero entry of ``raw``, 0 if there is
    none.  Once ``raw[guess:]`` is found all zero in one pass of ``any``,
    the search steps down from ``guess``; otherwise from the end."""
    top = guess if not any(raw[guess:]) else len(raw)
    while top and not raw[top - 1]:
        top -= 1
    return top


def _profile_from_raw(n: int, raw: Sequence[Fraction], top: int) -> Optional[SymmetricProfile]:
    """Monic-normalize oracle coefficients into a profile; None if zero.
    ``top`` is :func:`_support` of ``raw``: the entries from it on are 0."""
    lead = raw[0]
    if lead == 0:
        if top:
            raise OracleInconsistencyError("zero leading coefficient on a nonzero polynomial")
        return None
    zero = Fraction(0)
    e = tuple(zero if not c else c / lead if i % 2 == 0 else -c / lead
              for i, c in enumerate(raw[1:top], 1))
    return SymmetricProfile(n, e + (zero,) * (len(raw) - top))


def _walk(spec: FamilySpec, oracle: FamilyOracle, M: int, k: int
          ) -> Tuple[Tuple[int, ...], List[StepLog], RootInterval, RootInterval]:
    """The greedy walk at group size M and budget k: the assignment, the
    step log, and the leaf's and the root's top roots to 2^-40.

    Every step also re-checks the oracle's refinement consistency: the
    children's coefficient vectors must sum exactly to the vector scored
    for their prefix.  Each vector is asked for once: the first group's
    parent comes from the oracle, every later group's parent is the
    chosen child of the group before it (the same prefix at the same k),
    and when k = n the leaf and the root are the last chosen child and
    the first parent.  Sums and profiles stop at each vector's last
    nonzero coefficient (``_support``, searched from the parent's).
    """
    m, n = spec.m, spec.n
    prefix: Tuple[int, ...] = ()
    steps: List[StepLog] = []
    first = parent = oracle.coeffs(prefix, k)
    parent_top = _support(parent, k + 1)
    while len(prefix) < m:
        group = tuple(range(len(prefix), min(len(prefix) + M, m)))
        children = []
        for cand in product(*[range(spec.sizes[i]) for i in group]):
            raw = oracle.coeffs(prefix + cand, k)
            children.append((cand, raw, _support(raw, parent_top)))
        sums = [Fraction(0)] * max(top for _, _, top in children)
        for _, raw, top in children:
            for i in range(top):
                sums[i] += raw[i]
        # the children vanish past len(sums), and the parent past parent_top
        if parent_top > len(sums) or sums != list(parent[:len(sums)]):
            sums += [Fraction(0)] * (k + 1 - len(sums))
            raise OracleInconsistencyError(
                f"children of prefix {prefix} sum to {sums}, "
                f"oracle reports {parent}")
        best_est: Optional[Fraction] = None
        best_cand: Optional[Tuple[int, ...]] = None
        count = 0
        for cand, raw, top in children:
            prof = _profile_from_raw(n, raw, top)
            if prof is None:
                continue
            count += 1
            est = approx_max_root(prof).estimate
            if best_est is None or est < best_est:
                # the next group's parent
                best_est, best_cand, parent, parent_top = est, cand, raw, top
        if best_cand is None:
            raise OracleInconsistencyError(
                f"every extension of prefix {prefix} is identically zero")
        steps.append(StepLog(len(prefix), group, count, best_cand, best_est))
        prefix = prefix + best_cand

    if k == n:
        leaf_raw, root_raw = parent, first
    else:
        leaf_raw, root_raw = oracle.coeffs(prefix, n), oracle.coeffs((), n)
    lam_leaf = max_root(ExactPolynomial(reversed(leaf_raw)), Fraction(1, 2**40))
    lam_root = max_root(ExactPolynomial(reversed(root_raw)), Fraction(1, 2**40))
    return prefix, steps, lam_leaf, lam_root


def round_family(spec: FamilySpec, oracle: FamilyOracle,
                 epsilon: RationalLike) -> RoundingResult:
    """Round an interlacing family to one leaf with a certified bound.

    Walks ceil(m/M) groups of M coordinates; in each group all
    not-identically-zero extensions are scored by approx_max_root on
    their top-k profile and the lexicographically-first argmin wins
    (``_walk``, which also checks that children sum to their parent).
    The returned leaf's largest root is then certified, by exact root
    comparison, to be at most (1+eps) times the root polynomial's: the
    leaf's top enclosure is compared with the root's scaled by 1 + eps
    (:meth:`~rootline.isolation.RootInterval.scaled`), the same exact
    order as isolating the rescaled root polynomial.

    The walk depends on eps only through k, so a ``KSOracle`` or
    ``SROracle`` keeps it, by (spec, k), and a second eps with the same k
    only certifies again; any other oracle is walked on every call.
    """
    eps = to_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    M, k = rounding_coefficient_budget(spec.n, spec.m, eps)
    walks = getattr(oracle, "_walks", {})  # a throwaway dict for any other oracle
    if (spec, k) not in walks:
        walks[(spec, k)] = _walk(spec, oracle, M, k)
    prefix, steps, lam_leaf, lam_root = walks[(spec, k)]
    # compare_roots refines in place: a copy keeps the kept leaf at 2^-40,
    # and the root is only read through its scaled copy
    lam_leaf = copy.copy(lam_leaf)
    # exact decision lambda(leaf) <= (1+eps) * lambda(root)
    certified = compare_roots(lam_leaf, lam_root.scaled(1 + eps)) <= 0
    return RoundingResult(
        assignment=prefix,
        certified=certified,
        lambda_leaf=(lam_leaf.lo, lam_leaf.hi),
        lambda_root=(lam_root.lo, lam_root.hi),
        epsilon=eps,
        k_used=k,
        group_size=M,
        steps=list(steps),
    )
