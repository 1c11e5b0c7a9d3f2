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
polynomial is literally the sum of its children's, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

from rootline.isolation import compare_roots, isolate_real_roots, max_root
from rootline.maxroot import approx_max_root
from rootline.poly import ExactPolynomial, SquareMatrixQ, char_poly
from rootline.ratutil import (
    RationalLike,
    format_rational,
    iroot_floor,
    ln_bounds,
    sqrt_upper,
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
        top = root_lists[0][j]
        for lst in root_lists[1:]:
            if compare_roots(lst[j], top) > 0:
                top = lst[j]
        for lst in root_lists:
            if compare_roots(top, lst[j + 1]) > 0:
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


def _bareiss_det(mat: List[List[int]]) -> int:
    """Fraction-free exact integer determinant (Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if mat[r][k] != 0), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        pkk = mat[k][k]
        for i in range(k + 1, n):
            mik = mat[i][k]
            row_i = mat[i]
            row_k = mat[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * mat[n - 1][n - 1]


class _GramKernel:
    """The exact integer kernel both oracles run on.

    Coordinate i offers the vectors ``choices[i]`` and carries an integer
    scale P_i for its probabilities (1 where the oracle keeps them
    elsewhere).  Each distinct vector v is scaled once to the integer
    vector L_v v, L_v the lcm of its entry denominators, and ``gram``
    holds every integer inner product of the scaled vectors (shorter
    vectors read as zero-padded).  With Q_i the lcm of L_v^2 over
    coordinate i's vectors, Q_i / L_v^2 is the integer ``lift[i][c]``, so
    for one choice c_i per coordinate of T

        det Gram(v_{i,c_i} : i in T) * prod_{i in T} Q_i
            = det(rows) * prod_{i in T} lift[i][c_i],

    an integer.  ``cofactor(T)`` is S / S_T, with S_T the product of
    P_i Q_i over T and S = S_[m]: it brings per-subset integers to the
    one denominator S.

    Simultaneous row and column permutations leave a determinant alone,
    so ``det`` runs Bareiss once per distinct set of rows (with
    repeats), memoized on the sorted row tuple for the oracle's life.
    """

    def __init__(self, choices: Sequence[Sequence[Tuple[Fraction, ...]]],
                 prob_scales: Sequence[int]):
        index: Dict[Tuple[Fraction, ...], int] = {}
        ints: List[List[int]] = []
        square: List[int] = []
        self.rows: List[List[int]] = []  # rows[i][c]: table row of choice c of coordinate i
        self.lift: List[List[int]] = []
        self.scales: List[int] = []  # P_i Q_i
        for vectors, P in zip(choices, prob_scales):
            rows = []
            for v in vectors:
                a = index.get(v)
                if a is None:
                    a = index[v] = len(ints)
                    L = math.lcm(*(x.denominator for x in v))
                    ints.append([x.numerator * (L // x.denominator) for x in v])
                    square.append(L * L)
                rows.append(a)
            Q = math.lcm(*(square[a] for a in rows))
            self.rows.append(rows)
            self.lift.append([Q // square[a] for a in rows])
            self.scales.append(P * Q)
        self.total = math.prod(self.scales)
        self.dim = max(map(len, ints), default=0)  # rank bound on every Gram matrix
        self.gram = [[sum(x * y for x, y in zip(u, w)) for w in ints] for u in ints]
        self._dets: Dict[Tuple[int, ...], int] = {}

    def det(self, rows: Sequence[int]) -> int:
        """Determinant of the integer Gram sub-table on ``rows``."""
        key = tuple(sorted(rows))
        hit = self._dets.get(key)
        if hit is None:
            g = self.gram
            hit = self._dets[key] = _bareiss_det([[g[a][b] for b in key] for a in key])
        return hit

    def cofactor(self, subset: Sequence[int]) -> int:
        s_t = 1
        for i in subset:
            s_t *= self.scales[i]
        return self.total // s_t


# ---------------------------------------------------------------------------
# Kadison-Singer style oracle: independent finite-support random vectors
# ---------------------------------------------------------------------------


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
        if not (isinstance(d, dict) and isinstance(d.get("n"), int)
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
    (``_GramKernel``): each distinct support vector v is scaled once by
    L_v, the lcm of its entry denominators, and all integer inner products
    are stored, so a Gram determinant is Bareiss on a sub-table.  With
    P_i the lcm of coordinate i's probability denominators and Q_i the lcm
    of L_v^2 over its support, N_T = E_T * prod_{i in T} P_i Q_i is an
    integer; it is memoized per subset and the choices fixed inside it.
    Each coefficient is then the one Fraction
    (-1)^j weight * (sum_T N_T * S / S_T) / S, with S_T = prod_{i in T} P_i Q_i
    and S = S_[m].
    """

    def __init__(self, inst: KSInstance):
        self.inst = inst
        self.spec = inst.spec()
        self._memo: Dict = {}
        prob_scales = [math.lcm(*(p.denominator for _, p in sup)) for sup in inst.supports]
        kernel = self._kernel = _GramKernel(
            [[v for v, _ in sup] for sup in inst.supports], prob_scales)
        # per coordinate, (table row, integer weight) of each outcome: a free
        # coordinate weighs p P_i Q_i / L_v^2 (zero-probability outcomes left
        # out), a fixed one P_i Q_i / L_v^2, its probability being in the prefix
        self._free = []
        self._fixed = []
        for sup, P, rows, lift in zip(inst.supports, prob_scales, kernel.rows, kernel.lift):
            self._free.append([(a, p.numerator * (P // p.denominator) * q)
                               for (_, p), a, q in zip(sup, rows, lift) if p])
            self._fixed.append([((a, P * q),) for a, q in zip(rows, lift)])

    def _expected_sigma(self, subset: Tuple[int, ...],
                        fixed: Tuple[Tuple[int, int], ...]) -> int:
        """N_T for T = subset, with the choices ``fixed`` inside T."""
        key = (subset, fixed)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        fixed_map = dict(fixed)
        options = [self._fixed[i][fixed_map[i]] if i in fixed_map else self._free[i]
                   for i in subset]
        det = self._kernel.det
        total = 0
        for outcome in product(*options):
            weight = 1
            for _, w in outcome:
                weight *= w
            total += weight * det([a for a, _ in outcome])
        self._memo[key] = total
        return total

    def coeffs(self, prefix: Tuple[int, ...], k: int) -> Tuple[Fraction, ...]:
        self._check(prefix, k)
        inst = self.inst
        m = inst.m
        weight = Fraction(1)
        for i, c in enumerate(prefix):
            weight *= inst.supports[i][c][1]
        out = [weight] + [Fraction(0)] * k
        if weight == 0:
            return tuple(out)
        ell = len(prefix)
        kernel = self._kernel
        for j in range(1, min(k, m, kernel.dim) + 1):
            acc = 0
            for subset in combinations(range(m), j):
                fixed = tuple((i, prefix[i]) for i in subset if i < ell)
                acc += self._expected_sigma(subset, fixed) * kernel.cofactor(subset)
            out[j] = Fraction((-1) ** j * weight.numerator * acc,
                              weight.denominator * kernel.total)
        return tuple(out)


def ks_oracle(inst: KSInstance) -> KSOracle:
    return KSOracle(inst)


def _rank_one_char_poly(vectors: Sequence[Sequence[Fraction]], d: int) -> ExactPolynomial:
    """Characteristic polynomial of the d x d matrix sum v v^T, each v read
    as zero-padded to length d."""
    rows = [[Fraction(0)] * d for _ in range(d)]
    for v in vectors:
        for a, va in enumerate(v):
            if va:
                for b, vb in enumerate(v):
                    if vb:
                        rows[a][b] += va * vb
    return char_poly(SquareMatrixQ(rows))


def _pad(p: ExactPolynomial, d: int, n: int) -> ExactPolynomial:
    """x^(n-d) p: a degree-d characteristic polynomial in ambient dimension n.

    x^(D-d) times the characteristic polynomial of a d x d matrix is that
    of the D x D matrix bordered by zeros, so sums of characteristic
    polynomials can be taken at any common D <= n and padded once.
    """
    return ExactPolynomial([Fraction(0)] * (n - d) + list(p.coeffs))


def ks_brute_force_poly(inst: KSInstance, prefix: Tuple[int, ...] = ()) -> ExactPolynomial:
    """Expected characteristic polynomial by full outcome enumeration.

    Independent test oracle for the coefficient formulas; exponential in
    the number of unfixed coordinates.
    """
    m = inst.m
    d = max([len(v) for sup in inst.supports for v, _ in sup] + [1])
    free = list(range(len(prefix), m))
    total = ExactPolynomial.zero()
    for outcome in product(*[range(len(inst.supports[i])) for i in free]):
        choices = list(prefix) + list(outcome)
        weight = Fraction(1)
        for i, c in enumerate(choices):
            weight *= inst.supports[i][c][1]
        if weight == 0:
            continue
        vectors = [inst.supports[i][c][0] for i, c in enumerate(choices)]
        total = total + _rank_one_char_poly(vectors, d).scale(weight)
    return _pad(total, d, inst.n)


def padded_coeffs(p: ExactPolynomial, n: int) -> Tuple[Fraction, ...]:
    """The coefficients of x^n down to x^0 of p (degree at most n), laid
    out as ``FamilyOracle.coeffs(prefix, n)`` returns them."""
    return tuple(p.coeff(n - i) for i in range(n + 1))


def ks_leaf_poly(inst: KSInstance, choices: Tuple[int, ...]) -> ExactPolynomial:
    """Unweighted char poly of the chosen rank-one sum, padded to degree n."""
    vectors = [inst.supports[i][c][0] for i, c in enumerate(choices)]
    d = max([len(v) for v in vectors] + [1])
    return _pad(_rank_one_char_poly(vectors, d), d, inst.n)


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
        if not (isinstance(d, dict) and isinstance(d.get("n"), int)
                and isinstance(d.get("m"), int) and isinstance(d.get("table"), dict)
                and isinstance(d.get("vectors"), list)
                and all(isinstance(v, list) for v in d["vectors"])):
            raise ValueError('an SR family is a JSON object {"n": int, "m": int, '
                             '"table": {"<bitmask>": "p/q"}, "vectors": [["p/q", ...], ...]}')
        m = d["m"]
        if not 0 <= m <= SR_MAX_M:  # before the 2^m table is allocated
            raise ValueError(f"dense table needs 0 <= m <= {SR_MAX_M}, got m={m}")
        table = [Fraction(0)] * (1 << m)
        for mask, p in d["table"].items():
            if not mask.isdigit() or int(mask) >= 1 << m:
                raise ValueError(f"table key {mask!r} is not a bitmask below 2^{m}")
            table[int(mask)] = to_fraction(p)
        vectors = tuple(tuple(to_fraction(x) for x in v) for v in d["vectors"])
        return cls(d["n"], m, vectors, tuple(table))


class SROracle(FamilyOracle):
    """Coefficients from subset marginals of the restricted table.

    Runs on the same integer kernel as ``KSOracle``, over the m fixed
    vectors: N_T = det Gram(v_i : i in T) * prod_{i in T} L_i^2 is the
    Bareiss determinant of the sub-table, memoized per subset, and the
    table's probabilities are taken over their one common denominator, so
    each coefficient is formed as one Fraction.
    """

    def __init__(self, inst: SRInstance):
        self.inst = inst
        self.spec = inst.spec()
        self._memo: Dict[Tuple[int, ...], int] = {}
        self._kernel = _GramKernel([[v] for v in inst.vectors], [1] * inst.m)
        self._denom = math.lcm(*(p.denominator for p in inst.table))
        self._weights = [p.numerator * (self._denom // p.denominator) for p in inst.table]

    def _sigma(self, subset: Tuple[int, ...]) -> int:
        hit = self._memo.get(subset)
        if hit is None:
            kernel = self._kernel
            hit = self._memo[subset] = kernel.det([kernel.rows[i][0] for i in subset])
        return hit

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
                    acc += self._sigma(subset) * kernel.cofactor(subset)
                sums[j] += w * acc
        return (Fraction(sums[0], self._denom),) + tuple(
            Fraction((-1) ** j * sums[j], self._denom * kernel.total) for j in range(1, k + 1))


def sr_oracle(inst: SRInstance) -> SROracle:
    return SROracle(inst)


def sr_brute_force_poly(inst: SRInstance, prefix: Tuple[int, ...] = ()) -> ExactPolynomial:
    """Probability-weighted sum of exact characteristic polynomials."""
    d = max([len(v) for v in inst.vectors] + [1])
    total = ExactPolynomial.zero()
    ell = len(prefix)
    for mask, p in enumerate(inst.table):
        if p == 0:
            continue
        if any(((mask >> i) & 1) != prefix[i] for i in range(ell)):
            continue
        vecs = [inst.vectors[i] for i in range(inst.m) if (mask >> i) & 1]
        total = total + _rank_one_char_poly(vecs, d).scale(p)
    return _pad(total, d, inst.n)


# ---------------------------------------------------------------------------
# the rounding algorithm
# ---------------------------------------------------------------------------


@dataclass
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
    s_hi = sqrt_upper(2 / eps)
    target = 20 * ln_hi * M * s_hi
    k = -((-target.numerator) // target.denominator)
    return M, min(n, k)


def _profile_from_raw(n: int, raw: Sequence[Fraction]) -> Optional[SymmetricProfile]:
    """Monic-normalize oracle coefficients into a profile; None if zero."""
    lead = raw[0]
    if lead == 0:
        if any(raw):
            raise OracleInconsistencyError("zero leading coefficient on a nonzero polynomial")
        return None
    zero = Fraction(0)
    e = tuple(zero if not c else c / lead if i % 2 == 0 else -c / lead
              for i, c in enumerate(raw[1:], 1))
    return SymmetricProfile(n, e)


def _poly_from_raw(n: int, raw: Sequence[Fraction]) -> ExactPolynomial:
    """Full polynomial from the n+1 leading coefficients, monic-normalized."""
    lead = raw[0]
    coeffs = [raw[n - i] / lead for i in range(n + 1)]
    return ExactPolynomial(coeffs)


def round_family(spec: FamilySpec, oracle: FamilyOracle,
                 epsilon: RationalLike) -> RoundingResult:
    """Round an interlacing family to one leaf with a certified bound.

    Walks ceil(m/M) groups of M coordinates; in each group all
    not-identically-zero extensions are scored by approx_max_root on
    their top-k profile and the lexicographically-first argmin wins.
    The returned leaf's largest root is then certified, by exact root
    comparison, to be at most (1+eps) times the root polynomial's.

    Every step also re-checks the oracle's refinement consistency: the
    children's coefficient vectors must sum to the parent's exactly.
    """
    eps = to_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    m, n = spec.m, spec.n
    M, k = rounding_coefficient_budget(n, m, eps)

    prefix: Tuple[int, ...] = ()
    steps: List[StepLog] = []
    while len(prefix) < m:
        group = tuple(range(len(prefix), min(len(prefix) + M, m)))
        children = [(cand, oracle.coeffs(prefix + cand, k))
                    for cand in product(*[range(spec.sizes[i]) for i in group])]
        parent = oracle.coeffs(prefix, k)
        sums = [Fraction(0)] * (k + 1)
        for _, raw in children:
            for i, c in enumerate(raw):
                if c:
                    sums[i] += c
        if tuple(sums) != tuple(parent):
            raise OracleInconsistencyError(
                f"children of prefix {prefix} sum to {sums}, "
                f"oracle reports {parent}")
        best_est: Optional[Fraction] = None
        best_cand: Optional[Tuple[int, ...]] = None
        count = 0
        for cand, raw in children:
            prof = _profile_from_raw(n, raw)
            if prof is None:
                continue
            count += 1
            est = approx_max_root(prof).estimate
            if best_est is None or est < best_est:
                best_est, best_cand = est, cand
        if best_cand is None:
            raise OracleInconsistencyError(
                f"every extension of prefix {prefix} is identically zero")
        steps.append(StepLog(len(prefix), group, count, best_cand, best_est))
        prefix = prefix + best_cand

    leaf = _poly_from_raw(n, oracle.coeffs(prefix, n))
    root = _poly_from_raw(n, oracle.coeffs((), n))
    lam_leaf = max_root(leaf, Fraction(1, 2**40))
    lam_root = max_root(root, Fraction(1, 2**40))
    # exact decision lambda(leaf) <= (1+eps) * lambda(root)
    scaled_root = root.shift_scale(1 + eps, 0)
    lam_scaled = max_root(scaled_root, Fraction(1, 2**40))
    certified = compare_roots(lam_leaf, lam_scaled) <= 0
    return RoundingResult(
        assignment=prefix,
        certified=certified,
        lambda_leaf=(lam_leaf.lo, lam_leaf.hi),
        lambda_root=(lam_root.lo, lam_root.hi),
        epsilon=eps,
        k_used=k,
        group_size=M,
        steps=steps,
    )
