import gc
import math
import random
import re
import tracemalloc
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyref import RefPolynomial as P
from rootline.interlacing import (
    FamilySpec,
    KSInstance,
    KSOracle,
    OracleInconsistencyError,
    SRInstance,
    SROracle,
    _GramKernel,
    brute_force_poly,
    check_common_interlacing,
    ks_leaf_poly,
    ks_oracle,
    padded_coeffs,
    round_family,
    rounding_coefficient_budget,
)
from rootline.isolation import compare_roots, max_root
from rootline.lowerbounds import noisy_pair
from rootline.selftest import random_ks_instance, two_block_ks_instance

E1 = (F(1), F(0))
E2 = (F(0), F(1))


def _coin(v_a, v_b):
    return ((v_a, F(1, 2)), (v_b, F(1, 2)))


def test_interlacing_identical():
    p = P.from_roots([1, 3, 5])
    assert check_common_interlacing([p, p, p])


def test_interlacing_disjoint_fails():
    assert not check_common_interlacing([P.from_roots([1, 2]), P.from_roots([5, 6])])


def test_interlacing_noisy_pair():
    pair = noisy_pair(2, 4)
    assert check_common_interlacing([pair.p, pair.q])


def test_interlacing_rejects_complex_roots():
    with pytest.raises(ValueError):
        check_common_interlacing([P([1, 0, 1])])


def test_interlacing_shifted_copies():
    a = P.from_roots([0, 2])
    b = P.from_roots([1, 3])
    assert check_common_interlacing([a, b])
    assert not check_common_interlacing([a, P.from_roots([4, 6])])
    # wide roots can bridge narrow ones: {0,10} interlaces with both
    assert check_common_interlacing([P.from_roots([0, 10]), P.from_roots([4, 6])])


def test_ks_instance_validation():
    with pytest.raises(ValueError):
        KSInstance(2, ((((F(1),), F(1, 2)),),))  # probs sum to 1/2
    with pytest.raises(ValueError):
        KSInstance(1, (((E1, F(1)),),))  # vector longer than ambient


def test_ks_oracle_small_cross_check():
    inst = KSInstance(2, (_coin(E1, E2), _coin(E1, E2)))
    orc = ks_oracle(inst)
    brute = brute_force_poly(inst)
    assert orc.coeffs((), 2) == tuple(reversed(brute.coeffs))
    # E det(xI - sum r r^T) = 1/2 (x-1)^2 + 1/2 (x-2)x = x^2 - 2x + 1/2
    assert brute == P([F(1, 2), -2, 1])


def test_ks_oracle_k1_is_minus_expected_trace():
    inst = KSInstance(3, (_coin((F(1), F(1), F(0)), (F(0), F(0), F(2))),))
    orc = ks_oracle(inst)
    c = orc.coeffs((), 1)
    assert c[1] == -(F(1, 2) * 2 + F(1, 2) * 4)


def test_ks_oracle_deterministic_prefix_is_char_poly():
    inst = KSInstance(2, (_coin(E1, E2), _coin(E1, E2)))
    orc = ks_oracle(inst)
    # integer vectors (L = 1): the leaf's integers are its char poly itself
    leaf = P(ks_leaf_poly(inst, (0, 0))).scale(F(1, 4))
    assert orc.coeffs((0, 0), 2) == tuple(reversed(leaf.coeffs))


def test_ks_refinement_consistency_random():
    rng = random.Random(88)
    for _ in range(6):
        inst = random_ks_instance(rng, max_outcomes=256)
        orc = ks_oracle(inst)
        ell = rng.randrange(inst.m)
        prefix = tuple(rng.randrange(len(inst.supports[i])) for i in range(ell))
        want = orc.coeffs(prefix, inst.n)
        total = [F(0)] * (inst.n + 1)
        for t in range(len(inst.supports[ell])):
            child = orc.coeffs(prefix + (t,), inst.n)
            total = [a + b for a, b in zip(total, child)]
        assert tuple(total) == want


def test_ks_padding_adds_zero_roots():
    inst = KSInstance(5, (_coin(E1, E2),))
    leaf = ks_leaf_poly(inst, (0,))
    assert leaf == (0, 0, 0, 0, -1, 1)  # x^3 (x^2 - x): degree 5, x | leaf


def test_ks_leaf_poly_rational_vectors_keep_their_roots():
    # L = 6: the integers are det(xI - M) times 6^(2d), so a positive
    # multiple of the padded char poly; M = diag(1/4, 1/9) bordered by zeros
    inst = KSInstance(4, ((((F(1, 2), F(0)), F(1)),), (((F(0), F(1, 3)), F(1)),)))
    leaf = ks_leaf_poly(inst, (0, 0))
    want = P.from_roots([F(1, 4), F(1, 9), 0, 0])
    assert P(leaf) == want.scale(6**4)
    top = max_root(leaf, F(1, 2**20))
    assert top.exact and top.lo == F(1, 4)


def test_round_family_m1_picks_smaller_root():
    # r_1 in {2 e_1, e_2}: leaves (x-4)x and (x-1)x; second has smaller top root
    inst = KSInstance(2, (_coin((F(2), F(0)), E2),))
    res = round_family(inst.spec(), ks_oracle(inst), F(1, 2))
    assert res.assignment == (1,)
    assert res.certified


_IDENTICAL_LEAVES = KSInstance(2, ((((F(1), F(1)), F(1)),), (((F(1), F(-1)), F(1)),)))


def test_round_family_identical_leaves():
    inst = _IDENTICAL_LEAVES
    res = round_family(inst.spec(), ks_oracle(inst), F(1, 8))
    assert res.assignment == (0, 0)
    assert res.certified
    assert res.lambda_leaf == res.lambda_root


def test_round_family_exhaustive_optimality_gap():
    rng = random.Random(99)
    inst = two_block_ks_instance(rng, 8, 2, 256)
    orc = ks_oracle(inst)
    res = round_family(inst.spec(), orc, F(1, 2))
    assert res.certified
    # interlacing guarantee: min leaf required to sit below the root polynomial
    root = brute_force_poly(inst).monic()
    lam_root = max_root(root, F(1, 2**30))
    best = None
    for bits in range(1 << inst.m):
        choices = tuple((bits >> i) & 1 for i in range(inst.m))
        lam = max_root(ks_leaf_poly(inst, choices), F(1, 2**20))
        if best is None or compare_roots(lam, best) < 0:
            best = lam
    assert compare_roots(best, lam_root) <= 0


def test_round_family_detects_inconsistent_oracle():
    inst = KSInstance(2, (_coin(E1, E2), _coin(E1, E2)))

    class LyingOracle:
        def __init__(self):
            self.real = ks_oracle(inst)
            self.spec = inst.spec()

        def coeffs(self, prefix, k):
            out = self.real.coeffs(prefix, k)
            if prefix == (0, 0):  # one leaf lies: children no longer sum up
                out = tuple(c + 1 for c in out)
            return out

    with pytest.raises(OracleInconsistencyError):
        round_family(inst.spec(), LyingOracle(), F(1, 2))


class CountingOracle:
    """Passes calls through to an oracle and records each (prefix, k)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def coeffs(self, prefix, k):
        self.calls.append((prefix, k))
        return self.inner.coeffs(prefix, k)


def _children_per_group(spec, M):
    return [len(list(product(*[range(spec.sizes[i]) for i in range(s, min(s + M, spec.m))])))
            for s in range(0, spec.m, M)]


def test_round_family_asks_for_each_vector_once_when_k_is_n():
    inst = two_block_ks_instance(random.Random(7), 8, 2, 16)
    spec, eps = inst.spec(), F(1, 2)
    M, k = rounding_coefficient_budget(inst.n, inst.m, eps)
    assert k == inst.n
    counting = CountingOracle(ks_oracle(inst))
    res = round_family(spec, counting, eps)
    assert res.to_json_dict() == round_family(spec, ks_oracle(inst), eps).to_json_dict()
    assert len(counting.calls) == sum(_children_per_group(spec, M)) + 1
    assert len(set(counting.calls)) == len(counting.calls)
    assert counting.calls[0] == ((), k)


def test_round_family_asks_for_leaf_and_root_when_k_is_below_n():
    # a small m in a large ambient dimension: the budget caps k below n
    inst = KSInstance(1000, (_coin((F(2), F(0)), E2), _coin(E1, (F(0), F(3)))))
    spec, eps = inst.spec(), F(1, 2)
    M, k = rounding_coefficient_budget(inst.n, inst.m, eps)
    assert k < inst.n
    counting = CountingOracle(ks_oracle(inst))
    res = round_family(spec, counting, eps)
    assert res.assignment == (1, 0) and res.certified
    at_k = [c for c in counting.calls if c[1] == k]
    assert len(at_k) == sum(_children_per_group(spec, M)) + 1
    assert [c for c in counting.calls if c[1] != k] == [(res.assignment, inst.n), ((), inst.n)]


def _count_ks_coeffs(monkeypatch):
    """Record the (prefix, k) of every ``KSOracle.coeffs`` call from now on."""
    calls = []
    coeffs = KSOracle.coeffs

    def counted(self, prefix, k):
        calls.append((prefix, k))
        return coeffs(self, prefix, k)

    monkeypatch.setattr(KSOracle, "coeffs", counted)
    return calls


_TINY = F(1, 2**30)
# four identical leaves s^2 [[2, 1], [1, 1]], top root s^2 (3 + sqrt 5) / 2:
# the leaf's and the scaled root's 2^-40 enclosures overlap, so the
# certificate refines the leaf's enclosure in place
_TINY_IDENTICAL_LEAVES = KSInstance(2, (_coin((_TINY, F(0)), (_TINY, F(0))),
                                        _coin((_TINY, _TINY), (_TINY, _TINY))))


@pytest.mark.parametrize("inst", [two_block_ks_instance(random.Random(7), 8, 2, 16),
                                  _IDENTICAL_LEAVES, _TINY_IDENTICAL_LEAVES],
                         ids=["two-block", "identical-leaves", "tiny-identical-leaves"])
@pytest.mark.parametrize("order", [(F(1, 2), F(1, 8)), (F(1, 8), F(1, 2))],
                         ids=["coarse-first", "fine-first"])
def test_round_family_reuses_its_walk_across_epsilons(inst, order, monkeypatch):
    # both epsilons give k = n, so the second rounding on one oracle walks
    # nothing again; each result is still what a fresh oracle gives, also
    # where compare_roots refines the leaf's enclosure (identical leaves)
    spec = inst.spec()
    assert {rounding_coefficient_budget(inst.n, inst.m, eps)[1] for eps in order} == {inst.n}
    fresh = [round_family(spec, ks_oracle(inst), eps).to_json_dict() for eps in order]
    calls = _count_ks_coeffs(monkeypatch)
    shared = ks_oracle(inst)
    first = round_family(spec, shared, order[0]).to_json_dict()
    assert calls
    del calls[:]
    second = round_family(spec, shared, order[1]).to_json_dict()
    assert calls == []
    assert [first, second] == fresh
    assert round_family(spec, shared, order[0]).to_json_dict() == fresh[0]
    assert calls == []


def test_round_family_walks_again_when_epsilon_changes_k(monkeypatch):
    # the k < n instance of the test above: eps = 1/8 lifts k to n, so it
    # is a second walk; repeating either eps walks nothing
    inst = KSInstance(1000, (_coin((F(2), F(0)), E2), _coin(E1, (F(0), F(3)))))
    spec, coarse, fine = inst.spec(), F(1, 2), F(1, 8)
    k_coarse = rounding_coefficient_budget(inst.n, inst.m, coarse)[1]
    assert k_coarse < rounding_coefficient_budget(inst.n, inst.m, fine)[1] == inst.n
    fresh = {eps: round_family(spec, ks_oracle(inst), eps).to_json_dict()
             for eps in (coarse, fine)}
    calls = _count_ks_coeffs(monkeypatch)
    shared = ks_oracle(inst)
    walked = []
    for eps in (coarse, fine, coarse, fine):
        del calls[:]
        assert round_family(spec, shared, eps).to_json_dict() == fresh[eps]
        walked.append(sorted({k for _, k in calls}))
    assert walked == [[k_coarse, inst.n], [inst.n], [], []]


def test_round_family_detects_a_lie_in_a_later_group():
    # m = 4 walks two groups of two; only children of the second group lie
    inst = KSInstance(2, (_coin(E1, E2),) * 4)
    assert rounding_coefficient_budget(inst.n, inst.m, F(1, 2))[0] == 2

    class LateLiar(CountingOracle):
        def coeffs(self, prefix, k):
            out = super().coeffs(prefix, k)
            return tuple(c + 1 for c in out) if len(prefix) == 4 and prefix[3] == 0 else out

    liar = LateLiar(ks_oracle(inst))
    with pytest.raises(OracleInconsistencyError):
        round_family(inst.spec(), liar, F(1, 2))
    assert any(len(prefix) == 4 for prefix, _ in liar.calls)


def test_round_family_detects_a_lie_past_the_parents_last_coefficient():
    # rank-2 leaves in n = 6: every coefficient past x^4 is 0, and the
    # children's sums stop there; a leaf that lies only in its constant
    # term must still be caught
    inst = KSInstance(6, (_coin(E1, E2), _coin(E1, E2)))

    class TailLiar(CountingOracle):
        def coeffs(self, prefix, k):
            out = super().coeffs(prefix, k)
            return out[:-1] + (out[-1] + 1,) if prefix == (0, 0) else out

    with pytest.raises(OracleInconsistencyError):
        round_family(inst.spec(), TailLiar(ks_oracle(inst)), F(1, 2))


def test_rounding_budget():
    M, k = rounding_coefficient_budget(256, 8, F(1, 2))
    assert M == 2
    assert k == 256  # capped at n
    M, k = rounding_coefficient_budget(10**6, 27, F(1, 2))
    assert M == 3
    assert k < 10**6  # uncapped: about 20 ln(n) M sqrt(2/eps)


def test_sr_point_mass():
    table = [F(0)] * 4
    table[0b11] = F(1)
    inst = SRInstance(2, 2, (E1, E2), tuple(table))
    orc = SROracle(inst)
    # sum v v^T = I: char poly (x-1)^2
    assert orc.coeffs((), 2) == (F(1), F(-2), F(1))


def test_sr_uniform_singletons():
    table = [F(0)] * 4
    table[0b01] = F(1, 2)
    table[0b10] = F(1, 2)
    inst = SRInstance(2, 2, (E1, E2), tuple(table))
    orc = SROracle(inst)
    brute = brute_force_poly(inst)
    assert orc.coeffs((), 2) == tuple(reversed(brute.coeffs))


def test_sr_zero_probability_conditioning():
    table = [F(0)] * 4
    table[0b01] = F(1)  # the support is exactly {coordinate 0}
    inst = SRInstance(2, 2, (E1, E2), tuple(table))
    orc = SROracle(inst)
    assert orc.coeffs((1,), 2)[0] == 1  # conditioning 0 in: consistent
    zero = orc.coeffs((0,), 2)  # conditioning 0 out: probability-zero event
    assert all(c == 0 for c in zero)
    zero2 = orc.coeffs((1, 1), 2)  # coordinate 1 in never happens
    assert all(c == 0 for c in zero2)


def test_sr_homogeneous_marginals_sum():
    # sum over |T| = rank of P[T subset of S] equals 1 for homogeneous mu
    rng = random.Random(41)
    m = 4
    vectors = tuple(tuple(F(rng.randint(-2, 2)) for _ in range(3)) for _ in range(m))
    masks = [mask for mask in range(1 << m) if bin(mask).count("1") == 2]
    weights = [F(rng.randint(1, 5)) for _ in masks]
    total = sum(weights)
    table = [F(0)] * (1 << m)
    for mask, w in zip(masks, weights):
        table[mask] = w / total
    inst = SRInstance(3, m, vectors, tuple(table))
    marg = F(0)
    for subset in combinations(range(m), 2):
        mask_s = sum(1 << i for i in subset)
        marg += sum(table[mask] for mask in range(1 << m)
                    if mask & mask_s == mask_s and table[mask])
    assert marg == 1


def test_sr_rounding():
    table = [F(0)] * 4
    table[0b01] = F(1, 2)
    table[0b10] = F(1, 2)
    inst = SRInstance(2, 2, ((F(2), F(0)), E2), tuple(table))
    res = round_family(inst.spec(), SROracle(inst), F(1, 2))
    assert res.certified
    # the leaf {2 e_1} has root 4; {e_2} has root 1; rounding must avoid 4
    assert res.assignment == (0, 1)


def test_sr_oracle_past_a_singular_leading_pair():
    # v_0 and v_1 are parallel: every subset starting with both is singular,
    # and its four-element extensions must be read as 0, not bordered on
    vectors = ((F(1), F(0), F(0), F(0)), (F(2, 3), F(0), F(0), F(0)),
               (F(0), F(1), F(0), F(0)), (F(0), F(0), F(1), F(0)), (F(0), F(0), F(0), F(1)))
    table = [F(0)] * 32
    for mask, w in ((0b11111, 3), (0b01111, 2), (0b11101, 1), (0b00011, 1)):
        table[mask] = F(w, 7)
    inst = SRInstance(4, 5, vectors, tuple(table))
    orc = SROracle(inst)
    for prefix in _all_prefixes(inst.spec().sizes):
        assert orc.coeffs(prefix, inst.n) == padded_coeffs(brute_force_poly(inst, prefix),
                                                           inst.n), prefix


def test_sr_json_round_trip():
    table = [F(0)] * 4
    table[0b10] = F(1)
    inst = SRInstance(2, 2, (E1, E2), tuple(table))
    back = SRInstance.from_json_dict(inst.to_json_dict())
    assert back == inst


def test_ks_json_round_trip():
    inst = KSInstance(2, (_coin(E1, E2),))
    back = KSInstance.from_json_dict(inst.to_json_dict())
    assert back == inst


@pytest.mark.parametrize("prefix", [(-1,), (2,), (0, 0)])
def test_ks_oracle_rejects_invalid_prefix(prefix):
    # one two-outcome coordinate: -1 would index from the end, 2 past it
    inst = KSInstance(2, (_coin(E1, E2),))
    with pytest.raises(ValueError):
        ks_oracle(inst).coeffs(prefix, 2)


@pytest.mark.parametrize("prefix", [(0, 0, 0), (2,), (-1,)])
def test_sr_oracle_rejects_invalid_prefix(prefix):
    inst = SRInstance(2, 1, (E1,), (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        SROracle(inst).coeffs(prefix, 2)


@pytest.mark.parametrize("k", [-1, 3])
def test_oracles_reject_k_outside_0_to_n(k):
    with pytest.raises(ValueError):
        ks_oracle(KSInstance(2, (_coin(E1, E2),))).coeffs((), k)
    with pytest.raises(ValueError):
        SROracle(SRInstance(2, 1, (E1,), (F(1, 2), F(1, 2)))).coeffs((), k)


def _mixed_vector(rng, pool, d):
    """A vector of length 1..d over denominators 1, 2, 3, 5, 7, or one
    already drawn (so vectors repeat within and across coordinates)."""
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    v = tuple(F(rng.randint(-3, 3), rng.choice([1, 2, 3, 5, 7]))
              for _ in range(rng.randint(1, d)))
    pool.append(v)
    return v


def _mixed_ks_instance(rng, m, d):
    pool = []
    sups = []
    for _ in range(m):
        width = rng.choice([1, 2, 3])
        weights = [rng.randint(0, 3) for _ in range(width)]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        sups.append(tuple((_mixed_vector(rng, pool, d), F(w, total)) for w in weights))
    return KSInstance(d + 1, tuple(sups))


def _all_prefixes(sizes):
    for ell in range(len(sizes) + 1):
        yield from product(*[range(s) for s in sizes[:ell]])


@pytest.mark.parametrize("seed", range(6))
def test_ks_oracle_matches_brute_force_at_every_prefix(seed):
    # m > d, so subsets above the rank bound and singular Gram matrices occur
    rng = random.Random(seed)
    inst = _mixed_ks_instance(rng, rng.randint(3, 5), 2)
    orc = ks_oracle(inst)
    for prefix in _all_prefixes(inst.spec().sizes):
        want = padded_coeffs(brute_force_poly(inst, prefix), inst.n)
        assert orc.coeffs(prefix, inst.n) == want, prefix
        assert orc.coeffs(prefix, 1) == want[:2], prefix


def _bareiss_det(mat):
    """Reference: fraction-free Gaussian elimination with row pivoting."""
    mat = [list(row) for row in mat]
    n, sign, prev = len(mat), 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if mat[r][k] != 0), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1] if n else 1


@st.composite
def _gram_paths(draw):
    """A Gram table over d-dimensional vectors and a path of its rows:
    drawn vectors, repeats of them, multiples and sums of two (so leading
    minors vanish), and the zero vector, with optional denominators."""
    d = draw(st.sampled_from([3, 2, 4, 1]))
    den = draw(st.sampled_from([1, 1, 2, 3]))
    pool = [tuple(F(draw(st.sampled_from(range(-3, 4))), den) for _ in range(d))
            for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        u, w = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        c = draw(st.sampled_from([F(0), F(1), F(-2), F(1, 3)]))
        pool.append(tuple(a + c * b for a, b in zip(u, w)))
    kernel = _GramKernel([pool])
    path = list(draw(st.permutations(kernel.rows[0])))
    if draw(st.booleans()):  # a repeated row
        path.insert(draw(st.integers(1, len(path))), draw(st.sampled_from(path)))
    return kernel, path[:len(path) - draw(st.integers(0, len(path) - 1))]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_gram_paths())
def test_bordered_determinants_match_bareiss(case):
    kernel, path = case
    g = kernel.gram

    def reference(rows):
        return _bareiss_det([[g[a][b] for b in rows] for a in rows])

    rows, reduced, pivots = [], [], [1]
    for step, a in enumerate(path):
        p, x = kernel.border(rows, reduced, pivots, a)
        assert p == reference(rows + [a]), (rows, a)
        assert len(x) == len(rows)
        if p == 0:
            # dependent vectors: every longer path on them stays singular
            assert all(reference(path[:end]) == 0 for end in range(step + 1, len(path) + 1))
            break
        rows, reduced, pivots = rows + [a], reduced + [x], pivots + [p]


def test_each_trie_path_is_bordered_once_per_oracle(monkeypatch):
    # across every prefix at k = n and k = 1, the KS oracle borders each
    # path of (coordinate, choice) pairs with increasing coordinates once:
    # every path of at most min(n, m, dim) outcomes of positive
    # probability whose proper prefixes have nonzero Gram determinants,
    # and no other row sequence
    rng = random.Random(2)
    inst = _mixed_ks_instance(rng, 5, 2)
    orc = ks_oracle(inst)
    kernel = orc._kernel
    assert len(kernel.gram) < sum(inst.spec().sizes)  # repeated vectors
    bordered = []
    border = _GramKernel.border

    def counted(self, rows, reduced, pivots, a):
        bordered.append(tuple(rows) + (a,))
        return border(self, rows, reduced, pivots, a)

    monkeypatch.setattr(_GramKernel, "border", counted)
    for prefix in _all_prefixes(inst.spec().sizes):
        want = padded_coeffs(brute_force_poly(inst, prefix), inst.n)
        assert orc.coeffs(prefix, inst.n) == want, prefix
        assert orc.coeffs(prefix, 1) == want[:2], prefix

    def det(rows):
        return _bareiss_det([[kernel.gram[a][b] for b in rows] for a in rows])

    paths = []
    for j in range(1, min(inst.n, inst.m, kernel.dim) + 1):
        for subset in combinations(range(inst.m), j):
            for choice in product(*[range(inst.spec().sizes[i]) for i in subset]):
                if all(inst.supports[i][c][1] for i, c in zip(subset, choice)):
                    rows = [kernel.rows[i][c] for i, c in zip(subset, choice)]
                    if all(det(rows[:g]) for g in range(1, j)):
                        paths.append(tuple(rows))
    assert sorted(bordered) == sorted(paths)


@pytest.mark.parametrize("seed", range(6))
def test_sr_oracle_matches_brute_force_at_every_prefix(seed):
    rng = random.Random(100 + seed)
    m, d = 4, 2
    pool = []
    vectors = tuple(_mixed_vector(rng, pool, d) for _ in range(m))
    weights = [rng.choice([0, 0, 1, 2, 3]) for _ in range(1 << m)]
    if not any(weights):
        weights[-1] = 1
    total = sum(weights)
    inst = SRInstance(d + 1, m, vectors, tuple(F(w, total) for w in weights))
    orc = SROracle(inst)
    for prefix in _all_prefixes(inst.spec().sizes):
        want = padded_coeffs(brute_force_poly(inst, prefix), inst.n)
        assert orc.coeffs(prefix, inst.n) == want, prefix
        assert orc.coeffs(prefix, 1) == want[:2], prefix


def test_rounding_work_counts(monkeypatch):
    # the exact work of one seeded rounding, the golden (m, d) = (8, 3)
    # family at eps = 1/8 (k = n = 256): the trie borders each of its
    # 4,340 paths once (one tree per subset made 9,016 border calls), and
    # the power-sum bounds leave 2 of the 16 candidate scores to Horner
    # (every one ran a Horner pass before)
    import rootline.maxroot as maxroot

    calls = {"border": 0, "horner": 0}
    border, horner = _GramKernel.border, maxroot._sign_at_ratio

    def counted_border(self, *args):
        calls["border"] += 1
        return border(self, *args)

    def counted_horner(*args):
        calls["horner"] += 1
        return horner(*args)

    monkeypatch.setattr(_GramKernel, "border", counted_border)
    monkeypatch.setattr(maxroot, "_sign_at_ratio", counted_horner)
    inst = two_block_ks_instance(random.Random(83), 8, 3, 256)
    res = round_family(inst.spec(), ks_oracle(inst), F(1, 8))
    assert (res.k_used, sum(s.candidates for s in res.steps)) == (256, 16)
    assert calls == {"border": 4340, "horner": 2}


def test_brute_force_poly_keeps_no_leaf():
    # the leaf sum is folded as the leaves come, so the traced peak of
    # brute_force_poly is the same for 2^8 and 2^12 leaves at n = 256
    # (it was 0.6 and 9.7 MB when every padded leaf was kept)
    peaks = []
    for m in (8, 12):
        inst = two_block_ks_instance(random.Random(m), m, 1, 256)
        gc.collect()
        tracemalloc.start()
        try:
            poly = brute_force_poly(inst)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert padded_coeffs(poly, inst.n) == ks_oracle(inst).coeffs((), inst.n)
    assert peaks[1] <= peaks[0] + 4096, peaks


def _product_pair(rng):
    """An SR table that is a product distribution, and the KS instance with
    the same leaves: coordinate i takes v_i with probability p_i, else the
    zero vector, all over denominators 1..3."""
    m, d = rng.randint(1, 4), rng.randint(1, 3)
    vectors = tuple(tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
                    for _ in range(m))
    probs = [F(rng.randint(0, den), den) for den in (rng.randint(1, 3) for _ in range(m))]
    table = tuple(math.prod(p if (mask >> i) & 1 else 1 - p for i, p in enumerate(probs))
                  for mask in range(1 << m))
    sups = tuple((((F(0),) * d, 1 - p), (v, p)) for v, p in zip(vectors, probs))
    return SRInstance(d + 1, m, vectors, table), KSInstance(d + 1, sups)


@pytest.mark.parametrize("seed", range(30))
def test_product_table_oracle_equals_the_ks_oracle(seed):
    sr, ks = _product_pair(random.Random(300 + seed))
    sr_orc, ks_orc = SROracle(sr), ks_oracle(ks)
    for prefix in _all_prefixes(sr.spec().sizes):
        for k in (0, 1, sr.n):
            assert sr_orc.coeffs(prefix, k) == ks_orc.coeffs(prefix, k), (prefix, k)
        assert brute_force_poly(sr, prefix) == brute_force_poly(ks, prefix), prefix


@pytest.mark.parametrize("key", ["01", "١", "-1"])
def test_sr_table_keys_are_spelled_one_way(key):
    # "01" and the Arabic-Indic one both read as mask 1 through int()
    table = {"1": "1/2", key: "1/2", "2": "1/2"}
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        SRInstance.from_json_dict({"n": 2, "m": 2, "table": table, "vectors": [["1"], ["1"]]})
