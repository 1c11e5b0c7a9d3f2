import random
from fractions import Fraction as F
from itertools import product

import pytest

from rootline.interlacing import (
    FamilySpec,
    KSInstance,
    OracleInconsistencyError,
    SRInstance,
    check_common_interlacing,
    ks_brute_force_poly,
    ks_leaf_poly,
    ks_oracle,
    padded_coeffs,
    round_family,
    rounding_coefficient_budget,
    sr_brute_force_poly,
    sr_oracle,
)
from rootline.isolation import compare_roots, max_root
from rootline.lowerbounds import noisy_pair
from rootline.poly import ExactPolynomial as P
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
        check_common_interlacing([P.from_coeffs([1, 0, 1])])


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
    brute = ks_brute_force_poly(inst)
    assert orc.coeffs((), 2) == tuple(reversed(brute.coeffs))
    # E det(xI - sum r r^T) = 1/2 (x-1)^2 + 1/2 (x-2)x = x^2 - 2x + 1/2
    assert brute == P.from_coeffs([F(1, 2), -2, 1])


def test_ks_oracle_k1_is_minus_expected_trace():
    inst = KSInstance(3, (_coin((F(1), F(1), F(0)), (F(0), F(0), F(2))),))
    orc = ks_oracle(inst)
    c = orc.coeffs((), 1)
    assert c[1] == -(F(1, 2) * 2 + F(1, 2) * 4)


def test_ks_oracle_deterministic_prefix_is_char_poly():
    inst = KSInstance(2, (_coin(E1, E2), _coin(E1, E2)))
    orc = ks_oracle(inst)
    leaf = ks_leaf_poly(inst, (0, 0)).scale(F(1, 4))
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
    assert leaf.degree == 5
    assert leaf.coeff(0) == 0  # x | leaf


def test_round_family_m1_picks_smaller_root():
    # r_1 in {2 e_1, e_2}: leaves (x-4)x and (x-1)x; second has smaller top root
    inst = KSInstance(2, (_coin((F(2), F(0)), E2),))
    res = round_family(inst.spec(), ks_oracle(inst), F(1, 2))
    assert res.assignment == (1,)
    assert res.certified


def test_round_family_identical_leaves():
    inst = KSInstance(2, ((((F(1), F(1)), F(1)),), (((F(1), F(-1)), F(1)),)))
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
    root = ks_brute_force_poly(inst).monic()
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
    orc = sr_oracle(inst)
    # sum v v^T = I: char poly (x-1)^2
    assert orc.coeffs((), 2) == (F(1), F(-2), F(1))


def test_sr_uniform_singletons():
    table = [F(0)] * 4
    table[0b01] = F(1, 2)
    table[0b10] = F(1, 2)
    inst = SRInstance(2, 2, (E1, E2), tuple(table))
    orc = sr_oracle(inst)
    brute = sr_brute_force_poly(inst)
    assert orc.coeffs((), 2) == tuple(reversed(brute.coeffs))


def test_sr_zero_probability_conditioning():
    table = [F(0)] * 4
    table[0b01] = F(1)  # the support is exactly {coordinate 0}
    inst = SRInstance(2, 2, (E1, E2), tuple(table))
    orc = sr_oracle(inst)
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
    from itertools import combinations

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
    res = round_family(inst.spec(), sr_oracle(inst), F(1, 2))
    assert res.certified
    # the leaf {2 e_1} has root 4; {e_2} has root 1; rounding must avoid 4
    assert res.assignment == (0, 1)


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
        sr_oracle(inst).coeffs(prefix, 2)


@pytest.mark.parametrize("k", [-1, 3])
def test_oracles_reject_k_outside_0_to_n(k):
    with pytest.raises(ValueError):
        ks_oracle(KSInstance(2, (_coin(E1, E2),))).coeffs((), k)
    with pytest.raises(ValueError):
        sr_oracle(SRInstance(2, 1, (E1,), (F(1, 2), F(1, 2)))).coeffs((), k)


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
        want = padded_coeffs(ks_brute_force_poly(inst, prefix), inst.n)
        assert orc.coeffs(prefix, inst.n) == want, prefix
        assert orc.coeffs(prefix, 1) == want[:2], prefix


def test_gram_determinant_runs_once_per_row_set(monkeypatch):
    # a seeded instance whose coordinates share vectors: across every
    # prefix, Bareiss runs once per distinct multiset of table rows, and a
    # row set's determinant does not depend on the order of its rows
    import rootline.interlacing as interlacing

    rng = random.Random(2)
    inst = _mixed_ks_instance(rng, 5, 2)
    orc = ks_oracle(inst)
    kernel = orc._kernel
    assert len(kernel.gram) < sum(inst.spec().sizes)  # repeated vectors
    asked, runs = [], []
    memo_det, bareiss = kernel.det, interlacing._bareiss_det

    def det(rows):
        asked.append(tuple(sorted(rows)))
        return memo_det(rows)

    def counted_bareiss(mat):
        runs.append(len(mat))
        return bareiss(mat)

    monkeypatch.setattr(kernel, "det", det)
    monkeypatch.setattr(interlacing, "_bareiss_det", counted_bareiss)
    for prefix in _all_prefixes(inst.spec().sizes):
        orc.coeffs(prefix, inst.n)
    assert len(runs) == len(set(asked)) < len(asked)
    g = kernel.gram
    for key in sorted(set(asked)):
        rows = list(key)
        rng.shuffle(rows)
        assert memo_det(rows) == bareiss([[g[a][b] for b in rows] for a in rows]), rows
    assert len(runs) == len(set(asked))  # the shuffled queries all hit the memo


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
    orc = sr_oracle(inst)
    for prefix in _all_prefixes(inst.spec().sizes):
        want = padded_coeffs(sr_brute_force_poly(inst, prefix), inst.n)
        assert orc.coeffs(prefix, inst.n) == want, prefix
        assert orc.coeffs(prefix, 1) == want[:2], prefix
