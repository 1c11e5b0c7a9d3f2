"""The acceptance experiments, runnable from pytest and from the CLI.

Each criterion is a function returning a ``CriterionResult``.  All
randomness is seed-derived, so a fixed seed gives identical reports
byte for byte.  The default seeds are frozen here and shared by the
test suite and the repro manifests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from rootline.chebyshev import cheb_eval
from rootline.graphs import (
    CATALOG,
    EXHAUSTION_CAP,
    Graph,
    Signing,
    best_signing_search,
    girth,
    matrix_power,
    ramanujan_bound_holds,
    sign_invariance_report,
    signed_adjacency,
)
from rootline.interlacing import (
    KSInstance,
    brute_force_leaves,
    brute_force_poly,
    check_common_interlacing,
    expected_poly,
    ks_oracle,
    padded_coeffs,
    round_family,
)
from rootline.isolation import compare_roots, max_root
from rootline.lowerbounds import (
    LowerBoundPair,
    boosted_pair,
    girth_pair,
    noisy_pair,
    verify_pair,
    weak_pair,
)
from rootline.maxroot import (
    CHEBYSHEV_LOOP,
    approx_max_root,
    iteration_bound,
)
from rootline.ratutil import parse_rational
from rootline.symfuncs import profile_of_roots, profiles_equal_up_to_k

DEFAULT_SEED = 20260810

#: corpus sizes per dimension for the bracket criteria (500 vectors total)
BRACKET_CORPUS = ((4, 200), (16, 150), (64, 100), (256, 50))


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    failures: List[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} [{status}] {self.name}: {self.details}"

    def to_json_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
            "failures": self.failures,
        }


def _ks_for(n: int) -> List[int]:
    """k values exercised per dimension: {1, 2, ceil(ln n), 2 ceil(ln n), n}."""
    c = math.ceil(math.log(n))
    return sorted({1, 2, c, 2 * c, n})


def _random_root_vector(rng: random.Random, n: int) -> List[Fraction]:
    """Rational entries in [0, 10] with denominator 64."""
    return [Fraction(rng.randint(0, 640), 64) for _ in range(n)]


@dataclass
class BracketOutcome:
    """Shared corpus pass feeding criteria 1, 2 and 3."""

    bracket_failures: List[str]
    chain_failures: List[str]
    iteration_failures: List[str]
    runs: int
    loop_runs: int


def _direct_power_sums(mu: List[Fraction], upto: int) -> List[Fraction]:
    """Brute-force p_j = sum mu_i^j for j = 1..upto (the chain's oracle).

    With mu_i = a_i / d over one common denominator d, p_j is the integer
    sum of a_i^j over d^j; Newton's identities play no part.
    """
    d = math.lcm(*(x.denominator for x in mu))
    nums = [x.numerator * (d // x.denominator) for x in mu]
    sums = [0] * upto
    for a in nums:
        power = 1
        for j in range(upto):
            power *= a
            sums[j] += power
    out = []
    dpow = 1
    for j in range(upto):
        dpow *= d
        out.append(Fraction(sums[j], dpow))
    return out


@lru_cache(maxsize=1)  # criteria 1-3 read one corpus run per seed
def run_bracket_corpus(seed: int = DEFAULT_SEED) -> BracketOutcome:
    rng = random.Random(seed)
    bracket_failures: List[str] = []
    chain_failures: List[str] = []
    iteration_failures: List[str] = []
    runs = 0
    loop_runs = 0
    for n, count in BRACKET_CORPUS:
        ks = _ks_for(n)
        for _ in range(count):
            mu = _random_root_vector(rng, n)
            mu_max = max(mu)
            prof_full = profile_of_roots(n, mu)
            psums = _direct_power_sums(mu, max(ks))
            for k in ks:
                prof = prof_full.truncate(k)
                res = approx_max_root(prof)
                runs += 1
                tag = f"n={n} k={k} mu_max={mu_max}"
                if not (res.estimate <= mu_max and mu_max <= res.factor * res.estimate):
                    bracket_failures.append(
                        f"{tag}: estimate={res.estimate} factor={res.factor}")
                pk = psums[k - 1]
                # (p_k/n)^(1/k) <= mu_max <= p_k^(1/k), compared at k-th powers
                if not (pk <= n * mu_max**k and mu_max**k <= pk):
                    chain_failures.append(f"{tag}: p_k={pk}")
                if res.branch == CHEBYSHEV_LOOP:
                    loop_runs += 1
                    bound = iteration_bound(k, n)
                    if res.iterations > bound:
                        iteration_failures.append(
                            f"{tag}: {res.iterations} iterations > bound {bound}")
    return BracketOutcome(bracket_failures, chain_failures, iteration_failures,
                          runs, loop_runs)


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    out = run_bracket_corpus(seed)
    return CriterionResult(
        1, "max-root bracket estimate <= mu_max <= alpha * estimate",
        not out.bracket_failures,
        f"{out.runs} runs over 500 seeded vectors, "
        f"{len(out.bracket_failures)} failures",
        out.bracket_failures[:10])


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    out = run_bracket_corpus(seed)
    return CriterionResult(
        2, "power-sum chain (p_k/n)^(1/k) <= mu_max <= p_k^(1/k)",
        not out.chain_failures,
        f"{out.runs} exact comparisons, {len(out.chain_failures)} failures",
        out.chain_failures[:10])


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    out = run_bracket_corpus(seed)
    return CriterionResult(
        3, "threshold-loop iteration bound",
        not out.iteration_failures,
        f"{out.loop_runs} loop runs within the closed-form bound, "
        f"{len(out.iteration_failures)} failures",
        out.iteration_failures[:10])


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    failures: List[str] = []
    for n in range(2, 65):
        pair = weak_pair(n)
        pp, pq = pair.truncated_profiles()
        if not profiles_equal_up_to_k(pp, pq):
            failures.append(f"n={n}: profiles differ")
        if pair.k != n - 1:
            failures.append(f"n={n}: matched count {pair.k} != n-1")
        if not pair.ratio_lower >= 1 + Fraction(1, n * n):
            failures.append(f"n={n}: ratio {pair.ratio_lower} < 1 + 1/n^2")
    w3 = weak_pair(3)
    if w3.truncated_profiles()[0].e != (Fraction(3), Fraction(9, 4)):
        failures.append("n=3: profile is not (3, 9/4)")
    if w3.ratio_lower != Fraction(4, 3):
        failures.append(f"n=3: ratio {w3.ratio_lower} != 4/3")
    return CriterionResult(
        4, "weak pairs: profile equality and ratio >= 1 + 1/n^2 for n in 2..64",
        not failures, f"63 pairs checked, {len(failures)} failures", failures[:10])


#: catalog graphs for the exhaustive signing-invariance sweep
INVARIANCE_GRAPHS = ("C_4", "C_6", "C_8", "Q_3", "heawood")


def _random_diag(rng: random.Random, n: int) -> List[Fraction]:
    return [Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])) for _ in range(n)]


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed)
    failures: List[str] = []
    witness_found = False
    for name in INVARIANCE_GRAPHS:
        g = CATALOG[name]
        gi = girth(g)
        diags: List[Optional[List[Fraction]]] = [None]
        diags += [_random_diag(rng, g.n) for _ in range(3)]
        for di, D in enumerate(diags):
            rep = sign_invariance_report(g, D, gi - 1)
            if not rep.agree:
                failures.append(f"{name} D#{di}: disagreement below girth at "
                                f"power {rep.first_disagreement}")
        # at k = girth, a disagreeing pair must exist for at least one D
        rep_at = sign_invariance_report(g, None, gi)
        if rep_at.agree or rep_at.witness is None:
            failures.append(f"{name}: no disagreement exhibited at k = girth")
        else:
            bits_a, bits_b, power = rep_at.witness
            tr_a = _exact_trace_power(g, bits_a, power)
            tr_b = _exact_trace_power(g, bits_b, power)
            if tr_a == tr_b:
                failures.append(f"{name}: witness pair traces agree on recheck")
            else:
                witness_found = True
    if not witness_found:
        failures.append("no exact witness confirmed at the girth")
    return CriterionResult(
        5, "signing invariance of trace powers below the girth (exhaustive)",
        not failures,
        "C_4, C_6, C_8, Q_3, Heawood x {0, 3 random diagonals}, all "
        f"2^|E| signings; {len(failures)} failures", failures[:10])


def _exact_trace_power(g: Graph, bits: int, power: int) -> int:
    """trace(A_s^power) on Python integers, independent of the scan's batches."""
    rows = matrix_power(signed_adjacency(g, Signing.from_bits(g, bits)), power)
    return sum(rows[i][i] for i in range(g.n))


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    failures: List[str] = []
    pair = girth_pair(CATALOG["heawood"], 2)
    if pair.k != 2:
        failures.append(f"matched count {pair.k} != 2")
    pp, pq = pair.truncated_profiles()
    if not profiles_equal_up_to_k(pp, pq):
        failures.append("profiles differ up to k")
    if not pair.ratio_lower >= Fraction(9, 8):
        failures.append(f"ratio {pair.ratio_lower} < 9/8")
    rep = verify_pair(pair)
    if not rep.ok:
        failures.append("verify_pair failed: "
                        + ", ".join(c.name for c in rep.checks if not c.passed))
    return CriterionResult(
        6, "girth pair on the Heawood graph, t=2: matched k=2, ratio >= 9/8",
        not failures,
        f"ratio_lower = {pair.ratio_lower}, {len(failures)} failures", failures)


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Noisy pairs for k in 2..16 at the stated tolerances.

    The max-root ratio clause asserts >= 1 + 1/(2k^2) as stated; the
    construction's true gap is 1 + (3 pi^2/80 + o(1))/k^2 ~ 1 + 0.37/k^2,
    so that clause fails for every k and is reported honestly as a
    failure.  The attainable bound 1 + 1/(3k^2) is verified in the
    unit tests.
    """
    failures: List[str] = []
    for k in range(2, 17):
        n = 2 * k
        pair = noisy_pair(k, n)
        # 2 T_k(y)^2 - T_2k(y) - 1 has degree <= 2k, so 2k+1 zeros make it 0
        if any(2 * cheb_eval(k, y) ** 2 - cheb_eval(2 * k, y) != 1 for y in range(2 * k + 1)):
            failures.append(f"k={k}: 2 T_k^2 - T_2k != 1")
        ratio = parse_rational(pair.certificate["coeff_ratio"])
        if ratio > 1 + Fraction(4, 2 ** (2 * k)):
            failures.append(f"k={k}: coefficient ratio {ratio} above bound")
        if not pair.ratio_lower >= 1 + Fraction(1, 2 * k * k):
            failures.append(
                f"k={k}: certified max-root ratio {float(pair.ratio_lower):.6f} "
                f"< 1 + 1/(2k^2) = {float(1 + Fraction(1, 2*k*k)):.6f}")
        if not check_common_interlacing([pair.p, pair.q]):
            failures.append(f"k={k}: no common interlacing")
        if k == 2 and ratio != Fraction(49, 47):
            failures.append(f"k=2: coefficient ratio {ratio} != 49/47")
    return CriterionResult(
        7, "noisy pairs: identity, coefficient ratio, root ratio, interlacing",
        not failures, f"k in 2..16, {len(failures)} failures", failures[:20])


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    failures: List[str] = []
    checked = []
    for name, g in CATALOG.items():
        if g.num_edges > EXHAUSTION_CAP or not g.is_bipartite() or g.max_degree() < 2:
            continue
        best = best_signing_search(g)
        checked.append(name)
        if not ramanujan_bound_holds(g, best.signing):
            failures.append(f"{name}: best signing exceeds 2 sqrt(deg_max - 1)")
    return CriterionResult(
        8, "bipartite catalog signings reach lambda_max <= 2 sqrt(deg_max - 1)",
        not failures, f"graphs: {', '.join(checked)}; {len(failures)} failures",
        failures)


def random_ks_instance(rng: random.Random, max_outcomes: int = 4096) -> KSInstance:
    """Seeded KS instance with bounded total outcome count."""
    m = rng.randint(4, 8)
    d = rng.randint(2, 4)
    ambient = d if rng.random() < 0.7 else d + rng.randint(1, 3)
    sups = []
    outcomes = 1
    for _ in range(m):
        width = rng.choice([1, 2, 2, 3])
        while outcomes * width > max_outcomes:
            width = 1
        outcomes *= width
        vecs = []
        for _ in range(width):
            vecs.append(tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                              for _ in range(d)))
        if width == 1:
            probs = [Fraction(1)]
        else:
            cuts = sorted(rng.randint(1, 7) for _ in range(width - 1))
            edges = [0] + cuts + [8]
            probs = [Fraction(edges[i + 1] - edges[i], 8) for i in range(width)]
            if any(p == 0 for p in probs):
                probs = [Fraction(1, width)] * width if 8 % width == 0 else None
            if probs is None:
                probs = [Fraction(1, width - 1)] * (width - 1) + [Fraction(0)]
                probs[0] += 1 - sum(probs)
        sups.append(tuple(zip(vecs, probs)))
    return KSInstance(ambient, tuple(sups))


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed + 9)
    failures: List[str] = []
    for trial in range(50):
        inst = random_ks_instance(rng)
        oracle = ks_oracle(inst)
        got = oracle.coeffs((), inst.n)
        if got != padded_coeffs(brute_force_poly(inst), inst.n):
            failures.append(f"trial {trial}: oracle != brute-force expectation")
        # one random prefix as well
        ell = rng.randint(1, inst.m)
        prefix = tuple(rng.randrange(len(inst.supports[i])) for i in range(ell))
        got_p = oracle.coeffs(prefix, inst.n)
        if got_p != padded_coeffs(brute_force_poly(inst, prefix), inst.n):
            failures.append(f"trial {trial}: prefix {prefix} mismatch")
    return CriterionResult(
        9, "KS oracle equals brute-force expected characteristic polynomials",
        not failures, f"50 seeded instances (<= 2^12 outcomes), "
        f"{len(failures)} failures", failures[:10])


def two_block_ks_instance(rng: random.Random, m: int, d: int,
                          ambient: int) -> KSInstance:
    """Equal-norm two-block family: r_i places v_i in the top or bottom block.

    Both outcomes of every coordinate share one norm, so e_1 is constant
    across the candidates of a rounding step (which keeps the estimate
    grid aligned).
    """
    sups = []
    for _ in range(m):
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
        if all(x == 0 for x in v):
            v = (Fraction(1),) + (Fraction(0),) * (d - 1)
        top = v + (Fraction(0),) * d
        bot = (Fraction(0),) * d + v
        sups.append(((top, Fraction(1, 2)), (bot, Fraction(1, 2))))
    return KSInstance(ambient, tuple(sups))


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed + 10)
    failures: List[str] = []
    instances = []
    for trial in range(20):
        m = 10 if trial % 5 == 0 else 8
        d = rng.choice([2, 3])
        instances.append((trial, two_block_ks_instance(rng, m, d, 256)))
    for trial, inst in instances:
        oracle = ks_oracle(inst)
        spec = inst.spec()
        # exhaustive cross-checks, independent of the rounding path; each
        # leaf's characteristic polynomial, formed once, feeds both the
        # scan for the least leaf root and the sum, and is then dropped
        pad = (0,) * (inst.n - inst.dim)
        min_leaf = None

        def scanned(leaves):
            nonlocal min_leaf
            for leaf in leaves:
                lam = max_root(pad + leaf[1], Fraction(1, 2**20))
                if min_leaf is None or compare_roots(lam, min_leaf) < 0:
                    min_leaf = lam
                yield leaf

        brute_root = expected_poly(inst.n, scanned(brute_force_leaves(inst)))
        if oracle.coeffs((), inst.n) != padded_coeffs(brute_root, inst.n):
            failures.append(f"trial {trial}: root polynomial mismatch vs enumeration")
            continue
        root_monic = brute_root.monic()
        lam_root = max_root(root_monic, Fraction(1, 2**30))
        if compare_roots(min_leaf, lam_root) > 0:
            failures.append(f"trial {trial}: min leaf above root (interlacing broken)")
        for eps in (Fraction(1, 2), Fraction(1, 8)):
            res = round_family(spec, oracle, eps)
            if not res.certified:
                failures.append(f"trial {trial} eps={eps}: certificate failed "
                                f"(leaf {res.lambda_leaf}, root {res.lambda_root})")
    return CriterionResult(
        10, "rounding returns a leaf with lambda_max <= (1+eps) lambda_max(root)",
        not failures, "20 seeded two-block instances (m <= 10), eps in {1/2, 1/8}, "
        f"{len(failures)} failures", failures[:10])


def generated_pairs_for_indistinguishability() -> List[Tuple[str, LowerBoundPair]]:
    pairs: List[Tuple[str, LowerBoundPair]] = []
    for n in (2, 3, 4, 5, 8, 12, 16, 32, 64):
        pairs.append((f"weak({n})", weak_pair(n)))
    pairs.append(("girth(heawood,2)", girth_pair(CATALOG["heawood"], 2)))
    pairs.append(("girth(C_8,2)", girth_pair(CATALOG["C_8"], 2)))
    for k in (2, 3, 4, 6, 8):
        pairs.append((f"noisy({k},{2*k})", noisy_pair(k, 2 * k)))
    pairs.append(("boosted(weak(3),2)", boosted_pair(weak_pair(3), 2)))
    pairs.append(("boosted(weak(2),3)", boosted_pair(weak_pair(2), 3)))
    return pairs


def criterion_11(seed: int = DEFAULT_SEED) -> CriterionResult:
    failures: List[str] = []
    count = 0
    for name, pair in generated_pairs_for_indistinguishability():
        count += 1
        prof_p, prof_q = pair.truncated_profiles()
        if not profiles_equal_up_to_k(prof_p, prof_q):
            failures.append(f"{name}: truncated profiles differ")
            continue
        res_p = approx_max_root(prof_p)
        res_q = approx_max_root(prof_q)
        if res_p != res_q:
            failures.append(f"{name}: results differ: {res_p} vs {res_q}")
    return CriterionResult(
        11, "indistinguishability: equal top-k profiles give bit-identical output",
        not failures, f"{count} generated pairs, {len(failures)} failures",
        failures[:10])


CRITERIA: Dict[int, Callable[[int], CriterionResult]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}


def run_criteria(numbers: Optional[List[int]] = None,
                 seed: int = DEFAULT_SEED) -> List[CriterionResult]:
    numbers = sorted(CRITERIA) if numbers is None else numbers
    results = []
    for num in numbers:
        if num not in CRITERIA:
            raise ValueError(f"unknown criterion {num}")
        results.append(CRITERIA[num](seed))
    return results
