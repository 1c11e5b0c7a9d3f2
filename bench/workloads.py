"""The four workloads: seeded inputs, one round of operations, its checks.

A workload is a ``Workload`` record of four functions:

* ``generate(rng, index)`` draws the inputs of round ``index`` from ``rng``;
* ``run_round(inputs, timer)`` makes the round's operations, each one
  timed call into a public ``rootline`` entry point the CLI also uses;
* ``check_round(inputs, outputs)`` returns a list of failures, found by
  the independent checks in ``checks.py``;
* ``digest(outputs)`` hashes the outputs, so two runs of one round can be
  compared.

Every round of a workload has the same operations in the same order; the
seed moves only the values inside them, so rounds cost about the same
whatever the seed.  The generators mirror those of the acceptance
criteria (every one but criterion 9) but live here, so a change to
``rootline.selftest`` cannot change a workload.

The modules of ``rootline`` are called through their module objects at
call time (``maxroot.approx_max_root(...)``), so a traced run sees every
call through the rebound names.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

import rootline.graphs as graphs
import rootline.interlacing as interlacing
import rootline.isolation as isolation
import rootline.lowerbounds as lowerbounds
import rootline.maxroot as maxroot
import rootline.poly as poly
import rootline.symfuncs as symfuncs

import checks

#: vectors per round for each dimension n: the 200:150:100:50 proportions
#: of criterion 1's corpus
BRACKET_MIX = ((4, 4), (16, 3), (64, 2), (256, 1))
#: (m, d) cells of one rounding round; criterion 10 draws m in {8, 10} and
#: d in {2, 3}.  (10, 3) is left out: one rounding there takes ~14 s,
#: about as long as the other six together.
ROUNDING_CELLS = ((8, 2), (8, 3), (10, 2))
EPSILONS = (Fraction(1, 2), Fraction(1, 8))
AMBIENT = 256
#: width of the weak-pair dimension bands, one pair per band and round
WEAK_BANDS = ((2, 16), (17, 32), (33, 48), (49, 64))
NOISY_KS = tuple(range(2, 17))
LEAF_M = 8
INVARIANCE_SMALL = ("C_4", "C_6", "C_8", "Q_3")
#: bipartite catalog graphs with <= 24 edges and max degree >= 2 (criterion 8),
#: split at ~50 ms per search
SIGN_SEARCH_LIGHT = ("C_4", "C_6", "C_8", "C_10", "C_12", "Q_3", "K_2,2", "K_3,3")
SIGN_SEARCH_HEAVY = ("K_4,4", "heawood")
#: a signing round makes the operations of >= 50 ms once (the Heawood scans,
#: the C_8 scans with a diagonal, which take the exact-integer path, and the
#: two heavy searches) and the light ones this many times, so that the
#: median operation is one of many samples, not the edge of a small cluster
SIGNING_BLOCKS = 16


class OpTimer:
    """Times each operation; an operation that raises counts as failed."""

    def __init__(self):
        #: wall times of the operations that succeeded
        self.times: List[float] = []
        #: wall time of every operation, failed ones included
        self.total = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def call(self, fn: Callable, *args):
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.total += perf_counter() - t0
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - t0
        self.total += elapsed
        self.times.append(elapsed)
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random, int], object]
    run_round: Callable[[object, OpTimer], list]
    check_round: Callable[[object, list], List[str]]
    digest: Callable[[list], str]


def _sha(parts: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# bracket: approx_max_root on profiles of drawn root vectors (criteria 1-3)
# ---------------------------------------------------------------------------


def ks_for(n: int) -> List[int]:
    """k values per dimension: {1, 2, ceil(ln n), 2 ceil(ln n), n}."""
    c = math.ceil(math.log(n))
    return sorted({1, 2, c, 2 * c, n})


def elementary_of_roots(mu: Sequence[Fraction], denominator: int) -> List[Fraction]:
    """e_1..e_n of the roots, expanded over integers with one denominator."""
    nums = [int(x * denominator) for x in mu]
    e = [1] + [0] * len(nums)
    for a in nums:
        for i in range(len(nums), 0, -1):
            e[i] += a * e[i - 1]
    return [Fraction(e[j], denominator**j) for j in range(1, len(nums) + 1)]


@dataclass
class BracketCase:
    n: int
    k: int
    mu_max: Fraction
    profile: symfuncs.SymmetricProfile


def bracket_generate(rng: random.Random, index: int) -> List[BracketCase]:
    cases = []
    for n, count in BRACKET_MIX:
        for _ in range(count):
            mu = [Fraction(rng.randint(0, 640), 64) for _ in range(n)]
            full = symfuncs.SymmetricProfile(n, tuple(elementary_of_roots(mu, 64)))
            for k in ks_for(n):
                cases.append(BracketCase(n, k, max(mu), full.truncate(k)))
    return cases


def bracket_run(cases: List[BracketCase], timer: OpTimer) -> list:
    return [timer.call(maxroot.approx_max_root, c.profile) for c in cases]


def bracket_check(cases: List[BracketCase], outputs: list) -> List[str]:
    failures = []
    for c, res in zip(cases, outputs):
        if res is None:
            continue
        failures += checks.bracket(c.n, c.k, c.mu_max, res.estimate, res.factor,
                                   res.branch == maxroot.POWER_SUM)
    return failures


def bracket_digest(outputs: list) -> str:
    return _sha([f"{r.estimate}|{r.factor}|{r.iterations}|{r.branch}" if r else "-"
                 for r in outputs])


# ---------------------------------------------------------------------------
# rounding: round_family on two-block KS instances (criterion 10)
# ---------------------------------------------------------------------------


def two_block_instance(rng: random.Random, m: int, d: int,
                       ambient: int) -> interlacing.KSInstance:
    """Coordinate i puts its vector v_i in the top or the bottom block, 1/2 each."""
    sups = []
    for _ in range(m):
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
        if all(x == 0 for x in v):
            v = (Fraction(1),) + (Fraction(0),) * (d - 1)
        zeros = (Fraction(0),) * d
        sups.append(((v + zeros, Fraction(1, 2)), (zeros + v, Fraction(1, 2))))
    return interlacing.KSInstance(ambient, tuple(sups))


def float_supports(inst: interlacing.KSInstance):
    return [[([float(x) for x in v], float(p)) for v, p in sup] for sup in inst.supports]


def rounding_generate(rng: random.Random, index: int) -> list:
    return [two_block_instance(rng, m, d, AMBIENT) for m, d in ROUNDING_CELLS]


def rounding_run(instances: list, timer: OpTimer) -> list:
    out = []
    for inst in instances:
        # one fresh oracle per instance and round, shared by both epsilons,
        # so the second rounding reuses what the first memoized
        oracle = interlacing.ks_oracle(inst)
        out.append([timer.call(interlacing.round_family, inst.spec(), oracle, eps)
                    for eps in EPSILONS])
    return out


def rounding_check(instances: list, outputs: list) -> List[str]:
    failures = []
    for inst, results in zip(instances, outputs):
        sups = float_supports(inst)
        root = checks.expected_max_root(sups)
        for eps, res in zip(EPSILONS, results):
            if res is None:
                continue
            leaf = checks.leaf_max_eigenvalue(sups, res.assignment)
            failures += checks.rounding(res.certified, res.lambda_leaf, res.lambda_root,
                                        eps, leaf, root)
    return failures


def rounding_digest(outputs: list) -> str:
    return _sha([f"{r.assignment}|{r.certified}|{r.lambda_leaf}|{r.lambda_root}" if r else "-"
                 for pair in outputs for r in pair])


# ---------------------------------------------------------------------------
# certify: pair generators, verify_pair, exhaustive leaf check (criteria 4, 6,
# 7, 10, 11)
# ---------------------------------------------------------------------------


@dataclass
class CertifyInputs:
    weak_ns: Tuple[int, ...]
    noisy: Tuple[Tuple[int, int], ...]  # (k, n)
    boosted: Tuple[Tuple[lowerbounds.LowerBoundPair, int, int], ...]  # (base, base n, t)
    girth_graphs: Tuple[Tuple[str, graphs.Graph], ...]
    leaf_instance: interlacing.KSInstance


def certify_generate(rng: random.Random, index: int) -> CertifyInputs:
    weak_ns = tuple(rng.randint(lo, hi) for lo, hi in WEAK_BANDS)
    # odd k are zero-padded to a seeded n > 2k, even k are not
    noisy = tuple((k, 2 * k if k % 2 == 0 else 2 * k + rng.randint(1, 2 * k))
                  for k in NOISY_KS)
    boosted = []
    for _ in range(2):
        b, t = rng.randint(2, 4), rng.randint(2, 3)
        boosted.append((lowerbounds.weak_pair(b), b, t))
    girth_graphs = tuple((name, graphs.high_girth_catalog(name)) for name in ("heawood", "C_8"))
    # d alternates between rounds so that every pair of rounds costs the same
    leaf = two_block_instance(rng, LEAF_M, 2 + index % 2, AMBIENT)
    return CertifyInputs(weak_ns, noisy, tuple(boosted), girth_graphs, leaf)


def _certified_pair(make: Callable, *args):
    pair = make(*args)
    return pair, lowerbounds.verify_pair(pair)


def _leaf_choices(bits: int, m: int) -> Tuple[int, ...]:
    return tuple((bits >> i) & 1 for i in range(m))


def _leaf_root(inst, choices, state):
    lam = isolation.max_root(interlacing.ks_leaf_poly(inst, choices), Fraction(1, 2**20))
    if state.get("min") is None or isolation.compare_roots(lam, state["min"]) < 0:
        state["min"] = lam
    return lam


def _root_against_leaves(inst, state):
    raw = interlacing.ks_oracle(inst).coeffs((), inst.n)
    root = poly.ExactPolynomial(list(reversed(raw))).monic()
    lam = isolation.max_root(root, Fraction(1, 2**30))
    return lam, isolation.compare_roots(state["min"], lam)


def certify_run(inp: CertifyInputs, timer: OpTimer) -> dict:
    out = {
        "weak": [timer.call(_certified_pair, lowerbounds.weak_pair, n) for n in inp.weak_ns],
        "noisy": [timer.call(_certified_pair, lowerbounds.noisy_pair, k, n) for k, n in inp.noisy],
        "boosted": [timer.call(_certified_pair, lowerbounds.boosted_pair, base, t)
                    for base, _, t in inp.boosted],
        "girth": [timer.call(_certified_pair, lowerbounds.girth_pair, g, 2)
                  for _, g in inp.girth_graphs],
    }
    inst = inp.leaf_instance
    state: dict = {}
    out["leaves"] = [timer.call(_leaf_root, inst, _leaf_choices(bits, inst.m), state)
                     for bits in range(1 << inst.m)]
    out["root"] = timer.call(_root_against_leaves, inst, state) if state.get("min") else None
    return out


def certify_check(inp: CertifyInputs, out: dict) -> List[str]:
    failures = []
    for n, got in zip(inp.weak_ns, out["weak"]):
        if got:
            pair, report = got
            failures += checks.weak_pair(n, report.ok, pair.ratio_lower)
    for (k, n), got in zip(inp.noisy, out["noisy"]):
        if got:
            pair, report = got
            failures += checks.noisy_pair(k, n, report.ok, pair.ratio_lower,
                                          pair.p.coeffs, pair.q.coeffs)
    for (_, b, t), got in zip(inp.boosted, out["boosted"]):
        if got:
            failures += checks.verified(f"boosted(weak({b}),{t})", got[1].ok)
    for (name, _), got in zip(inp.girth_graphs, out["girth"]):
        if got:
            pair, report = got
            failures += checks.girth_pair(name, report.ok, pair.ratio_lower)
    inst = inp.leaf_instance
    sups = float_supports(inst)
    leaf_eigs = []
    for bits, lam in enumerate(out["leaves"]):
        choices = _leaf_choices(bits, inst.m)
        eig = checks.leaf_max_eigenvalue(sups, choices)
        leaf_eigs.append(eig)
        if lam is not None:
            failures += checks.interval_contains(f"leaf {choices}", (lam.lo, lam.hi), eig)
    if out["root"] is not None:
        lam_root, cmp = out["root"]
        failures += checks.leaves_below_root((lam_root.lo, lam_root.hi), cmp, min(leaf_eigs),
                                             checks.expected_max_root(sups))
    return failures


def certify_digest(out: dict) -> str:
    parts = []
    for key in ("weak", "noisy", "boosted", "girth"):
        parts += [f"{key}|{got[0].ratio_lower}|{got[0].k}|{got[1].ok}" if got else "-"
                  for got in out[key]]
    parts += [f"{lam.lo}|{lam.hi}" if lam else "-" for lam in out["leaves"]]
    if out["root"]:
        parts.append(f"{out['root'][0].lo}|{out['root'][0].hi}|{out['root'][1]}")
    return _sha(parts)


# ---------------------------------------------------------------------------
# signing: exhaustive trace scans and best-signing search (criteria 5, 8)
# ---------------------------------------------------------------------------


@dataclass
class Scan:
    name: str
    graph: graphs.Graph
    diag: Optional[List[Fraction]]
    k: int
    at_girth: bool


def random_diag(rng: random.Random, n: int) -> List[Fraction]:
    """Criterion 5's rational diagonal, entries -8..8 over 1..4, redrawn
    until the common denominator is 12 and some entry has magnitude >= 4.
    Most draws on the graphs here are like that, and it fixes the scan
    path rootline picks from the entry sizes (exact integers for C_8 at
    k = 7, int64 batches elsewhere), so a round costs the same whatever
    the seed."""
    while True:
        diag = [Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])) for _ in range(n)]
        if math.lcm(*(d.denominator for d in diag)) == 12 and max(map(abs, diag)) >= 4:
            return diag


def signing_generate(rng: random.Random, index: int) -> dict:
    heawood = graphs.high_girth_catalog("heawood")
    c8 = graphs.high_girth_catalog("C_8")
    # the Heawood scan opens the round: once its 12.8 MB batches have been
    # freed, the allocator serves the smaller scans' batches from the heap
    # without new page faults, in the first round as in every later one
    scans = [Scan("heawood", heawood, random_diag(rng, heawood.n), graphs.girth(heawood) - 1,
                  False),
             Scan("heawood", heawood, None, graphs.girth(heawood), True)]
    scans += [Scan("C_8", c8, random_diag(rng, c8.n), graphs.girth(c8) - 1, False)
              for _ in range(3)]
    searches = [(name, graphs.high_girth_catalog(name)) for name in SIGN_SEARCH_HEAVY]
    for _ in range(SIGNING_BLOCKS):
        for name in INVARIANCE_SMALL:
            g = graphs.high_girth_catalog(name)
            gi = graphs.girth(g)
            diags = [None] if name == "C_8" else [None] + [random_diag(rng, g.n) for _ in range(3)]
            scans += [Scan(name, g, diag, gi - 1, False) for diag in diags]
            scans.append(Scan(name, g, None, gi, True))
        searches += [(name, graphs.high_girth_catalog(name)) for name in SIGN_SEARCH_LIGHT]
    return {"scans": scans, "searches": searches}


def signing_run(inp: dict, timer: OpTimer) -> dict:
    return {
        "scans": [timer.call(graphs.sign_invariance_report, s.graph, s.diag, s.k)
                  for s in inp["scans"]],
        "searches": [timer.call(graphs.best_signing_search, g) for _, g in inp["searches"]],
    }


def signing_check(inp: dict, out: dict) -> List[str]:
    failures = []
    for s, rep in zip(inp["scans"], out["scans"]):
        if rep is None:
            continue
        tag = f"{s.name} k={s.k} diag={'zero' if s.diag is None else 'seeded'}"
        if s.at_girth:
            failures += checks.witness(tag, s.graph.n, s.graph.edges, rep.agree, rep.witness)
        elif not rep.agree:
            failures.append(f"{tag}: traces disagree below the girth")
    for (name, g), best in zip(inp["searches"], out["searches"]):
        if best is not None:
            failures += checks.ramanujan(name, g.n, g.edges, best.signing.signs)
    return failures


def signing_digest(out: dict) -> str:
    parts = [f"{r.agree}|{r.first_disagreement}|{r.witness}" if r else "-" for r in out["scans"]]
    parts += [f"{b.signing.signs}|{b.lambda_max.lo}|{b.lambda_max.hi}" if b else "-"
              for b in out["searches"]]
    return _sha(parts)


WORKLOADS = {
    "bracket": Workload("bracket", bracket_generate, bracket_run, bracket_check, bracket_digest),
    "rounding": Workload("rounding", rounding_generate, rounding_run, rounding_check,
                         rounding_digest),
    "certify": Workload("certify", certify_generate, certify_run, certify_check, certify_digest),
    "signing": Workload("signing", signing_generate, signing_run, signing_check, signing_digest),
}


def probe() -> None:
    """One pass over every traced layer on tiny fixed inputs.

    Run before timing as the warm-up (mpmath constants, numpy kernels,
    lazy imports), and again at the start of a traced run, so that every
    per-layer metric is measured on every workload: a layer the workload
    itself does not use reports the probe's small cost, not a constant 0.
    """
    for k in (1, 4):
        maxroot.approx_max_root(symfuncs.SymmetricProfile(4, tuple(
            elementary_of_roots([Fraction(1), Fraction(2), Fraction(3), Fraction(5)], 1)[:k])))
    lowerbounds.verify_pair(lowerbounds.weak_pair(3))
    lowerbounds.verify_pair(lowerbounds.noisy_pair(2, 5))
    lowerbounds.verify_pair(lowerbounds.boosted_pair(lowerbounds.weak_pair(2), 2))
    c4 = graphs.high_girth_catalog("C_4")
    lowerbounds.verify_pair(lowerbounds.girth_pair(c4, 2))
    graphs.sign_invariance_report(c4, None, 3)
    inst = two_block_instance(random.Random(0), 2, 1, 2)
    interlacing.round_family(inst.spec(), interlacing.ks_oracle(inst), Fraction(1, 2))
    isolation.max_root(interlacing.ks_leaf_poly(inst, (0, 1)))
