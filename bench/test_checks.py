"""Each check accepts the program's real output and rejects a tampered one.

    python3 -m pytest -q bench/test_checks.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import rootline.graphs as graphs  # noqa: E402
import rootline.interlacing as interlacing  # noqa: E402
import rootline.isolation as isolation  # noqa: E402
import rootline.lowerbounds as lowerbounds  # noqa: E402
import rootline.maxroot as maxroot  # noqa: E402
import rootline.symfuncs as symfuncs  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _bracket_failures(mu, k, tamper=lambda est: est):
    n = len(mu)
    prof = symfuncs.SymmetricProfile(n, tuple(workloads.elementary_of_roots(mu, 64)[:k]))
    res = maxroot.approx_max_root(prof)
    return checks.bracket(n, k, max(mu), tamper(res.estimate), res.factor,
                          res.branch == maxroot.POWER_SUM)


def test_bracket_rejects_doubled_estimate():
    mu = [Fraction(10)] * 4  # equal roots: the k = 1 estimate is exact
    assert _bracket_failures(mu, 1) == []
    assert _bracket_failures(mu, 1, lambda est: 2 * est)


def test_bracket_rejects_wrong_branch():
    assert checks.bracket(16, 2, Fraction(3), Fraction(1), Fraction(4), True) == []
    assert checks.bracket(16, 3, Fraction(3), Fraction(1), Fraction(4), True)


def _small_rounding():
    inst = workloads.two_block_instance(random.Random(7), 4, 2, 8)
    res = interlacing.round_family(inst.spec(), interlacing.ks_oracle(inst), Fraction(1, 2))
    sups = workloads.float_supports(inst)
    return res, checks.leaf_max_eigenvalue(sups, res.assignment), checks.expected_max_root(sups)


def test_rounding_rejects_shifted_intervals():
    res, leaf, root = _small_rounding()
    args = (res.certified, res.lambda_leaf, res.lambda_root, res.epsilon, leaf, root)
    assert checks.rounding(*args) == []
    shifted = (res.lambda_leaf[0] + 1, res.lambda_leaf[1] + 1)
    assert checks.rounding(res.certified, shifted, *args[2:])
    shifted = (res.lambda_root[0] - 1, res.lambda_root[1] - 1)
    assert checks.rounding(res.certified, res.lambda_leaf, shifted, *args[3:])
    assert checks.rounding(False, *args[1:])


def test_leaf_interval_rejects_shift():
    inst = workloads.two_block_instance(random.Random(3), 4, 2, 16)
    choices = (0, 1, 1, 0)
    lam = isolation.max_root(interlacing.ks_leaf_poly(inst, choices), Fraction(1, 2**20))
    eig = checks.leaf_max_eigenvalue(workloads.float_supports(inst), choices)
    assert checks.interval_contains("leaf", (lam.lo, lam.hi), eig) == []
    assert checks.interval_contains("leaf", (lam.lo + Fraction(1, 2**10), lam.hi + 1), eig)


def test_weak_pair_rejects_ratio_above_true_ratio():
    pair = lowerbounds.weak_pair(8)
    ok = lowerbounds.verify_pair(pair).ok
    assert checks.weak_pair(8, ok, pair.ratio_lower) == []
    # 2 / (1 + cos(pi/8)) = 1.0396...
    assert checks.weak_pair(8, ok, Fraction(10397, 10000))


def test_noisy_pair_rejects_ratio_above_true_ratio():
    pair = lowerbounds.noisy_pair(3, 9)
    ok = lowerbounds.verify_pair(pair).ok
    p, q = pair.p.coeffs, pair.q.coeffs
    assert checks.noisy_pair(3, 9, ok, pair.ratio_lower, p, q) == []
    # (3/2 + cos(pi/12)) / (3/2 + cos(pi/6)) = 1.0366...
    assert checks.noisy_pair(3, 9, ok, Fraction(10367, 10000), p, q)
    assert checks.noisy_pair(3, 9, ok, pair.ratio_lower, p, p)  # no differing coefficient
    j = next(j for j, (a, b) in enumerate(zip(p, q)) if a != b)
    flipped = list(q)
    flipped[j] = -q[j]  # both ratios negative: a sign flip must not pass the bound
    assert checks.noisy_pair(3, 9, ok, pair.ratio_lower, p, flipped)


def test_heawood_girth_pair_below_nine_eighths_is_rejected():
    assert checks.girth_pair("heawood", True, Fraction(9, 8)) == []
    assert checks.girth_pair("heawood", True, Fraction(9, 8) - Fraction(1, 10**6))
    assert checks.girth_pair("C_8", False, Fraction(2))


def test_witness_rejects_agreeing_traces():
    g = graphs.high_girth_catalog("C_6")
    rep = graphs.sign_invariance_report(g, None, graphs.girth(g))
    assert checks.witness("C_6", g.n, g.edges, rep.agree, rep.witness) == []
    _, _, power = rep.witness
    assert checks.witness("C_6", g.n, g.edges, False, (0, 0, power))
    assert checks.witness("C_6", g.n, g.edges, True, None)


def test_ramanujan_rejects_all_plus_signing_of_k33():
    g = graphs.high_girth_catalog("K_3,3")
    best = graphs.best_signing_search(g)
    assert checks.ramanujan("K_3,3", g.n, g.edges, best.signing.signs) == []
    # all +1: lambda_max = 3 > 2 sqrt(2)
    assert checks.ramanujan("K_3,3", g.n, g.edges, [1] * g.num_edges)


def test_checks_leave_mpmath_precision_untouched():
    import mpmath

    ratio = lowerbounds.weak_pair(8).ratio_lower
    mp_before, iv_before = mpmath.mp.prec, mpmath.iv.prec
    checks.weak_pair(8, True, ratio)
    checks.noisy_pair(3, 9, True, ratio, [1], [1])
    assert (mpmath.mp.prec, mpmath.iv.prec) == (mp_before, iv_before)


def test_probe_reaches_every_layer_and_missing_names_are_skipped():
    """Run in a child process: installing the tracer rebinds module names."""
    import subprocess

    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import rootline.cli, spans, workloads\n"
        "spans.TRACED += (('gone', 'rootline.maxroot', 'no_such_function'),)\n"
        "t = spans.Tracer(); spans.install(t); workloads.probe()\n"
        "assert t.skipped == ['rootline.maxroot.no_such_function'], t.skipped\n"
        "m = spans.per_layer(t)\n"
        "assert all(v > 0 for v, _ in m.values()), [k for k, (v, _) in m.items() if not v > 0]\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR.parent / "src"),
                           str(BENCH_DIR)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
