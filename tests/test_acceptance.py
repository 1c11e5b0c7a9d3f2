"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints its one-line pass/fail verdict (visible under
``pytest -s`` and in the per-test output on failure).  The same
experiments are reachable from the command line via
``rootline selftest`` and the manifests under ``repro/``.

Known red: the max-root ratio clause of criterion 7 demands
ratio >= 1 + 1/(2 k^2), which the generated pairs cannot attain
(their true gap is ~ 1 + 0.37/k^2).  The clause is asserted as stated
and fails honestly rather than being weakened; the attainable-constant
version is covered in test_lowerbounds.py.
"""

from fractions import Fraction as F

from polyref import RefPolynomial
from rootline.chebyshev import cheb_poly
from rootline.interlacing import check_common_interlacing
from rootline.lowerbounds import noisy_pair
from rootline.ratutil import parse_rational
from rootline.selftest import (
    CRITERIA,
    DEFAULT_SEED,
    CriterionResult,
)


def _assert_passed(res: CriterionResult):
    print()
    print(res.line())
    assert res.passed, "\n".join([res.details] + res.failures[:10])


def test_criterion_01_bracket():
    res = CRITERIA[1](DEFAULT_SEED)
    _assert_passed(res)


def test_criterion_02_power_sum_chain():
    res = CRITERIA[2](DEFAULT_SEED)
    _assert_passed(res)


def test_criterion_03_iteration_bound():
    res = CRITERIA[3](DEFAULT_SEED)
    _assert_passed(res)


def test_criterion_04_weak_pairs():
    _assert_passed(CRITERIA[4](DEFAULT_SEED))


def test_criterion_05_sign_invariance_exhaustive():
    _assert_passed(CRITERIA[5](DEFAULT_SEED))


def test_criterion_06_heawood_girth_pair():
    _assert_passed(CRITERIA[6](DEFAULT_SEED))


def test_criterion_07_noisy_identity_coefficient_interlacing():
    """The attainable clauses of criterion 7, k in 2..16."""
    failures = []
    for k in range(2, 17):
        pair = noisy_pair(k, 2 * k)
        flip = RefPolynomial([F(3, 2), -1])
        tk = RefPolynomial.of(cheb_poly(k)).compose(flip)
        if tk * tk * 2 - RefPolynomial.of(cheb_poly(2 * k)).compose(flip) != RefPolynomial.one():
            failures.append(f"k={k}: identity")
        ratio = parse_rational(pair.certificate["coeff_ratio"])
        if ratio > 1 + F(4, 2 ** (2 * k)):
            failures.append(f"k={k}: coefficient ratio")
        if k == 2 and ratio != F(49, 47):
            failures.append("k=2: ratio != 49/47")
        if not check_common_interlacing([pair.p, pair.q]):
            failures.append(f"k={k}: interlacing")
    status = "PASS" if not failures else "FAIL"
    print(f"\ncriterion 07a [{status}] noisy pairs: identity, coefficient "
          f"ratio <= 1 + 4/2^(2k), common interlacing: {len(failures)} failures")
    assert not failures, failures


def test_criterion_07_noisy_root_ratio_as_specified():
    """The literal root-ratio clause: >= 1 + 1/(2k^2).  Expected red.

    The construction's largest roots are 3/2 + cos(pi/4k) versus
    3/2 + cos(pi/2k), whose ratio is 1 + (3 pi^2/80)/k^2 + O(k^-4)
    ~ 1 + 0.37/k^2 < 1 + 0.5/k^2 for every k.  No pair of the family
    (2 T_k(c - x)^2, T_2k(c - x)) does better: keeping the coefficient
    ratio 1 + 1/T_2k(c) at or below 1 + 4/2^(2k) for all k needs
    c >= 5/4, which caps the large-k gap near 3 pi^2/(32 (c+1))/k^2
    ~ 0.41/k^2.  The pair T_2k(c - x) +- 1 at c = 13/10 does reach
    1 + 1/(2k^2) for k = 2..16; ROADMAP item 3 weighs adopting it.
    Kept as stated rather than weakened.
    """
    failures = []
    for k in range(2, 17):
        pair = noisy_pair(k, 2 * k)
        if not pair.ratio_lower >= 1 + F(1, 2 * k * k):
            failures.append(
                f"k={k}: certified ratio {float(pair.ratio_lower):.6f} "
                f"< {float(1 + F(1, 2 * k * k)):.6f}")
    status = "PASS" if not failures else "FAIL"
    print(f"\ncriterion 07b [{status}] noisy pairs: max-root ratio >= 1 + 1/(2k^2): "
          f"{len(failures)} failures")
    assert not failures, failures


def test_criterion_08_ramanujan_signings():
    _assert_passed(CRITERIA[8](DEFAULT_SEED))


def test_criterion_09_ks_oracle():
    _assert_passed(CRITERIA[9](DEFAULT_SEED))


def test_criterion_10_rounding():
    _assert_passed(CRITERIA[10](DEFAULT_SEED))


def test_criterion_11_indistinguishability():
    _assert_passed(CRITERIA[11](DEFAULT_SEED))
