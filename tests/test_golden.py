"""Byte-for-byte CLI outputs that carry refined root cells.

Each file under ``tests/golden/`` is the stdout of one command. The
outputs hold certified root enclosures (``lambda_p_interval``,
``ratio_lower``, ``lambda_leaf``/``lambda_root``, the ``verify_pair``
float details, the ``sign-search`` ``lambda_max`` endpoints), so any
change to how roots are isolated, compared or refined that moves a cell
shows up here. The ``verify_invariance_*`` files pin the
signing scan's report on a seeded criterion-5 diagonal (C_8 below the
girth, where the entries are largest), on Q_3, and at the Heawood girth,
where the scan stops at its witness. The ``round_*`` files pin rounding
with the exhaustive root check on a KS family with integer vectors
(``ks3_family.json``), on one with non-dyadic data (vector denominators
3, 5 and 7, a zero-probability outcome, a zero vector and vectors of
unequal lengths: ``ks_mixed_family.json``), on an SR family
(``sr4_family.json``), and, without the exhaustive check, on a seeded
(m, d) = (8, 3) two-block KS family in ambient dimension 256
(``ks_two_block_8_3_family.json``), whose Gram matrices reach rank 6,
so the KS oracle's expected minors go six coordinates deep. A golden file changes only together with a
deliberate change of output.
"""

import shutil
from pathlib import Path

import pytest

from rootline.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: golden stdout file -> (command line, {input name in cwd: golden file it copies})
CASES = {
    "gen_pair_weak_17.json": (["gen-pair", "--kind", "weak", "--n", "17"], {}),
    "gen_pair_noisy_5_13.json": (["gen-pair", "--kind", "noisy", "--k", "5", "--n", "13"], {}),
    "gen_pair_girth_heawood.json": (["gen-pair", "--kind", "girth", "--graph", "heawood"], {}),
    "gen_pair_boosted_weak_17.json": (
        ["gen-pair", "--kind", "boosted", "--t", "2", "--base", "base.json"],
        {"base.json": "gen_pair_weak_17.json"}),
    "verify_pair_noisy_5_13.json": (
        ["verify-pair", "--in", "pair.json"], {"pair.json": "gen_pair_noisy_5_13.json"}),
    "sign_search_q3.json": (["sign-search", "--graph", "Q_3"], {}),
    "sign_search_k44.json": (["sign-search", "--graph", "K_4,4"], {}),
    "sign_search_heawood.json": (["sign-search", "--graph", "heawood"], {}),
    "round_ks3.json": (
        ["round", "--family", "family.json", "--epsilon", "1/8", "--exhaustive-check"],
        {"family.json": "ks3_family.json"}),
    "round_ks_mixed.json": (
        ["round", "--family", "family.json", "--epsilon", "1/8", "--exhaustive-check"],
        {"family.json": "ks_mixed_family.json"}),
    "round_ks_two_block_8_3.json": (
        ["round", "--family", "family.json", "--epsilon", "1/8"],
        {"family.json": "ks_two_block_8_3_family.json"}),
    "round_sr4.json": (
        ["round", "--family", "family.json", "--epsilon", "1/8", "--exhaustive-check"],
        {"family.json": "sr4_family.json"}),
    "verify_invariance_c8_k7.json": (
        ["verify-invariance", "--graph", "C_8", "--k", "7", "--diag", "diag.json"],
        {"diag.json": "diag_c8.json"}),
    "verify_invariance_q3_k3.json": (
        ["verify-invariance", "--graph", "Q_3", "--k", "3", "--diag", "diag.json"],
        {"diag.json": "diag_q3.json"}),
    "verify_invariance_heawood_k6.json": (
        ["verify-invariance", "--graph", "heawood", "--k", "6"], {}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch, capsys):
    argv, inputs = CASES[name]
    for target, source in inputs.items():
        shutil.copy(GOLDEN / source, tmp_path / target)
    monkeypatch.chdir(tmp_path)
    status = main(argv)
    out, err = capsys.readouterr()
    assert status == 0, err
    assert out == (GOLDEN / name).read_text()
