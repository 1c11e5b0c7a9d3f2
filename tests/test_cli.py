import copy
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import rootline
from rootline import cli, interlacing
from rootline.cli import RunManifest, _typed_parameters, dispatch, main
from rootline.graphs import EDGE_BUDGET, VERTEX_BUDGET, Graph
from rootline.interlacing import SR_MAX_M, KSInstance
from rootline.lowerbounds import DEGREE_BUDGET, noisy_pair, weak_pair
from rootline.symfuncs import profile_of_roots

# Absolute directory of the imported package: the child runs in `cwd`,
# where a relative PYTHONPATH (such as `src`) would not resolve.
PACKAGE_ROOT = str(Path(rootline.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "rootline.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture()
def profile_file(tmp_path):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(profile_of_roots(4, [1, 2, 3, 4]).truncate(2).to_json_dict()))
    return path


def test_approx_root_subcommand(profile_file, tmp_path):
    res = run_cli(["approx-root", "--profile", str(profile_file)], tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["branch"] == "chebyshev-loop"  # k=2 > ln 4
    est = F(out["estimate"])
    factor = F(out["factor"])
    assert est <= 4 <= factor * est
    assert "estimate_dec" in out


def test_approx_root_from_coefficients(tmp_path):
    from polyref import RefPolynomial

    poly = RefPolynomial.from_roots([1, 2, 3, 4])
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly.to_json_dict()))
    res = run_cli(["approx-root", "--coeffs", str(path), "--k", "2"], tmp_path)
    assert res.returncode == 0
    assert json.loads(res.stdout)["k"] == 2


def test_pair_generation_and_verification(tmp_path):
    res = run_cli(["gen-pair", "--kind", "weak", "--n", "5",
                   "--out", "pair.json"], tmp_path)
    assert res.returncode == 0
    res2 = run_cli(["verify-pair", "--in", "pair.json"], tmp_path)
    assert res2.returncode == 0
    report = json.loads(res2.stdout)
    assert report["ok"]


def test_verify_pair_fails_on_tampering(tmp_path):
    gen = run_cli(["gen-pair", "--kind", "weak", "--n", "4", "--out", "pair.json"], tmp_path)
    assert gen.returncode == 0, gen.stderr
    data = json.loads((tmp_path / "pair.json").read_text())
    data["ratio_lower"] = "999/1"
    (tmp_path / "pair.json").write_text(json.dumps(data))
    res = run_cli(["verify-pair", "--in", "pair.json"], tmp_path)
    assert res.returncode == 1


def test_verify_pair_accepts_ratio_zero(tmp_path):
    data = weak_pair(4).to_json_dict()
    data["ratio_lower"] = "0/1"
    (tmp_path / "pair.json").write_text(json.dumps(data))
    res = run_cli(["verify-pair", "--in", "pair.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["ok"]


def test_girth_subcommand(tmp_path):
    res = run_cli(["girth", "--graph", "heawood"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["girth"] == 6
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    res2 = run_cli(["girth", "--graph", str(graph_file)], tmp_path)
    assert res2.returncode == 0, res2.stderr
    assert json.loads(res2.stdout)["girth"] == "infinity"


def test_sign_search_subcommand(tmp_path):
    res = run_cli(["sign-search", "--graph", "C_4"], tmp_path)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["signing"] == [1, 1, 1, -1]
    assert F(out["lambda_max_lo"]) ** 2 <= 2 <= F(out["lambda_max_hi"]) ** 2


def test_verify_invariance_subcommand(tmp_path):
    res = run_cli(["verify-invariance", "--graph", "C_4", "--k", "3"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["agree"] is True
    res4 = run_cli(["verify-invariance", "--graph", "C_4", "--k", "4"], tmp_path)
    assert res4.returncode == 0, res4.stderr
    out = json.loads(res4.stdout)
    assert out["agree"] is False and out["witness"] is not None


def test_round_subcommand(tmp_path):
    inst = KSInstance(2, ((((F(2), F(0)), F(1, 2)), ((F(0), F(1)), F(1, 2))),))
    (tmp_path / "ks.json").write_text(json.dumps(inst.to_json_dict()))
    res = run_cli(["round", "--family", "ks.json", "--epsilon", "1/2",
                   "--exhaustive-check"], tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["assignment"] == [1]
    assert out["certified"] and out["exhaustive_root_match"]


@pytest.mark.parametrize("profile", [
    {"n": 4, "e": ["1/0", "35/1"]},
    {"n": 4, "e": [1.5, "35/1"]},
    [1, 2],
], ids=["zero-denominator", "float", "array"])
def test_malformed_profile_exits_2(profile, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(profile))
    res = run_cli(["approx-root", "--profile", "bad.json"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "error" in json.loads(res.stderr)


def test_inconsistent_profile_exits_2(tmp_path):
    # p_2 = 10^2 - 2 * 100 < 0; test_maxroot checks that the threshold
    # loop is never entered on this profile
    (tmp_path / "bad.json").write_text(json.dumps({"n": 4, "e": ["10", "100"]}))
    res = run_cli(["approx-root", "--profile", "bad.json"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert "p_j < 0" in json.loads(res.stderr)["error"]


@pytest.mark.parametrize("pair", [
    {"p": ["1", "x"], "q": [1, 2]},
    [1, 2],
    {"p": ["1/0", "1"], "q": ["1", "1"]},
    {"p": ["1", "1"], "q": {"coeffs": ["1", "1"]}, "k": 1, "ratio_lower": "1/1",
     "provenance": "weak"},
], ids=["polynomial-arrays", "array", "zero-denominator", "coeffs-not-an-object"])
def test_malformed_pair_exits_2(pair, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(pair))
    res = run_cli(["verify-pair", "--in", "bad.json"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "error" in json.loads(res.stderr)


@pytest.mark.parametrize("family", [
    {"kind": "ks", "n": 2, "supports": 5},
    {"n": 2, "m": 40, "table": {"0": "1/1"}, "vectors": []},
    {"n": 2, "m": 1, "table": {"2": "1/1"}, "vectors": [["1/1"]]},
    {"n": 2, "m": 2, "table": {"1": "1/2", "01": "1/2", "2": "1/2"}, "vectors": [["1"], ["1"]]},
    {"n": 2, "m": 2, "table": {"1": "1/2", "\u0661": "1/2", "2": "1/2"},
     "vectors": [["1"], ["1"]]},
    5, None, True, "supports", [1],
], ids=["ks-supports-not-a-list", "sr-m-too-large", "sr-mask-out-of-range",
        "sr-mask-leading-zero", "sr-mask-arabic-indic-digit",
        "int", "null", "bool", "string", "array"])
def test_malformed_family_exits_2(family, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(family))
    res = run_cli(["round", "--family", "bad.json", "--epsilon", "1/2"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "error" in json.loads(res.stderr)


def test_exhaustive_check_refuses_more_leaves_than_its_budget(tmp_path, monkeypatch, capsys):
    # 2^21 outcomes: refused before the first leaf's characteristic
    # polynomial and before the rounding walk
    coin = [{"vector": ["1", "0"], "prob": "1/2"}, {"vector": ["0", "1"], "prob": "1/2"}]
    (tmp_path / "ks.json").write_text(json.dumps({"n": 2, "supports": [coin] * 21}))

    def worked(*args):
        raise AssertionError("the family was enumerated or walked")

    monkeypatch.setattr(interlacing, "_rank_one_char_poly", worked)
    monkeypatch.setattr(interlacing.KSOracle, "coeffs", worked)
    monkeypatch.chdir(tmp_path)
    status = main(["round", "--family", "ks.json", "--epsilon", "1/2", "--exhaustive-check"])
    out, err = capsys.readouterr()
    assert status == 2 and out == ""
    assert f"budget of 2^{SR_MAX_M}" in json.loads(err)["error"]


@pytest.mark.parametrize("args, data", [
    (["girth", "--graph", "bad.json"], {"n": 3, "edges": 5}),
    (["girth", "--graph", "bad.json"], [1, 2]),
    (["verify-invariance", "--graph", "C_4", "--k", "3", "--diag", "bad.json"], {"diag": 5}),
    (["verify-invariance", "--graph", "C_4", "--k", "3", "--diag", "bad.json"], [1, 2]),
    (["approx-root", "--profile", "bad.json"], {"n": [4], "e": ["1"]}),
    (["approx-root", "--profile", "bad.json"], {"n": None, "e": ["1"]}),
    (["manifest", "bad.json"], [1]),
    (["manifest", "bad.json"], {"subcommand": "selftest", "parameters": {"criteria": 5}}),
    (["manifest", "bad.json"], {"subcommand": "selftest", "parameters": {"criteria": [8]},
                                "seed": True}),
], ids=["graph-edges-not-a-list", "graph-array", "diag-not-a-list", "diag-array",
        "profile-n-list", "profile-n-null", "manifest-array", "manifest-criteria-number",
        "manifest-seed-bool"])
def test_malformed_input_exits_2(args, data, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(data))
    res = run_cli(args, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "error" in json.loads(res.stderr)


@pytest.mark.parametrize("subcommand, parameters, key", [
    ("girth", {"graph": 5}, "graph"),
    ("approx-root", {"profile": ["a"]}, "profile"),
    ("round", {"family": None, "epsilon": "1/2"}, "family"),
    ("verify-invariance", {"graph": "C_4", "k": [3]}, "k"),
    ("verify-invariance", {"graph": "C_4", "k": True}, "k"),
    ("gen-pair", {"kind": "cubic", "n": 5}, "kind"),
    ("gen-pair", {"kind": "weak", "n": "5"}, "n"),
    ("round", {"family": "ks.json", "epsilon": "1/2", "exhaustive_check": "yes"},
     "exhaustive_check"),
    ("selftest", {"criteria": "4"}, "criteria"),
    ("selftest", {"criteria": [4, None]}, "criteria"),
    ("round", {"family": "ks.json", "epsilon": "1/2", "exhaustive-check": True},
     "exhaustive-check"),
    ("sign-search", {"graph": "C_4", "cap": 24}, "cap"),
    ("approx-root", {"profile": "prof.json", "n": 4}, "n"),
    ("selftest", {"criteria": [4], "seed": 7}, "seed"),
    ("selftest", {"criteria": [" 8"]}, "criteria"),
    ("selftest", {"criteria": [8, "\u0668"]}, "criteria"),
    ("selftest", {"criteria": [True]}, "criteria"),
], ids=["graph-int", "profile-list", "family-null", "k-list", "k-bool", "kind-not-a-choice",
        "n-string", "flag-string", "criteria-string", "criteria-null-item",
        "flag-spelling-undeclared", "cap-undeclared", "n-undeclared", "seed-undeclared",
        "criteria-space", "criteria-arabic-indic-digit", "criteria-bool"])
def test_manifest_parameter_types_exit_2(subcommand, parameters, key, tmp_path, monkeypatch,
                                         capsys):
    (tmp_path / "ks.json").write_text(json.dumps(INPUTS["ks"][0]))
    (tmp_path / "prof.json").write_text(json.dumps(INPUTS["profile"][0]))
    (tmp_path / "m.json").write_text(json.dumps({"subcommand": subcommand,
                                                 "parameters": parameters}))
    monkeypatch.chdir(tmp_path)
    assert main(["manifest", "m.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert repr(key) in json.loads(err)["error"]


#: catalog spellings the old name parser read, each of a catalog graph;
#: the one-name catalog refuses them
RETIRED_GRAPH_NAMES = ["cube", "q3", "levi", "C8", "C_08", " Heawood ", "K_{3,3}"]

#: rational spellings parse_rational used to read, each of a value the
#: commands below accept
RETIRED_RATIONALS = ["1_000/3", "\u0661/\u0662", " 3 / 4 ", "+3", "-1/-2"]


#: integer spellings ``int`` reads besides -?[0-9]+, each of a value the
#: options below accept
RETIRED_INTEGERS = [" +3", "+3", "\u0663", "3_0", " 3", "3\n"]


@pytest.mark.parametrize("argv", [
    *[["gen-pair", "--kind", "weak", "--n", value] for value in RETIRED_INTEGERS],
    ["gen-pair", "--kind", "noisy", "--n", "7", "--k", "+3"],
    ["gen-pair", "--kind", "girth", "--graph", "C_4", "--power", "\u0662"],
    ["verify-invariance", "--graph", "C_4", "--k", "0_3"],
    ["approx-root", "--coeffs", "c.json", "--k", " 1"],
    ["selftest", "--criteria", " 8"],
    ["selftest", "--criteria", "\u0668"],
    ["selftest", "--criteria", "8", "--seed", "+1"],
])
def test_retired_integer_spellings_exit_2(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "c.json").write_text(json.dumps({"coeffs": ["2", "-3", "1"]}))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"invalid integer value: {argv[-1]!r}" in err or (
        f"invalid criterion_list value: {argv[-1]!r}" in err)


def _refusal(argv, capsys):
    status = main(argv)
    out, err = capsys.readouterr()
    assert status == 2 and out == ""
    return json.loads(err)["error"]


@pytest.mark.parametrize("subcommand, name", [
    *[("girth", name) for name in RETIRED_GRAPH_NAMES],
    # levi is the Tutte-Coxeter graph, above the signing cap whatever its name
    *[("sign-search", name) for name in RETIRED_GRAPH_NAMES if name != "levi"],
])
def test_retired_graph_spellings_exit_2(subcommand, name, capsys):
    error = _refusal([subcommand, "--graph", name], capsys)
    assert repr(name) in error and "unknown catalog graph" in error


@pytest.mark.parametrize("value", RETIRED_RATIONALS)
def test_retired_rational_spellings_exit_2(value, tmp_path, monkeypatch, capsys):
    (tmp_path / "prof.json").write_text(json.dumps({"n": 4, "e": [value]}))
    (tmp_path / "ks.json").write_text(json.dumps(INPUTS["ks"][0]))
    monkeypatch.chdir(tmp_path)
    for argv in (["approx-root", "--profile", "prof.json"],
                 ["round", "--family", "ks.json", f"--epsilon={value}"]):
        assert repr(value) in _refusal(argv, capsys)


def test_boolean_rational_exits_2(tmp_path, monkeypatch, capsys):
    # JSON true used to be read as the rational 1
    (tmp_path / "prof.json").write_text(json.dumps({"n": 4, "e": [True]}))
    monkeypatch.chdir(tmp_path)
    assert "True" in _refusal(["approx-root", "--profile", "prof.json"], capsys)


def test_graph_files_over_a_budget_exit_2(tmp_path, monkeypatch, capsys):
    # refused before a graph is built: building or scanning one fails the test
    def fail(*args):
        raise AssertionError("an over-budget graph was built")

    monkeypatch.setattr(cli, "girth", fail)
    monkeypatch.setattr(Graph, "__post_init__", fail)
    monkeypatch.chdir(tmp_path)
    for data, budget in (({"n": VERTEX_BUDGET + 1, "edges": []}, "vertex budget"),
                         ({"n": 4, "edges": [[0, 1]] * (EDGE_BUDGET + 1)}, "edge budget")):
        (tmp_path / "g.json").write_text(json.dumps(data))
        assert budget in _refusal(["girth", "--graph", "g.json"], capsys)


def test_graph_file_at_the_vertex_budget_is_read(tmp_path, monkeypatch, capsys):
    (tmp_path / "g.json").write_text(json.dumps({"n": VERTEX_BUDGET, "edges": []}))
    monkeypatch.chdir(tmp_path)
    assert main(["girth", "--graph", "g.json"]) == 0
    assert json.loads(capsys.readouterr().out)["girth"] == "infinity"


def test_repro_manifests_pass_the_parameter_check():
    paths = sorted((Path(__file__).resolve().parent.parent / "repro").glob("*.json"))
    assert paths
    for path in paths:
        manifest = RunManifest.from_json_dict(json.loads(path.read_text()))
        _typed_parameters(manifest.subcommand, manifest.parameters)


@pytest.mark.parametrize("k", [0, -2])
def test_verify_invariance_rejects_k_below_1(k, tmp_path):
    res = run_cli(["verify-invariance", "--graph", "C_4", "--k", str(k)], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "k >= 1" in json.loads(res.stderr)["error"]


@pytest.mark.parametrize("args, missing", [
    (["--kind", "noisy", "--k", "3"], "n"),
    (["--kind", "noisy", "--n", "8"], "k"),
    (["--kind", "weak"], "n"),
    (["--kind", "girth"], "graph"),
    (["--kind", "boosted"], "base"),
])
def test_gen_pair_names_the_missing_parameter(args, missing, tmp_path):
    res = run_cli(["gen-pair", *args], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    error = json.loads(res.stderr)["error"]
    assert error == f"gen-pair --kind {args[1]} needs the parameter {missing!r}"


def test_gen_pair_missing_parameter_in_manifest_exits_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "m.json").write_text(json.dumps({"subcommand": "gen-pair",
                                                 "parameters": {"kind": "weak"}}))
    monkeypatch.chdir(tmp_path)
    assert main(["manifest", "m.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "gen-pair --kind weak needs the parameter 'n'"}


def test_gen_pair_above_the_degree_budget_exits_2(tmp_path):
    over = str(DEGREE_BUDGET + 1)
    res = run_cli(["gen-pair", "--kind", "noisy", "--k", "2", "--n", over], tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert json.loads(res.stderr) == {
        "error": f"degree {over} is above the pair degree budget {DEGREE_BUDGET}"}


def test_gen_pair_boosted_on_a_noisy_base_exits_2(tmp_path):
    # the noisy q's top root 3/2 + cos(pi/8) is irrational: no rescaling
    base = tmp_path / "noisy.json"
    base.write_text(json.dumps(noisy_pair(2, 4).to_json_dict()))
    res = run_cli(["gen-pair", "--kind", "boosted", "--base", str(base)], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "exact rational lambda_max(q)" in json.loads(res.stderr)["error"]


def test_unknown_subcommand_exits_2(tmp_path):
    res = run_cli(["no-such-command"], tmp_path)
    assert res.returncode == 2


def test_byte_determinism(profile_file, tmp_path):
    a = run_cli(["approx-root", "--profile", str(profile_file)], tmp_path)
    b = run_cli(["approx-root", "--profile", str(profile_file)], tmp_path)
    c = run_cli(["sign-search", "--graph", "Q_3"], tmp_path)
    d = run_cli(["sign-search", "--graph", "Q_3"], tmp_path)
    for res in (a, b, c, d):
        assert res.returncode == 0 and res.stdout, res.stderr
    assert a.stdout == b.stdout
    assert c.stdout == d.stdout


def test_manifest_round_trip(profile_file, tmp_path):
    manifest = {
        "subcommand": "approx-root",
        "parameters": {"profile": str(profile_file)},
        "seed": None,
        "output": str(tmp_path / "result.json"),
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    res = run_cli(["manifest", str(mpath)], tmp_path)
    assert res.returncode == 0
    direct = run_cli(["approx-root", "--profile", str(profile_file)], tmp_path)
    assert (tmp_path / "result.json").read_text() == direct.stdout


def test_dispatch_in_process(profile_file):
    status, payload = dispatch(RunManifest(
        "approx-root", {"profile": str(profile_file)}))
    assert status == 0
    assert payload["branch"] == "chebyshev-loop"


def test_main_usage_error():
    assert main([]) == 2


# ---------------------------------------------------------------------------
# field mutation: every JSON input the CLI reads, one field changed at a time
# ---------------------------------------------------------------------------

#: values put in place of one field, or of the first element of a list field
POOL = [None, True, -1, 0, 2, "x", "1/0", [], [1], {}]

#: file kind -> (small valid file, command line that reads it as in.json)
INPUTS = {
    "profile": ({"n": 4, "e": ["10/1", "35/1"]}, ["approx-root", "--profile", "in.json"]),
    "polynomial": ({"coeffs": ["24", "-50", "35", "-10", "1"]},
                   ["approx-root", "--coeffs", "in.json", "--k", "2"]),
    "graph": ({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
              ["girth", "--graph", "in.json"]),
    "diag": ({"diag": ["1/2", "0", "-1", "2"]},
             ["verify-invariance", "--graph", "C_4", "--k", "3", "--diag", "in.json"]),
    "pair": (weak_pair(3).to_json_dict(), ["verify-pair", "--in", "in.json"]),
    "ks": ({"n": 2, "supports": [[{"vector": ["2", "0"], "prob": "1/2"},
                                  {"vector": ["0", "1"], "prob": "1/2"}]]},
           ["round", "--family", "in.json", "--epsilon", "1/2", "--exhaustive-check"]),
    "sr": ({"n": 2, "m": 2, "vectors": [["1", "0"], ["0", "1"]],
            "table": {"1": "1/2", "2": "1/2"}},
           ["round", "--family", "in.json", "--epsilon", "1/2", "--exhaustive-check"]),
    "manifest": ({"subcommand": "girth", "parameters": {"graph": "C_4"},
                  "seed": None, "output": None}, ["manifest", "in.json"]),
}


def _mutations():
    for kind, (valid, _) in INPUTS.items():
        for field, value in valid.items():
            indices = [None, 0] if isinstance(value, list) and value else [None]
            for index in indices:
                where = field if index is None else f"{field}[0]"
                for new in POOL:
                    yield pytest.param(kind, field, index, new,
                                       id=f"{kind}-{where}-{json.dumps(new)}")


@pytest.mark.parametrize("kind, field, index, value", list(_mutations()))
def test_field_mutation_exits_cleanly(kind, field, index, value, tmp_path, monkeypatch,
                                      capsys):
    valid, argv = INPUTS[kind]
    data = copy.deepcopy(valid)
    if index is None:
        data[field] = value
    else:
        data[field][index] = value
    (tmp_path / "in.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    status = main(argv)
    out, err = capsys.readouterr()
    assert status in (0, 1, 2)
    if status == 1:  # reserved for a failed certificate, reported on stdout
        payload = json.loads(out)
        assert isinstance(payload, dict) and payload and "error" not in payload
    if status == 2:
        assert "error" in json.loads(err)


@pytest.mark.parametrize("kind, field", [("profile", "n"), ("pair", "k"), ("ks", "n"),
                                         ("sr", "n"), ("sr", "m")])
def test_boolean_integer_fields_exit_2(kind, field, tmp_path, monkeypatch, capsys):
    # JSON true used to be read as the integer 1
    valid, argv = INPUTS[kind]
    data = {**valid, field: True}
    if kind == "profile":
        data["e"] = ["1"]  # k = 1 <= n, so only the spelling of n is wrong
    (tmp_path / "in.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert f'"{field}": int' in _refusal(argv, capsys)
