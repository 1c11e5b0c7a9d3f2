import copy
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import rootline
from rootline.cli import RunManifest, dispatch, main
from rootline.interlacing import KSInstance
from rootline.lowerbounds import weak_pair
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
    path.write_text(json.dumps(profile_of_roots(4, [1, 2, 3, 4], 2).to_json_dict()))
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
    from rootline.poly import ExactPolynomial

    poly = ExactPolynomial.from_roots([1, 2, 3, 4])
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
], ids=["ks-supports-not-a-list", "sr-m-too-large", "sr-mask-out-of-range"])
def test_malformed_family_exits_2(family, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(family))
    res = run_cli(["round", "--family", "bad.json", "--epsilon", "1/2"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "error" in json.loads(res.stderr)


@pytest.mark.parametrize("args, data", [
    (["girth", "--graph", "bad.json"], {"n": 3, "edges": 5}),
    (["girth", "--graph", "bad.json"], [1, 2]),
    (["verify-invariance", "--graph", "C_4", "--k", "3", "--diag", "bad.json"], {"diag": 5}),
    (["verify-invariance", "--graph", "C_4", "--k", "3", "--diag", "bad.json"], [1, 2]),
    (["approx-root", "--profile", "bad.json"], {"n": [4], "e": ["1"]}),
    (["approx-root", "--profile", "bad.json"], {"n": None, "e": ["1"]}),
    (["manifest", "bad.json"], [1]),
    (["manifest", "bad.json"], {"subcommand": "selftest", "parameters": {"criteria": 5}}),
], ids=["graph-edges-not-a-list", "graph-array", "diag-not-a-list", "diag-array",
        "profile-n-list", "profile-n-null", "manifest-array", "manifest-criteria-number"])
def test_malformed_input_exits_2(args, data, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(data))
    res = run_cli(args, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "error" in json.loads(res.stderr)


@pytest.mark.parametrize("subcommand, parameters", [
    ("girth", {"graph": 5}),
    ("approx-root", {"profile": ["a"]}),
    ("round", {"family": None, "epsilon": "1/2"}),
    ("verify-invariance", {"graph": "C_4", "k": [3]}),
    ("verify-invariance", {"graph": "C_4", "k": True}),
    ("gen-pair", {"kind": "cubic", "n": 5}),
    ("gen-pair", {"kind": "weak", "n": "5"}),
    ("round", {"family": "ks.json", "epsilon": "1/2", "exhaustive_check": "yes"}),
    ("selftest", {"criteria": "4"}),
    ("selftest", {"criteria": [4, None]}),
], ids=["graph-int", "profile-list", "family-null", "k-list", "k-bool", "kind-not-a-choice",
        "n-string", "flag-string", "criteria-string", "criteria-null-item"])
def test_manifest_parameter_types_exit_2(subcommand, parameters, tmp_path, monkeypatch, capsys):
    (tmp_path / "ks.json").write_text(json.dumps(INPUTS["ks"][0]))
    (tmp_path / "m.json").write_text(json.dumps({"subcommand": subcommand,
                                                 "parameters": parameters}))
    monkeypatch.chdir(tmp_path)
    assert main(["manifest", "m.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("k", [0, -2])
def test_verify_invariance_rejects_k_below_1(k, tmp_path):
    res = run_cli(["verify-invariance", "--graph", "C_4", "--k", str(k)], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "k >= 1" in json.loads(res.stderr)["error"]


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
