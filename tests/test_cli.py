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
    path.write_text(profile_of_roots(4, [1, 2, 3, 4], 2).to_json())
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
    path.write_text(poly.to_json())
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
