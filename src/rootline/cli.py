"""Command-line interface: every operation behind JSON in/out.

All numeric output carries the exact rational string (authoritative)
plus a decimal rendering for humans.  Every subcommand is internally a
RunManifest dispatch, so identical manifests produce identical output
bytes; `rootline manifest FILE` replays a saved manifest directly.
A manifest's parameters are the subcommand's options by dest name
(`--exhaustive-check` is `exhaustive_check`); a key that no option
declares exits 2.  `sign-search` and `verify-invariance` enumerate every
signing and refuse a graph with more edges than `graphs.EXHAUSTION_CAP`
(24).

Exit codes: 0 success, 1 certificate or verification failure,
2 usage / malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from rootline.graphs import (
    Graph,
    best_signing_search,
    girth,
    high_girth_catalog,
    sign_invariance_report,
)
from rootline.interlacing import (
    KSInstance,
    KSOracle,
    SRInstance,
    SROracle,
    brute_force_poly,
    padded_coeffs,
    round_family,
)
from rootline.lowerbounds import (
    LowerBoundPair,
    boosted_pair,
    girth_pair,
    noisy_pair,
    verify_pair,
    weak_pair,
)
from rootline.maxroot import approx_max_root
from rootline.poly import ExactPolynomial
from rootline.ratutil import decimal_render, format_rational, parse_rational, to_fraction
from rootline.selftest import DEFAULT_SEED, run_criteria
from rootline.symfuncs import SymmetricProfile, profile_from_polynomial


class CliError(Exception):
    """Usage-level problem: malformed input, unknown names (exit 2)."""


class CertificateFailure(Exception):
    """A verification or certification failed (exit 1); its one argument
    is the JSON-able payload to report."""


@dataclass
class RunManifest:
    subcommand: str
    parameters: Dict
    seed: Optional[int] = None
    output: Optional[str] = None

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunManifest":
        if not (isinstance(d, dict) and isinstance(d.get("subcommand"), str)
                and isinstance(d.get("parameters", {}), dict)
                and (d.get("seed") is None or type(d["seed"]) is int)
                and isinstance(d.get("output"), (str, type(None)))):
            raise ValueError('a manifest is a JSON object {"subcommand": str, '
                             '"parameters": {...}, "seed": int or null, "output": str or null}')
        return cls(
            subcommand=d["subcommand"],
            parameters=dict(d.get("parameters", {})),
            seed=d.get("seed"),
            output=d.get("output"),
        )


def _rat_fields(name: str, value: Fraction) -> Dict[str, str]:
    return {name: format_rational(value), f"{name}_dec": decimal_render(value)}


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read JSON from {path}: {exc}") from exc


def _load_graph(name_or_path: str) -> Graph:
    if name_or_path.endswith(".json"):
        return Graph.from_json_dict(_load_json(name_or_path))
    try:
        return high_girth_catalog(name_or_path)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommand handlers (manifest parameters -> result dict)
# ---------------------------------------------------------------------------


def _cmd_approx_root(params: Dict, seed: Optional[int]) -> dict:
    k = params["k"]
    if params["profile"]:
        prof = SymmetricProfile.from_json_dict(_load_json(params["profile"]))
        if k is not None:
            prof = prof.truncate(k)
    elif params["coeffs"]:
        poly = ExactPolynomial.from_json_dict(_load_json(params["coeffs"]))
        if poly.is_zero or not poly.is_monic():
            raise CliError("--coeffs requires a monic nonzero polynomial")
        prof = profile_from_polynomial(poly, poly.degree if k is None else k)
    else:
        raise CliError("approx-root needs --profile or --coeffs")
    res = approx_max_root(prof)
    out = {"n": prof.n, "k": prof.k, "iterations": res.iterations, "branch": res.branch}
    out.update(_rat_fields("estimate", res.estimate))
    out.update(_rat_fields("factor", res.factor))
    return out


def _cmd_gen_pair(params: Dict, seed: Optional[int]) -> dict:
    kind = params["kind"]

    def needed(name: str):
        if params[name] is None:
            raise CliError(f"gen-pair --kind {kind} needs the parameter {name!r}")
        return params[name]

    if kind == "weak":
        pair = weak_pair(needed("n"))
    elif kind == "girth":
        pair = girth_pair(_load_graph(needed("graph")), params["power"])
    elif kind == "noisy":
        pair = noisy_pair(needed("k"), needed("n"))
    else:  # boosted: dispatch has checked kind against the choices
        base = LowerBoundPair.from_json_dict(_load_json(needed("base")))
        pair = boosted_pair(base, params["t"])
    return pair.to_json_dict()


def _cmd_verify_pair(params: Dict, seed: Optional[int]) -> dict:
    pair = LowerBoundPair.from_json_dict(_load_json(params["in"]))
    report = verify_pair(pair)
    out = report.to_json_dict()
    if not report.ok:
        raise CertificateFailure(out)
    return out


def _cmd_girth(params: Dict, seed: Optional[int]) -> dict:
    g = _load_graph(params["graph"])
    value = girth(g)
    return {"n": g.n, "edges": g.num_edges,
            "girth": "infinity" if value == float("inf") else int(value)}


def _cmd_sign_search(params: Dict, seed: Optional[int]) -> dict:
    g = _load_graph(params["graph"])
    best = best_signing_search(g)
    out = {
        "signing": list(best.signing.signs),
        "classes_searched": best.classes_searched,
        "char_poly": best.char.to_json_dict(),
    }
    out.update(_rat_fields("lambda_max_lo", best.lambda_max.lo))
    out.update(_rat_fields("lambda_max_hi", best.lambda_max.hi))
    return out


def _cmd_verify_invariance(params: Dict, seed: Optional[int]) -> dict:
    g = _load_graph(params["graph"])
    k = params["k"]
    diag = None
    if params["diag"]:
        data = _load_json(params["diag"])
        if not (isinstance(data, dict) and isinstance(data.get("diag"), list)):
            raise CliError('a diagonal is a JSON object {"diag": ["p/q", ...]}')
        diag = [to_fraction(v) for v in data["diag"]]
    rep = sign_invariance_report(g, diag, k)
    return {
        "k": k,
        "agree": rep.agree,
        "first_disagreement": rep.first_disagreement,
        "witness": list(rep.witness) if rep.witness else None,
    }


def _cmd_round(params: Dict, seed: Optional[int]) -> dict:
    data = _load_json(params["family"])
    if not isinstance(data, dict):
        raise CliError("a family file holds a JSON object (a KS or an SR instance)")
    if "supports" in data:
        inst = KSInstance.from_json_dict(data)
        oracle = KSOracle(inst)
    elif "table" in data:
        inst = SRInstance.from_json_dict(data)
        oracle = SROracle(inst)
    else:
        raise CliError("family file is neither a KS nor an SR instance")
    eps = parse_rational(params["epsilon"])
    # before the walk, so that a family over the leaf budget is refused first
    brute = padded_coeffs(brute_force_poly(inst), inst.n) if params["exhaustive_check"] else None
    res = round_family(inst.spec(), oracle, eps)
    out = res.to_json_dict()
    if brute is not None:
        out["exhaustive_root_match"] = brute == oracle.coeffs((), inst.n)
        if not out["exhaustive_root_match"]:
            raise CertificateFailure(out)
    if not res.certified:
        raise CertificateFailure(out)
    return out


def _cmd_selftest(params: Dict, seed: Optional[int]) -> dict:
    numbers = params["criteria"]
    seed = DEFAULT_SEED if seed is None else seed
    results = run_criteria(numbers, seed)
    for res in results:
        print(res.line(), file=sys.stderr)
    out = {"seed": seed,
           "results": [r.to_json_dict() for r in results],
           "all_passed": all(r.passed for r in results)}
    if not out["all_passed"]:
        raise CertificateFailure(out)
    return out


_HANDLERS = {
    "approx-root": _cmd_approx_root,
    "gen-pair": _cmd_gen_pair,
    "verify-pair": _cmd_verify_pair,
    "girth": _cmd_girth,
    "sign-search": _cmd_sign_search,
    "verify-invariance": _cmd_verify_invariance,
    "round": _cmd_round,
    "selftest": _cmd_selftest,
}


#: the command line's own names that are not manifest parameters
_NOT_PARAMETERS = ("help", "subcommand", "seed", "out")


def integer(text: str) -> int:
    """An integer option's value, spelt -?[0-9]+ as ``parse_rational``
    spells p (``int`` alone also reads " +3", "3_0" and non-ASCII digits)."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def criterion_list(text: str) -> List[int]:
    return [integer(x) for x in text.split(",")]


def _typed_parameters(subcommand: str, params: Dict) -> Dict:
    """Every option of the subcommand, by dest name: the manifest's value
    checked against the option (an int for ``type=integer``, a bool for a
    flag, a string otherwise, one of the choices where there are choices,
    and for ``--criteria`` a list of criterion numbers, read as ints), or
    the option's default where the value is missing or null.  A key that
    no option declares is refused."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {a.dest: a for a in sub.choices[subcommand]._actions
               if a.dest not in _NOT_PARAMETERS}
    undeclared = sorted(set(params) - set(actions))
    if undeclared:
        raise CliError(f"{subcommand} has no parameter " + ", ".join(map(repr, undeclared)))
    typed = {}
    for dest, action in actions.items():
        value = params.get(dest)
        if value is None:
            if action.required:
                raise CliError(f"{subcommand} needs the parameter {dest!r}")
            typed[dest] = action.default
            continue
        if action.nargs == 0:
            ok, kind = isinstance(value, bool), "true or false"
        elif action.type is integer:
            ok, kind = type(value) is int, "an integer"
        elif action.type is None:
            ok, kind = isinstance(value, str), "a string"
        else:  # --criteria: ints, and strings that `integer` reads
            kind = "a list of criterion numbers"
            ok = isinstance(value, list) and all(type(x) in (int, str) for x in value)
            try:
                value = [x if type(x) is int else integer(x) for x in value] if ok else value
            except ValueError:
                ok = False
        if ok and action.choices is not None and value not in action.choices:
            ok, kind = False, "one of " + ", ".join(action.choices)
        if not ok:
            raise CliError(f"parameter {dest!r} of {subcommand} must be {kind}, "
                           f"not {json.dumps(value)}")
        typed[dest] = value
    return typed


def dispatch(manifest: RunManifest) -> Tuple[int, dict]:
    """Route a manifest to its handler; (exit status, JSON-able output)."""
    handler = _HANDLERS.get(manifest.subcommand)
    if handler is None:
        raise CliError(f"unknown subcommand {manifest.subcommand!r}")
    params = _typed_parameters(manifest.subcommand, manifest.parameters)
    try:
        return 0, handler(params, manifest.seed)
    except CertificateFailure as exc:
        return 1, exc.args[0]
    except (ValueError, KeyError) as exc:
        raise CliError(str(exc)) from exc


def _emit(manifest: RunManifest, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if manifest.output:
        try:
            with open(manifest.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {manifest.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootline",
        description="Certified max-root approximation from top coefficients, "
                    "lower-bound pair generators, and interlacing-family rounding.")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("approx-root", help="estimate the largest root from a profile")
    p.add_argument("--profile", help="SymmetricProfile JSON file")
    p.add_argument("--coeffs", help="monic polynomial JSON file (alternative input)")
    p.add_argument("--k", type=integer)

    p = sub.add_parser("gen-pair", help="generate a coefficient-matched pair")
    p.add_argument("--kind", required=True, choices=["weak", "girth", "boosted", "noisy"])
    p.add_argument("--n", type=integer)
    p.add_argument("--k", type=integer)
    p.add_argument("--graph")
    p.add_argument("--power", type=integer, default=2)
    p.add_argument("--base", help="pair JSON file (boosted)")
    p.add_argument("--t", type=integer, default=2)

    p = sub.add_parser("verify-pair", help="re-check a pair's certificate")
    p.add_argument("--in", required=True)

    p = sub.add_parser("girth", help="shortest cycle length")
    p.add_argument("--graph", required=True, help="catalog name or graph JSON file")

    p = sub.add_parser("sign-search", help="signing minimizing lambda_max")
    p.add_argument("--graph", required=True)

    p = sub.add_parser("verify-invariance", help="trace powers across all signings")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--diag", help='JSON file {"diag": ["p/q", ...]}')

    p = sub.add_parser("round", help="round an interlacing family")
    p.add_argument("--family", required=True, help="KS or SR instance JSON")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--exhaustive-check", action="store_true")

    p = sub.add_parser("selftest", help="run acceptance criteria")
    p.add_argument("--criteria", type=criterion_list,
                   help="comma-separated list, default all")
    p.add_argument("--seed", type=integer)

    p = sub.add_parser("manifest", help="run a saved manifest")
    p.add_argument("file")

    for name in ("approx-root", "gen-pair", "verify-pair", "girth", "sign-search",
                 "verify-invariance", "round", "selftest"):
        sub.choices[name].add_argument("--out", help="write output JSON here")
    return parser


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    """The subcommand's options, by dest name, as manifest parameters."""
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    return RunManifest(args.subcommand, params, seed=getattr(args, "seed", None),
                       output=args.out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.subcommand == "manifest":
            manifest = RunManifest.from_json_dict(_load_json(args.file))
        else:
            manifest = _manifest_from_args(args)
        status, payload = dispatch(manifest)
        _emit(manifest, payload)
        return status
    except (CliError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
