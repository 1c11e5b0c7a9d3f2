"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/repeat.py --workloads bracket,signing --seeds 1-10 --seconds 20

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints per workload and metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median.  Every run and the summary are written to
``bench/results/repeat-<label>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="bracket,rounding,certify,signing")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="20")
    p.add_argument("--label", default="latest")
    args = p.parse_args(argv)

    runs, summary, status = [], {}, 0
    for workload in args.workloads.split(","):
        values: dict = {}
        failed_shares = set()
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, "result": result,
                         "rounds": report["rounds"]})
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            values.setdefault("op_p50_ms", []).append(report["op_p50_ms"])  # not gated
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        summary[workload]["failed_shares"] = sorted(failed_shares)
        print(f"== {workload} (failed shares {sorted(failed_shares)})")
        for name, s in summary[workload].items():
            if name != "failed_shares":
                spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {name:34s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {spread}  n={s['n']}")
    (BENCH_DIR / "results").mkdir(exist_ok=True)
    with open(BENCH_DIR / "results" / f"repeat-{args.label}.json", "w") as fh:
        json.dump({"args": vars(args), "summary": summary, "runs": runs}, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
