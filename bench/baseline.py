"""Measure a baseline: several seeds per workload, then one traced run.

    python3 bench/baseline.py [--out bench/baseline.json]

Run from the root of a checkout.  It runs bench/run.py once per workload and
seed, seeds 1 to 10, with ``run_seconds`` from BENCHMARK.json.  For each
end-to-end metric it reports the median, the quartiles and the spread:
(Q3 - Q1) / median, from ``statistics.quantiles(values, n=4)``.  It then makes
one traced run, seed 1, and writes everything, with the host description, to
the output file.  Progress goes to stderr.  A full baseline takes about 20 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
TRACE_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=os.path.join(BENCH, "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            res, lines = _run(workload, seed, seconds, 0)
            out["host"] = next(line[len("# host: "):] for line in lines if line.startswith("# host: "))
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v:.5g}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name]}
            print(f"{workload} {name}: median {med:.5g}, spread {spread:.4f} (bound {bounds[name]})",
                  file=sys.stderr, flush=True)
        out["workloads"][workload] = {"summary": summary, "runs": runs}
    res, lines = _run("codec", TRACE_SEED, seconds, 1)
    out["traced"] = {"seed": TRACE_SEED, "correct": res["correct"], "attempted": res["attempted"],
                     "failed": res["failed"],
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                     "breakdown": [line[2:] for line in lines if line.startswith("# ")]}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
