"""zecknum benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {codec,walk,carriers,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package under test is imported from its
``src`` directory, nothing is installed.  Stdlib only.

--trace 0 measures one workload with tracing off.  Each set-up and the timed
run happen in fresh processes (bench/worker.py), so cached rows, sequences
and peak memory never leak between them.  SETUP_REPEATS processes set up;
the last of them then runs the closed loop for S seconds, and setup_s is the
median of their set-up times.

--trace 1 is the separate traced run.  It runs every workload's fixed traced
operation list (whatever --workload says, so the per-layer figures always
cover every layer), each in a fresh process, with wrappers from bench/tracing.py
around the public functions of each layer, then the same list untraced to
give the tracing overhead.  codec, walk and carriers are then set up once more
untraced, in fresh processes, to give the set-up overhead of tracing.

Every answer is checked against bench/oracles.py, whose self-check runs first.
The human-readable report goes to stdout; its last line is the JSON result.
See bench/README.md for the workloads, metrics and the baseline.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracles  # noqa: E402

WORKLOADS = ("codec", "walk", "carriers", "cli")
# Times are scaled to a reference speed: the speed at which worker.calibrate()
# takes CAL_REF_S.  Each operation is scaled by the median calibration taken
# within CAL_WINDOW_S of its start, and each set-up by the calibrations taken
# just before and after it.  On a shared host the speed of the CPU drifts by
# tens of percent within minutes; the calibration tracks that drift, the
# zecknum code under test does not change it.
CAL_REF_S = 1e-3
CAL_WINDOW_S = 1.0

# set-ups per --trace 0 run (the last one also runs the loop); codec's take seconds each
SETUP_REPEATS = {"codec": 3, "walk": 5, "carriers": 5, "cli": 5}
# The run is stopped this long after it starts, plus --seconds for the timed loop.
TIME_ALLOWANCE_S = 150.0
# Percentile reported as latency_ms_p90.  cli finishes 80 operations in 20 s,
# too few for p90 to have ten samples beyond it; p87 has.  The rank is fixed
# per workload so that runs of different speed compare the same percentile.
TAIL_RANK = {"codec": 90, "walk": 90, "carriers": 90, "cli": 87}
# Workloads whose traced set-up is compared with an untraced one.  cli's
# traced set-up calls main() in process, its untraced one starts a command,
# so the two are not comparable.
SETUP_OVERHEAD_WORKLOADS = ("codec", "walk", "carriers")

# per-layer metric -> workloads whose traced phases it is summed over
LAYER_SOURCES = {
    "config.load_fixture.ms": WORKLOADS,
    "config.build_system.ms": WORKLOADS,
    "cli.import_ms": ("cli",),
    "cli.main.ms": ("cli",),
    "coeff.CoeffFn.init.calls": ("walk",),
    "coeff.CoeffFn.digit.calls": ("walk",),
    "blocks.successor_asc.calls": ("walk",),
    "blocks.successor_asc.self_ms": ("walk",),
    "blocks.scan.self_ms": ("codec", "walk"),
    "blocks.digit_calls_per_member": ("walk",),
    "recurrences.rows_built": ("codec", "cli"),
    "recurrences.row_build.ms": ("codec", "cli"),
    "recurrences.row_digits": ("codec", "cli"),
    "recurrences.rows_used_ratio": ("codec",),
    "integers.seq_terms": ("codec",),
    "integers.seq_value.calls": ("codec",),
    "integers.terms_used_ratio": ("codec",),
    "integers.find_top.ms": ("codec",),
    "integers.encode_int.self_ms": ("codec",),
    "integers.decode_int.ms": ("codec",),
    "integers.enumerate_subset.ms": ("walk",),
    "uniqueness.check_unique.ms": ("walk",),
    "uniqueness.members_seen": ("walk",),
    "real.expand_real.self_ms": ("carriers",),
    "real.find_first_below.ms": ("carriers",),
    "real.seq_value.calls": ("carriers",),
    "real.verify_maximal_identity.ms": ("carriers",),
    "padic.decode_padic.self_ms": ("carriers",),
    "padic.eval_padic.ms": ("carriers",),
    "padic.check_unique_padic.ms": ("walk",),
    "padic.seq_build.ms": ("carriers",),
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    """Children get pinned ambient state: no ZECKNUM_PRECISION, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if k != "ZECKNUM_PRECISION"}
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), mode, workload, str(seed), str(seconds)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode}: over the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode}: worker exited {proc.returncode}\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _scales(starts: list[float], cal: list[list[float]]) -> list[float]:
    """Per operation, CAL_REF_S over the median calibration within CAL_WINDOW_S."""
    times = [t for t, _ in cal]
    out = []
    for t in starts:
        lo = bisect.bisect_left(times, t - CAL_WINDOW_S)
        hi = max(bisect.bisect_right(times, t + CAL_WINDOW_S), lo + 1)
        out.append(CAL_REF_S / statistics.median(d for _, d in cal[lo:hi]))
    return out


def _percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _scaled_setup(r: dict) -> float:
    """A worker's set-up time scaled by the calibrations around it."""
    return r["setup_s"] * CAL_REF_S / statistics.median(r["cal_setup_s"])


def _host() -> str:
    mem = "?"
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            mem = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("MemTotal"))
    except (OSError, StopIteration):
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, MemTotal {mem}"


def measure(workload: str, seed: int, seconds: int, deadline: float):
    pre = [_worker("setup", workload, seed, 0, deadline) for _ in range(SETUP_REPEATS[workload] - 1)]
    run = _worker("run", workload, seed, seconds, deadline)
    setups = [r["setup_s"] for r in (*pre, run)]
    attempted = run["attempted"] + sum(r.get("attempted", 0) for r in pre)
    failed = run["failed"] + sum(r.get("failed", 0) for r in pre)
    errors = [e for r in (*pre, run) for e in r.get("errors", [])]
    raw = run["latencies_s"]
    lat = [t * k for t, k in zip(raw, _scales(run["starts_s"], run["cal_s"]))]
    scaled_setups = [_scaled_setup(r) for r in (*pre, run)]
    n = len(lat)
    p = TAIL_RANK[workload]

    def timing(lat, setups):
        busy = sum(lat)
        return {
            "ops_per_s": (n / busy, "1/s", n),
            "latency_ms_p50": (_percentile(lat, 50) * 1e3, "ms", n),
            "latency_ms_p90": (_percentile(lat, p) * 1e3, "ms", n),
            "members_per_s": (run["members"] / busy, "1/s", n),
            "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB", 1),
            "setup_s": (statistics.median(setups), "s", len(setups)),
        }

    metrics = timing(lat, scaled_setups)
    cal = statistics.median(d for _, d in run["cal_s"])
    notes = [f"latency_ms_p90 is p{p} ({n} samples)",
             f"members counted: {run['members']}",
             f"times scaled to calibrate() = {CAL_REF_S * 1e3:g} ms; its median in the loop was {cal * 1e3:.4f} ms "
             f"over {len(run['cal_s'])} samples",
             "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, (v, _, _) in timing(raw, setups).items()),
             f"setup_s values: {', '.join(f'{s:.4f}' for s in scaled_setups)}"]
    return metrics, attempted, failed, errors, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(seed: int, deadline: float):
    res = {w: _worker("trace", w, seed, 0, deadline) for w in WORKLOADS}
    plain = {w: _worker("setup", w, seed, 0, deadline) for w in SETUP_OVERHEAD_WORKLOADS}

    def over(metric, fn):
        return sum(fn(res[w]["trace"]) for w in LAYER_SOURCES[metric])

    m = {}
    for metric in LAYER_SOURCES:
        stem, key = metric.rsplit(".", 1)
        if key in ("ms", "self_ms"):
            m[metric] = (over(metric, lambda t: t["spans"].get(stem, {}).get(key, 0.0)), "ms")
        else:
            m[metric] = (over(metric, lambda t: t["counts"].get(metric, 0)), "count")
    codec, walk = res["codec"]["trace"], res["walk"]
    m["blocks.digit_calls_per_member"] = (
        _ratio(walk["trace"]["counts"].get("coeff.CoeffFn.digit.calls", 0), walk["members"]), "calls/member")
    m["recurrences.rows_used_ratio"] = (_ratio(codec["rows_read_max"], codec["rows_built_read"]), "ratio")
    m["integers.seq_terms"] = (codec["seq_terms"], "count")
    m["integers.terms_used_ratio"] = (_ratio(codec["terms_used_max"], codec["terms_of_used"]), "ratio")
    m["cli.import_ms"] = (statistics.median(res["cli"]["import_ms"]), "ms")
    notes = []
    for w in WORKLOADS:
        r = res[w]
        m[f"trace.overhead.{w}"] = (_ratio(r["traced_busy_s"], r["untraced_busy_s"]), "ratio")
        if w in plain:
            m[f"trace.setup_overhead.{w}"] = (_ratio(_scaled_setup(r), _scaled_setup(plain[w])), "ratio")
            notes.append(f"{w}: set-up {_scaled_setup(plain[w]):.3f} s untraced, {_scaled_setup(r):.3f} s traced")
        notes.append(f"{w}: {r['ops']} ops; untraced {r['ops'] / r['untraced_busy_s']:.2f} ops/s, "
                     f"traced {r['ops'] / r['traced_busy_s']:.2f} ops/s")
        for name, s in sorted(r["trace"]["spans"].items(), key=lambda kv: -kv[1]["self_ms"]):
            notes.append(f"  {w} span {name}: calls {s['calls']}, ms {s['ms']:.3f}, self_ms {s['self_ms']:.3f}")
        for name, c in sorted(r["trace"]["counts"].items()):
            notes.append(f"  {w} count {name}: {c}")
        for parent, child, calls in r["trace"]["edges"][:8]:
            notes.append(f"  {w} edge {parent or '(benchmark)'} -> {child}: {calls} calls")
    attempted = sum(r["attempted"] for r in res.values())
    failed = sum(r["failed"] for r in res.values())
    errors = [e for r in res.values() for e in r["errors"]]
    return {k: (v, u, None) for k, (v, u) in m.items()}, attempted, failed, errors, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "zecknum", "__init__.py")):
        print(f"error: no zecknum package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_ALLOWANCE_S + args.seconds
    try:
        rejected = oracles.self_check()
        if args.trace:
            metrics, attempted, failed, errors, notes = trace(args.seed, deadline)
        else:
            metrics, attempted, failed, errors, notes = measure(args.workload, args.seed, args.seconds, deadline)
    except (BenchError, oracles.CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    kind = "traced run, all workloads" if args.trace else f"workload {args.workload}"
    print(f"# zecknum benchmark: {kind}, seed {args.seed}, {args.seconds} s")
    print(f"# host: {_host()}")
    print(f"# decimal context: {oracles.REAL_PREC} digits, set by the benchmark around real operations")
    print(f"# oracle self-check: {rejected} perturbed answers rejected")
    print(f"# operations: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:.6f}")
    for e in errors[:10]:
        print(f"# failure: {e}")
    for name, (value, unit, samples) in metrics.items():
        extra = f"\tsamples {samples}" if samples is not None else ""
        print(f"{name}\t{value:.6g}\t{unit}{extra}")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
