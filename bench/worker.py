"""One workload in one fresh process; prints one JSON object on stdout.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS

Run from the checkout root, so that ``src`` holds the package under test.
MODE is ``setup`` (set up once and report the time), ``run`` (set up, then
the timed closed loop for SECONDS) or ``trace`` (set up and run the fixed
traced operation list under the tracer, then the same list untraced).
bench/run.py starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oracles  # noqa: E402
from workloads import WORKLOADS, import_zecknum  # noqa: E402

CAL_INTERVAL_S = 0.2  # the loop calibrates between operations at least this often
CAL_SETUP_SAMPLES = 5  # calibrations just before and just after set-up, each
_CAL_X = 7**200


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work: big-int arithmetic,
    tuples and a dict.  It uses nothing from zecknum, so its time tracks only
    how fast the host runs Python at that moment; bench/run.py scales times by it."""
    clock = time.perf_counter
    t0 = clock()
    acc, d = 0, {}
    for i in range(3000):
        acc = (acc + _CAL_X * i) % 1000000007
        d[i & 63] = (i, acc)
    return clock() - t0


def _loop(ops, seconds: float | None, round_len: int = 1):
    """Closed loop over ``ops``: the next operation starts when the previous
    one and its check are done.  Cycles until ``seconds`` have passed and a
    round of ``round_len`` operations is complete, or runs the list once when
    ``seconds`` is None.  Only ``run()`` is timed.  Between operations, at
    least every CAL_INTERVAL_S, it records (time, calibrate())."""
    clock = time.perf_counter
    origin = clock()
    lat, starts, members, failed, errors = [], [], 0, 0, []
    cal = [(0.0, calibrate())]
    deadline = None if seconds is None else origin + seconds
    next_cal = clock() + CAL_INTERVAL_S
    i = 0
    while True:
        run, check = ops[i % len(ops)]
        i += 1
        t0 = clock()
        starts.append(t0 - origin)
        try:
            res = run()
        except Exception as exc:  # an unexpected raise is a failed operation
            lat.append(clock() - t0)
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            lat.append(clock() - t0)
            try:
                members += check(res)
            except oracles.CheckFailed as exc:
                failed += 1
                errors.append(str(exc))
        if clock() >= next_cal:
            cal.append((clock() - origin, calibrate()))
            next_cal = clock() + CAL_INTERVAL_S
        if deadline is None:
            if i == len(ops):
                break
        elif clock() >= deadline and i % round_len == 0:
            break
    return {"latencies_s": lat, "starts_s": starts, "members": members, "attempted": len(lat),
            "failed": failed, "errors": errors[:5], "cal_s": cal}


def _peak_rss_kb(workload: str) -> int:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main() -> int:
    mode, name, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and the commands it starts, so that the
        # calibration measures the CPU the operations run on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    w = WORKLOADS[name](seed)
    out = {"workload": name, "mode": mode}

    tracer = None
    calibrate()  # warm the calibration code itself
    cal_setup = [calibrate() for _ in range(CAL_SETUP_SAMPLES)]
    t0 = time.perf_counter()
    if mode == "trace":
        zk = import_zecknum(with_cli=name == "cli")
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        if name == "cli":
            w.trace_setup(zk)
        else:
            w.setup(zk)
    else:
        w.setup(None if name == "cli" else import_zecknum())
    out["setup_s"] = time.perf_counter() - t0
    out["cal_setup_s"] = cal_setup + [calibrate() for _ in range(CAL_SETUP_SAMPLES)]
    try:
        w.check_setup()
        setup_errors = []
    except oracles.CheckFailed as exc:  # counted as one failed operation
        setup_errors = [f"set-up: {exc}"]

    if mode == "run":
        out.update(_loop(w.ops(), seconds, w.round_len))
    elif mode == "trace":
        ops = w.trace_ops()
        traced = _loop(ops, None)
        tracer.uninstall()
        untraced = _loop(ops, None)
        out["trace"] = tracer.summary()
        out["traced_busy_s"] = sum(traced["latencies_s"])
        out["untraced_busy_s"] = sum(untraced["latencies_s"])
        out["ops"] = len(ops)
        out["members"] = traced["members"]
        out["attempted"] = traced["attempted"] + untraced["attempted"]
        out["failed"] = traced["failed"] + untraced["failed"]
        out["errors"] = traced["errors"] + untraced["errors"]
        if name == "cli":
            out["import_ms"] = w.import_ms()
    if setup_errors:
        out["attempted"] = out.get("attempted", 0) + 1
        out["failed"] = out.get("failed", 0) + 1
        out["errors"] = setup_errors + out.get("errors", [])
    out["peak_rss_kb"] = _peak_rss_kb(name)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
