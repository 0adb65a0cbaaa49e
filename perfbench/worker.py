"""One pass of one workload in a fresh interpreter.

Started by run.py with `--spawned` set to the monotonic clock just before
the process was created, so set-up time runs from interpreter start to the
first op and covers `import verlinde` and building the inputs.  The ops run
back to back in one thread; only then are the outputs checked.  The pass
prints one JSON object as the last line of stdout.

The speed of a shared host drifts by a quarter within minutes.  So the
pass also times a fixed pure-Python loop (`calibrate`) before the first
op, between ops every CAL_EVERY_S and after the last op, outside the timed
ops and outside `wall_s`; run.py scales the pass's times by these samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
import traceback

CAL_EVERY_S = 0.2  # op time between two calibration samples


def calibrate():
    """Seconds one fixed pure-Python loop takes now (about 10 ms)."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(60000):
        acc = (acc * 31 + i) & 0xFFFFFF
        seen[acc & 1023] = i
    return time.perf_counter() - t0


def _threads():
    """Operating-system threads of this process (Python threads as fallback)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def _failure(exc):
    witness = getattr(exc, "witness", None)
    return {
        "error": type(exc).__name__,
        "message": str(exc)[:300],
        "witness": None if witness is None else repr(witness)[:300],
        "where": traceback.extract_tb(exc.__traceback__)[-1].name,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", default=None, help="write the spans of the pass to this file")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import verlinde.cli  # noqa: F401  (all nine layers, charged to set-up)

    from oracles import digits
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "cal_s": [calibrate() for _ in range(5)]}))
        return 0

    outputs, failures, latency = [], {}, []
    # a pool joined inside an op is gone by the end; a thread left running is not
    threads = _threads()
    cal = [calibrate()]
    paused = 0.0
    clock = time.perf_counter
    first = due = clock()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op[0] = i
        t0 = clock()
        try:
            out = op.call()
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out = None
            failures[i] = _failure(exc)
        t1 = clock()
        if tracer:
            tracer.op[0] = -1
        latency.append(t1 - t0)
        outputs.append(out)
        if t1 - due >= CAL_EVERY_S:
            cal.append(calibrate())
            due = clock()
            paused += due - t1
    wall_s = clock() - first - paused
    cal.append(calibrate())
    threads = max(threads, _threads())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records, accuracy = [], []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        rec = {"kind": op.kind, "label": op.label, "latency_s": latency[i]}
        if i in failures:
            rec.update(ok=False, raised=True, **failures[i])
        else:
            try:
                ok, err = op.check(out)
            except Exception as exc:  # an output the check cannot read is a wrong output
                ok, err = False, None
                rec["check_error"] = _failure(exc)
            rec.update(ok=bool(ok), raised=False)
            if err is not None:
                rec["rel_err"] = err
                accuracy.append(digits(err))
        records.append(rec)
    if tracer:
        tracer.save(args.trace)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latency_s": latency,
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        "cal_s": cal,
        "accuracy_digits": min(accuracy, default=16.0),
        "ops": records,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
