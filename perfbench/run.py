"""Benchmark of the `verlinde` package: four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload census --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`).  Workloads: census, recoupling, analytic, cli-requests, or `all`
to run the four in turn.

Each pass is a fresh interpreter (`worker.py`) with cold caches, one thread
and VERLINDE_THREADS unset.  Passes repeat until `--seconds` have elapsed
and there are at least two of them (a census pass takes 15-23 s on a 2-vCPU
Xeon, so an 18-s run would otherwise rest on one pass or two by chance);
extra set-up-only interpreters are started until there are at least three
set-up samples.  `setup_s` is the median of the set-up samples, `wall_s`
the median over the passes, and `op_p50_ms` and `op_tail_ms` are quantiles
of the op latencies of all passes of the run, both by the Harrell-Davis
estimator (`quantile`).  The tail percentile is set by the op count of
one pass, so it does not change with the pass count.

Times are in reference seconds: each process times a fixed loop
(`worker.calibrate`) alongside its work, and its times are scaled by
CAL_REF_S / (median loop time).  On a shared host whose speed drifts by a
quarter within minutes this keeps runs an hour apart comparable.  The loop
follows interpreter-bound work closely and memory-bound work less so.  The
raw times and the loop samples are kept in the result record.

With `--trace 0` the last stdout line reports the end-to-end metrics;
with `--trace 1` untraced and traced passes alternate and it reports the
per-layer metrics of the traced pass with the median wall time, plus the
tracing overhead.

`failed` counts ops that raised or returned a wrong output; `correct` is
false when any op returned a wrong output or the load used more threads
than there are cores.  A raising op is a refusal, not a wrong answer: the
spurious InvariantViolation of the census grid is counted in `failed` and
in `pass_share` but leaves `correct` true.  Seed, op counts, every op's
pass or fail, and the environment go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("census", "recoupling", "analytic", "cli-requests")
MIN_PASSES = 2
MIN_SETUPS = 3
CAL_REF_S = 0.010  # the loop time that reference seconds are measured at
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args):
    # only a checkout that is itself a git work tree; never search upwards
    if not os.path.isdir(".git"):
        return None
    try:
        done = subprocess.run(["git", *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    import numpy
    import scipy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def _worker_env():
    env = dict(os.environ)
    env.pop("VERLINDE_THREADS", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(workload, seed, *extra):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            [*argv, "--spawned", repr(spawned), *extra],
            env=_worker_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise BenchError(f"{workload} pass exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail_percentile(n):
    """Highest whole percentile with >= 10 of n samples beyond its rank.

    n is the op count of one pass, so the percentile does not change with
    the number of passes a run makes.
    """
    q = 99
    while q > 50 and math.ceil(q * n / 100) > n - 10:
        q -= 1
    return q


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of the order statistics around rank q(n+1).  Where
    neighbouring latencies are far apart (the census median falls between
    two clusters, every tail between single large ops) a plain quantile
    jumps from one to the other.  Computed from the same runs, this
    estimator gave op_tail_ms about half the run-to-run spread of
    `statistics.quantiles`, and census op_p50_ms a third to a half less
    than `statistics.median`.
    """
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = betainc(a, b, [i / n for i in range(n + 1)])
    return math.fsum(w * v for w, v in zip(cdf[1:] - cdf[:-1], x))


def speed(cal_s):
    """Factor from a process's raw seconds to reference seconds."""
    return CAL_REF_S / statistics.median(cal_s)


def end_to_end(passes, setups):
    n = len(passes[0]["latency_s"])
    q = tail_percentile(n)
    latency = [x * speed(p["cal_s"]) for p in passes for x in p["latency_s"]]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not op["ok"] for p in passes for op in p["ops"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] * speed(p["cal_s"]) for p in passes), "s"),
        "op_p50_ms": (1e3 * quantile(latency, 0.5), "ms"),
        "op_tail_ms": (1e3 * quantile(latency, q / 100), "ms"),
        "pass_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "accuracy_digits": (min(p["accuracy_digits"] for p in passes), "digits"),
    }
    tail = {
        "percentile": q,
        "samples_per_pass": n,
        "beyond_per_pass": n - math.ceil(q * n / 100),
        "samples": len(latency),
    }
    return metrics, tail


def run_workload(workload, seed, seconds, trace):
    from tracer import layer_metrics

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}.npz")  # the last traced pass
    plain, traced, setups = [], [], []
    begin = time.monotonic()
    while True:
        p = _spawn(workload, seed)
        plain.append(p)
        setups.append(p["setup_s"] * speed(p["cal_s"]))
        if trace:
            t = _spawn(workload, seed, "--trace", spans_path)
            t["layers"] = layer_metrics(spans_path, t["wall_s"])
            traced.append(t)
        if time.monotonic() - begin >= seconds and len(plain) >= MIN_PASSES:
            break
    while len(setups) < MIN_SETUPS:
        s = _spawn(workload, seed, "--setup-only")
        setups.append(s["setup_s"] * speed(s["cal_s"]))

    env = environment()
    passes = plain + traced
    counts = {len(p["ops"]) for p in passes}
    if len(counts) != 1:
        raise BenchError(f"op count changed between passes: {sorted(counts)}")
    kinds = {}
    for op in passes[0]["ops"]:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not op["ok"] for p in passes for op in p["ops"])
    wrong = sum(not op["ok"] and not op["raised"] for p in passes for op in p["ops"])
    threads = max(p["threads"] for p in passes)
    e2e, tail = end_to_end(plain, setups)
    if trace:
        pick = sorted(traced, key=lambda t: t["wall_s"])[(len(traced) - 1) // 2]
        metrics = dict(pick["layers"])
        overhead = statistics.median(t["wall_s"] * speed(t["cal_s"]) for t in traced) - e2e["wall_s"][0]
        metrics["bench.trace_overhead_s"] = (overhead, "s")
    else:
        metrics = e2e
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "ops_per_pass": counts.pop(),
        "op_counts": kinds,
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": setups,
        "raw_pass_wall_s": [p["wall_s"] for p in plain],
        "pass_cal_s": [p["cal_s"] for p in plain],
        "raw_traced_wall_s": [t["wall_s"] for t in traced],
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "wrong_outputs": wrong,
        "op_tail": tail,
        "threads": threads,
        "failed_ops": [
            {k: op.get(k) for k in ("label", "error", "witness", "where", "rel_err")}
            for op in passes[0]["ops"] if not op["ok"]
        ],
        "env": env,
    }
    correct = wrong == 0 and threads <= env["nproc"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(details, result=result, ops=[p["ops"] for p in passes])
    with open(os.path.join(OUT, f"result-{workload}-{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return details, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "verlinde", "__init__.py")):
        print("run from the root of a verlinde source checkout (src/verlinde is missing)", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            details, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        summary = {k: details[k] for k in ("workload", "seed", "ops_per_pass", "passes", "fail_share", "op_tail")}
        summary["failed_ops"] = [(f["label"], f["error"], f["witness"]) for f in details["failed_ops"]]
        print(json.dumps(summary))
        for metric, m in result["metrics"].items():
            print(f"{name:>12} {metric:<36} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
