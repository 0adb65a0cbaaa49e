"""A/B runs of perfbench: a parent commit against the working tree.

    python scripts/bench_ab.py --parent HEAD~1 --workloads cli-requests,recoupling \
        --pairs 10 --seconds 18 --seed 601

Exports the parent commit (`git archive`) and the working tree (tracked and
untracked files that git does not ignore) into two directories of a fresh
scratch directory, `parent` and `change`: names of equal length, because
perfbench's peak RSS moves with the length of the checkout path.  Both get
their bytecode compiled, so that no worker compiles the package from
source.  Then it runs n pairs of `perfbench/run.py --workload W --seconds S
--seed s --trace 0`, one workload per process, with pair i at seed s + i
on both sides and the side that runs first alternating from pair to pair.

Writes BENCH_<short sha of HEAD>.json at the root of the repository.  For
each workload and end-to-end metric it holds both sides' medians and
quartiles, the change's wins and ties out of n (by the metric's direction
in BENCHMARK.json), and whether a gain is claimable: at least nine wins in
ten and a median better than the parent's by more than the parent's
interquartile range.  It also holds every run's seed, side, `correct`,
`failed` and metric values, and the host.  The scratch directory is
removed afterwards.

Standard library only, and it imports nothing from `verlinde`.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(repo, *args, **kwargs):
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, **kwargs).stdout


def export_parent(repo, rev, dest):
    archive = git(repo, "archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # extraction filters exist from Python 3.10.12 and 3.11.4 on
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def export_work_tree(repo, dest):
    names = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in names.decode().split("\0"):
        src = repo / name
        # a tracked file deleted in the working tree is not part of it
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def compile_bytecode(tree):
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree)], check=True, capture_output=True)


def run_once(tree, workload, seconds, seed):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", repr(seconds), "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=600 + 20 * seconds)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} at seed {seed} in {tree.name} exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def directions(benchmark):
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}


def summarize(runs, better):
    """Per-metric medians, quartiles and wins of the change over n pairs."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [pairs[i] for i in sorted(pairs)]
    out = {}
    for name in pairs[0]["parent"]:
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, q2, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            entry[side] = {"median": q2, "q1": q1, "q3": q3, "values": values[side]}
        sign = {"lower": -1, "higher": 1}.get(better.get(name))
        if sign is not None:
            gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            entry["wins"] = sum(g > 0 for g in gains)
            entry["ties"] = sum(g == 0 for g in gains)
            gain = sign * (entry["change"]["median"] - entry["parent"]["median"])
            spread = entry["parent"]["q3"] - entry["parent"]["q1"]
            entry["claimable"] = 10 * entry["wins"] >= 9 * len(pairs) and gain > spread
        out[name] = entry
    return out


def host():
    probe = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True)
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": probe.stdout.strip() if probe.returncode == 0 else None,
        "machine": platform.machine(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workloads", default="cli-requests", help="comma-separated perfbench workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--seed", type=int, default=601, help="seed of the first pair")
    ap.add_argument("--repo", type=Path, default=ROOT)
    ap.add_argument("--scratch", type=Path, default=None, help="where the two exports go (default: system temp)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workloads = [w for w in args.workloads.split(",") if w]
    if not workloads:
        ap.error("--workloads must name at least one workload")
    repo = args.repo.resolve()
    parent_sha = git(repo, "rev-parse", "--verify", f"{args.parent}^{{commit}}", text=True).strip()
    head = git(repo, "rev-parse", "HEAD", text=True).strip()
    dirty = bool(git(repo, "status", "--porcelain", text=True).strip())

    if args.scratch is not None:
        args.scratch.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="bench_ab-", dir=args.scratch))
    try:
        trees = {side: scratch / side for side in SIDES}
        export_parent(repo, parent_sha, trees["parent"])
        trees["change"].mkdir()
        export_work_tree(repo, trees["change"])
        for tree in trees.values():
            compile_bytecode(tree)
        runs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    run = run_once(trees[side], workload, args.seconds, args.seed + i)
                    runs.append(dict(run, pair=i, side=side, workload=workload, seed=args.seed + i))
                    print(f"pair {i} {workload:>12} {side:<6} correct={run['correct']} failed={run['failed']}",
                          file=sys.stderr)
    finally:
        shutil.rmtree(scratch)

    better = directions(repo / "BENCHMARK.json")
    record = {
        "parent": parent_sha,
        "change": head,
        "change_dirty": dirty,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "host": host(),
        "workloads": {
            w: summarize([r for r in runs if r["workload"] == w], better) for w in workloads
        },
        "runs": runs,
    }
    path = repo / f"BENCH_{head[:7]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
