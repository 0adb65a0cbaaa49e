"""Smoke runs of the experiment scripts with small arguments."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    ("name", "args"),
    [
        ("count_growth.py", ["--genus", "2", "--kmax", "3"]),
        ("residual_sweep.py", ["--kmax", "2"]),
        ("heegaard_table.py", ["--kmax", "2", "--nmax", "2"]),
    ],
)
def test_script_runs(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr == ""


@pytest.mark.parametrize(
    ("name", "args"),
    [
        ("count_growth.py", ["--kmax", "0"]),
        ("count_growth.py", ["--kmax", "-2"]),
        ("residual_sweep.py", ["--kmax", "0"]),
        ("residual_sweep.py", ["--kmax", "-1"]),
        ("heegaard_table.py", ["--kmax", "0"]),
        ("heegaard_table.py", ["--nmax", "-1"]),
        ("count_growth.py", ["--genus", "1"]),
        ("count_growth.py", ["--genus", "0"]),
        ("count_growth.py", ["--genus", "-1"]),
        ("residual_sweep.py", ["--kmax", "15"]),
        ("bench_ab.py", ["--parent", "HEAD", "--pairs", "1"]),
    ],
)
def test_script_rejects_empty_level_range(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "must be at least" in proc.stderr


# a stand-in for perfbench/run.py: its op_tail_ms is read from speed.txt in
# the checkout, and it reports whether compileall ran over its tree and the
# length of the checkout path
STUB_RUN = """
import argparse, json, pathlib
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seconds", "--seed", "--trace"):
    ap.add_argument(flag)
a = ap.parse_args()
compiled = any(pathlib.Path("perfbench", "__pycache__").glob("run.*.pyc"))
metrics = {
    "op_tail_ms": float(pathlib.Path("speed.txt").read_text()) + int(a.seed) % 3 / 100,
    "pass_share": 1.0,
    "path_len": len(str(pathlib.Path.cwd())),
}
print("summary of", a.workload)
print(json.dumps({
    "correct": compiled and a.trace == "0", "attempted": 4, "failed": 0,
    "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
}))
"""


def test_bench_ab_against_a_stub_run(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    (repo / "speed.txt").write_text("2.0")
    spec = {
        "end_to_end": [{"name": "op_tail_ms", "better": "lower"}, {"name": "pass_share", "better": "higher"}]
    }
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.org"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True, text=True).stdout.strip()
    # the change: a faster uncommitted working tree
    (repo / "speed.txt").write_text("1.0")
    scratch = tmp_path / "scratch"

    proc = run_script(
        "bench_ab.py", "--repo", str(repo), "--parent", "HEAD", "--workloads", "census,analytic",
        "--pairs", "3", "--seconds", "0.5", "--seed", "7", "--scratch", str(scratch),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((repo / f"BENCH_{head[:7]}.json").read_text())
    assert (record["parent"], record["change"], record["change_dirty"]) == (head, head, True)
    assert record["seeds"] == [7, 8, 9] and record["pairs"] == 3 and record["seconds"] == 0.5
    assert set(record["host"]) == {"nproc", "python", "numpy", "machine"}
    assert list(scratch.iterdir()) == []

    runs = record["runs"]
    assert len(runs) == 3 * 2 * 2
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    # one workload per process, sides alternating which runs first
    assert [(r["pair"], r["workload"], r["side"]) for r in runs[:8]] == [
        (0, "census", "parent"), (0, "census", "change"), (0, "analytic", "parent"), (0, "analytic", "change"),
        (1, "census", "change"), (1, "census", "parent"), (1, "analytic", "change"), (1, "analytic", "parent"),
    ]
    assert [r["seed"] for r in runs] == [7] * 4 + [8] * 4 + [9] * 4

    for workload in ("census", "analytic"):
        summary = record["workloads"][workload]
        tail = summary["op_tail_ms"]
        assert tail["parent"]["values"] == [2.01, 2.02, 2.0]
        assert tail["change"]["median"] == 1.01
        assert (tail["wins"], tail["ties"], tail["claimable"]) == (3, 0, True)
        share = summary["pass_share"]
        assert (share["wins"], share["ties"], share["claimable"]) == (0, 3, False)
        # equal-length checkout names; no direction for a metric BENCHMARK.json omits
        lengths = summary["path_len"]
        assert lengths["parent"]["values"] == lengths["change"]["values"]
        assert "wins" not in lengths
