"""Smoke runs of the experiment scripts with small arguments."""

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
    ],
)
def test_script_rejects_empty_level_range(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "must be at least" in proc.stderr
