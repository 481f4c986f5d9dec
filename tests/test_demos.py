"""Smoke tests: the demos run and the kernel microbenchmarks import
against the current library."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_bounds_walkthrough_prints_both_bounds():
    proc = run_demo("bounds_walkthrough.py")
    assert proc.returncode == 0, proc.stderr
    assert "plain spanning tree bound: 19\n" in proc.stdout
    assert "block spanning tree bound: 27 " in proc.stdout
    assert "block filter at ub=28 removes [(1, 4), (4, 6)]" in proc.stdout


def test_kernel_microbenchmarks_import():
    # the default collection skips bench_kernels.py, so a name it imports
    # from the library could vanish unnoticed
    assert importlib.import_module("bench_kernels").test_kernel_round_bays29
