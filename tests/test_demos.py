"""Smoke tests: the demos run against the current library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)


def test_bounds_walkthrough_prints_both_bounds():
    proc = run_demo("bounds_walkthrough.py")
    assert proc.returncode == 0, proc.stderr
    assert "plain spanning tree bound: 19\n" in proc.stdout
    assert "block spanning tree bound: 27 " in proc.stdout
    assert "block filter at ub=28 removes [(1, 4), (4, 6)]" in proc.stdout
