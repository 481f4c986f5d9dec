"""Smoke tests: the demos, README's command examples, `python -m
hampath.cli` and the kernel microbenchmarks run against the current
library."""

import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hampath import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_python(*args, timeout=60):
    """Run the interpreter on args from the repo root with src importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


def run_demo(name):
    return run_python(str(ROOT / "demos" / name))


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


def test_module_entry_point_runs():
    proc = run_python("-m", "hampath.cli", "--instance", "random:6",
                      "--seed", "1")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert re.search(r"^status +optimal$", proc.stdout, re.M), proc.stdout
    proc = run_python("-m", "hampath.cli", "--instance", "random:6",
                      "--model", "ARB")
    assert proc.returncode == cli.EXIT_ERROR
    assert "invalid choice: 'ARB'" in proc.stderr


def test_kernel_microbenchmarks_run():
    # the default collection skips bench_kernels.py, so a library name or
    # signature it uses could change unnoticed; each one runs once here
    proc = run_python("-m", "pytest", str(ROOT / "tests" / "bench_kernels.py"),
                      "--benchmark-disable", "-q", "-rA", "-p",
                      "no:cacheprovider", timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("test_parse_tsplib_ulysses16", "test_model_build_bays29",
                 "test_root_path_att48", "test_root_path_ftv33",
                 "test_kick_ftv33", "test_hk_evaluation_ftv33",
                 "test_or_opt_att48", "test_patch_gen45",
                 "test_assignment_repeat_bays29",
                 "test_assignment_after_backtrack_bays29"):
        assert f"PASSED tests/bench_kernels.py::{name}" in proc.stdout, \
            proc.stdout


def readme_commands():
    """The `hampath` lines of README's fenced blocks, with backslash
    continuations joined."""
    text = (ROOT / "README.md").read_text()
    cmds = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = " ".join(line.split())
            if re.match(r"(cat \S+ \| )?hampath ", line):
                cmds.append(line)
    return cmds


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    cmds = readme_commands()
    assert len(cmds) >= 4, cmds
    ran = set()
    for line in cmds:
        stdin = None
        if line.startswith("cat "):
            source, line = (part.strip() for part in line.split("|", 1))
            stdin = Path(shlex.split(source)[1]).read_text()
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / Path(argv[k]).name)
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert cli.main(argv) == 0, line
        assert capsys.readouterr().out or "--out" in argv, line
        ran.add(cli.main)
    assert ran == {cli.main}
