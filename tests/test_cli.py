"""Command line tests: exit codes, output formats, and error messages."""

import csv
import io
import itertools
import json

import pytest

from hampath import cli
from hampath.gen import gen_random
from hampath.oracle import dp_oracle

from test_tsplib import MALFORMED

STDIN_ATSP = (
    "NAME : tiny\nTYPE : ATSP\nDIMENSION : 3\n"
    "EDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\n"
    "EDGE_WEIGHT_SECTION\n0 1 9\n9 0 1\n1 9 0\nEOF\n")


def run_cli(argv, **kw):
    return cli.main(argv, **kw)


def test_optimize_table_output(capsys):
    code = run_cli(["--instance", "random:7", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "status     optimal" in out
    assert "path       0" in out


def test_json_output_matches_oracle(capsys):
    code = run_cli(["--instance", "random:7", "--seed", "11",
                    "--format", "json"])
    assert code == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    C, s, e = gen_random(7, seed=11)
    want, _ = dp_oracle(C, s, e)
    assert doc["status"] == "optimal"
    assert doc["cost"] == want
    assert doc["path"][0] == s and doc["path"][-1] == e
    assert doc["instance"] == "random7s11"


def test_json_output_reports_per_propagator_stats(capsys):
    # one cost propagator per relaxation
    for relax, costs in (("both", {"hk", "assignment"}), ("tree", {"hk"})):
        code = run_cli(["--instance", "random:7", "--seed", "11",
                        "--model", "ALL", "--relax", relax,
                        "--format", "json"])
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["stats"]) == {"degree", "reduced-path"} | costs
        for st in doc["stats"].values():
            assert set(st) == {"invocations", "removed", "enforced"}
            assert st["invocations"] >= 1


def test_prove_mode_exit_codes(capsys):
    C, s, e = gen_random(6, seed=2)
    want, _ = dp_oracle(C, s, e)
    ok = run_cli(["--instance", "random:6", "--seed", "2",
                  "--prove", str(int(want)), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert ok == cli.EXIT_OK and doc["status"] == "proven"
    no = run_cli(["--instance", "random:6", "--seed", "2",
                  "--prove", str(int(want) - 1), "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert no == cli.EXIT_OK and doc["status"] == "infeasible"
    assert doc["cost"] is None


def test_csv_output_is_reproducible(capsys):
    argv = ["--instance", "random:7", "--seed", "5", "--format", "csv"]
    assert run_cli(argv, clock=lambda: 0.0) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert run_cli(argv, clock=lambda: 0.0) == cli.EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    head, row = first.strip().split("\n")
    assert head == cli.CSV_HEADER
    assert row.startswith("random7s5,enforceSparse,ALL,tree,optimal,")
    assert row.endswith(",0.000000")
    assert len(head.split(",")) == len(row.split(",")) == 9


def test_csv_row_names_the_relaxation(capsys):
    rows = {}
    for relax in ("tree", "map"):
        assert run_cli(["--instance", "random:4", "--relax", relax,
                        "--format", "csv"], clock=lambda: 0.0) == cli.EXIT_OK
        head, row = csv.reader(io.StringIO(capsys.readouterr().out))
        rows[relax] = dict(zip(head, row))
    assert rows["tree"]["relax"] == "tree"
    assert rows["map"]["relax"] == "map"


def test_csv_quotes_an_instance_name_with_a_comma(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        STDIN_ATSP.replace("NAME : tiny", "NAME : a,b")))
    assert run_cli(["--instance", "-", "--format", "csv"]) == cli.EXIT_OK
    head, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(row) == len(head) == 9
    assert row[:5] == ["a,b", "enforceSparse", "ALL", "tree", "optimal"]


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "res.json"
    code = run_cli(["--instance", "random:6", "--seed", "1",
                    "--format", "json", "--out", str(target)])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["status"] == "optimal"


def test_unwritable_out_exits_one_without_traceback(tmp_path, capsys,
                                                    monkeypatch):
    # the output opens before the search, which never starts
    def no_search(*args, **kw):
        raise AssertionError("searched although --out cannot be written")

    monkeypatch.setattr(cli, "solve", no_search)
    target = tmp_path / "missing" / "out.txt"
    code = run_cli(["--instance", "random:5", "--out", str(target)])
    assert code == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hampath: error: ") and str(target) in err
    assert not target.exists()


def test_stdin_instance(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(STDIN_ATSP))
    code = run_cli(["--instance", "-", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert doc["cost"] == 3 and doc["path"] == [0, 1, 2, 3]


def test_tsplib_file_via_cli(capsys):
    code = run_cli(["--instance", "instances/br17.atsp", "--model", "ALL",
                    "--relax", "both", "--prove", "39", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK
    assert doc["status"] == "proven" and doc["instance"] == "br17"


def test_error_exits(capsys):
    assert run_cli(["--instance", "no/such/file.tsp"]) == cli.EXIT_ERROR
    capsys.readouterr()
    assert run_cli(["--instance", "random:notanumber"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == \
        "hampath: error: bad random instance spec 'random:notanumber'\n"
    assert run_cli(["--instance", "instances/br17.atsp",
                    "--home", "99"]) == cli.EXIT_ERROR
    capsys.readouterr()
    # a generated instance is already a path, so any explicit home is
    # rejected, 0 included
    for home in ("99", "0"):
        assert run_cli(["--instance", "random:6", "--home", home]) \
            == cli.EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "hampath: error: --home applies to TSPLIB input " \
            "only, not 'random:6'\n"


def test_fractional_weights_exit_one_without_traceback(tmp_path, capsys):
    path = tmp_path / "frac.atsp"
    path.write_text(STDIN_ATSP.replace("0 1 9", "0 1.5 9"))
    assert run_cli(["--instance", str(path)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "hampath: error: finite arc costs must be integers\n"


@pytest.mark.parametrize("text, lineno, message", MALFORMED)
def test_malformed_file_exits_one_without_traceback(text, lineno, message,
                                                    tmp_path, capsys):
    path = tmp_path / "bad.tsp"
    path.write_text(text + "EOF\n")
    assert run_cli(["--instance", str(path)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"hampath: error: line {lineno}: {message}")
    assert err.count("\n") == 1


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--instance", "random:6", "--heuristic", "coinflip"])
    assert exc.value.code == cli.EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        run_cli(["--instance", "random:6", "--prove", "5", "--optimize"])
    assert exc.value.code == cli.EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == cli.EXIT_ERROR


def test_time_limit_exit_code(capsys):
    ticker = itertools.count()
    code = run_cli(["--instance", "random:12", "--seed", "77",
                    "--model", "BASIC", "--heuristic", "enforceMaxRC",
                    "--time-limit", "0.5"],
                   clock=lambda: float(next(ticker)))
    assert code == cli.EXIT_LIMIT
    out = capsys.readouterr().out
    assert "status     limit" in out
    # the deadline is read on every pass, so the search stops at once
    (nodes,) = [int(line.split()[1]) for line in out.splitlines()
                if line.startswith("nodes ")]
    assert nodes <= 2


@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_bad_time_limit_exits_one(limit, capsys):
    assert run_cli(["--instance", "random:12", "--time-limit", limit]) \
        == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hampath: error: time limit must be a non-negative")


def test_bad_time_limit_leaves_an_existing_out_file_alone(tmp_path, capsys):
    target = tmp_path / "res.txt"
    target.write_text("precious")
    assert run_cli(["--instance", "instances/br17.atsp", "--time-limit",
                    "nan", "--out", str(target)]) == cli.EXIT_ERROR
    assert capsys.readouterr().err.startswith(
        "hampath: error: time limit must be a non-negative")
    assert target.read_text() == "precious"
