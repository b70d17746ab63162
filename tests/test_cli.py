import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import treemoduli
from treemoduli.cli import ParseError, main, parse_point
from treemoduli.moduli import rank_scan

GOLDEN = Path(__file__).parent / "golden"


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def run_ok(*argv):
    code, out = run(*argv)
    assert code == 0, out
    return out


def run_child(*args, **kw):
    """python *args in a child that imports the same treemoduli package as this process."""
    env = dict(os.environ)
    path = [str(Path(treemoduli.__file__).parents[1]), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kw)


# -- token parsing --------------------------------------------------------------


def test_parse_point():
    assert parse_point("inf").is_infinite
    assert parse_point("-inf").is_infinite
    assert parse_point("1/3").affine == pytest.approx(1.0 / 3.0)
    # homogeneous [1 : 3] semantics: the ratio is held exactly
    third = parse_point("1/3")
    assert third.a * 3.0 == third.b
    assert parse_point("-2.5").affine == -2.5
    assert parse_point("1/0").is_infinite
    with pytest.raises(ParseError):
        parse_point("abc")
    with pytest.raises(ParseError):
        parse_point("1/x")


# -- simple value commands ---------------------------------------------------------


def test_crossratio_command():
    assert run_ok("crossratio", "0", "0.5", "1", "inf") == "0.5\n"


def test_kappa_command():
    assert run_ok("kappa", "-1") == "0.5\n"
    assert run_ok("kappa", "inf") == "0\n"


def test_gamma_command():
    assert run_ok("gamma", "0", "0.5", "1", "inf") == "0\n"
    assert run_ok("gamma", "0", "0", "1", "inf") == "inf\n"


def test_group_commands():
    assert run_ok("group", "add", "1", "1") == "inf\n"
    assert run_ok("group", "add", "0", "17") == "17\n"
    assert run_ok("group", "neg", "2") == "-2\n"
    assert run_ok("group", "mul", "3", "1/2") == "5.5\n"
    assert run_ok("group", "torsion", "1/4") == "1\n"
    assert run_ok("group", "torsion", "1/2") == "inf\n"


def test_cayley_command():
    assert json.loads(run_ok("cayley", "inf")) == [0.0, 1.0]
    assert json.loads(run_ok("cayley", "0")) == [0.0, -1.0]


def test_su11_command():
    out = json.loads(run_ok("su11", "0", "1", "-1", "1"))
    assert out["u"] == [0.5, -1.0]
    assert out["v"] == [0.0, 0.5]


def test_albanese_command():
    cfg = json.dumps({"n": 4, "points": [0, 0.3, 0.7, 1, "inf"]})
    out = json.loads(run_ok("albanese", "--points", cfg))
    assert out["n"] == 4
    assert out["triples"] == [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    assert len(out["values"]) == 4
    assert out["values"][1] == pytest.approx(0.3 / 0.7, rel=1e-9)


def test_metric_command():
    out = json.loads(run_ok("metric", "--chart", "0.5"))
    assert out["n"] == 3
    assert out["h"] == 1e-6
    assert out["matrix"][0][0] == pytest.approx(1.0, abs=1e-9)


def test_curve_length_command(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("u1\n0.3\n0.6\n")
    out = json.loads(run_ok("curve-length", "--input", str(path)))
    assert out["samples"] == 2
    assert out["length"] == pytest.approx(0.3, abs=1e-6)


def test_rank_scan_command_matches_library():
    out = json.loads(run_ok("rank-scan", "--n", "4", "--trials", "10", "--seed", "3"))
    rep = rank_scan(4, 10, seed=3)
    assert out["full_rank_count"] == rep["full_rank_count"]
    assert out["min_rank"] == rep["min_rank"]
    assert out["n"] == 4 and out["trials"] == 10 and out["seed"] == 3
    assert out["h"] == 1e-6 and out["tol"] == 1e-6


# -- determinism and goldens ----------------------------------------------------------


def test_rank_scan_determinism():
    args = ("rank-scan", "--n", "4", "--trials", "50", "--seed", "7")
    assert run_ok(*args) == run_ok(*args)


def test_determinism_across_processes():
    args = ["rank-scan", "--n", "4", "--trials", "10", "--seed", "7"]
    inproc = run_ok(*args)
    proc = run_child("-m", "treemoduli", *args, check=True)
    assert proc.stdout == inproc


def test_golden_outputs():
    assert run_ok("crossratio", "0", "0.5", "1", "inf") == (
        GOLDEN / "crossratio.txt"
    ).read_text()
    assert run_ok("group", "add", "1", "1") == (GOLDEN / "group_add.txt").read_text()
    assert run_ok("plot", "helix", "--k", "12") == (
        GOLDEN / "plot_helix.csv"
    ).read_text()
    # finite-difference chart path: rank scans, a metric, and a bisected seam crossing
    table = [
        (("rank-scan", "--n", "5", "--trials", "200", "--seed", "109"), "rank_scan_n5_seed109.txt"),
        (("rank-scan", "--n", "8", "--trials", "200", "--seed", "0"), "rank_scan_n8_seed0.txt"),
        (("metric", "--chart", "0.1,0.2,0.35,-4,9"), "metric_n7.txt"),
        (("curve-length", "--input", str(GOLDEN / "seam_path.csv")), "curve_length_seam.txt"),
    ]
    for argv, name in table:
        assert run_ok(*argv) == (GOLDEN / name).read_text(), name


def test_json_round_trip():
    cfg = {"n": 3, "points": [0, 0.5, 1, "inf"]}
    first = run_ok("albanese", "--points", json.dumps(cfg))
    out = json.loads(first)
    assert out["values"] == [0.5]
    # the emitted document is itself a valid --points input
    assert run_ok("albanese", "--points", first) == first
    # emitted point tokens parse back
    for tok in ("0.5", "inf", "-2", "5.5"):
        parse_point(tok)


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("# defaults\nseed=7\ntrials=10\nn=4\n")
    via_file = run_ok("rank-scan", "--config", str(cfg))
    via_flags = run_ok("rank-scan", "--n", "4", "--trials", "10", "--seed", "7")
    assert via_file == via_flags
    overridden = run_ok("rank-scan", "--config", str(cfg), "--seed", "8")
    assert overridden != via_file


def test_config_file_is_read_once(tmp_path, monkeypatch):
    import treemoduli.cli as cli

    cfg = tmp_path / "scan.cfg"
    cfg.write_text("seed=7\ntrials=10\nn=4\n")
    reads = []
    read = cli._read_config
    monkeypatch.setattr(cli, "_read_config", lambda path: reads.append(path) or read(path))
    via_file = run_ok("rank-scan", "--config", str(cfg))
    assert via_file == run_ok("rank-scan", "--n", "4", "--trials", "10", "--seed", "7")
    assert reads == [str(cfg)]  # once, not once per setting


# -- plots -------------------------------------------------------------------------------


def test_plot_tree3():
    svg = run_ok("plot", "tree3", "0", "0.5", "1", "inf")
    assert svg.startswith("<?xml")
    assert "internal edge length = 0" in svg
    csv = run_ok("plot", "tree3", "0", "0.5", "1", "inf", "--format", "csv")
    assert csv.splitlines()[0] == "# internal_edge_length=0"
    assert csv.splitlines()[1] == "kind,t1,t2,center_x,center_y,radius"


def test_plot_kappa_graph():
    csv = run_ok("plot", "kappa-graph", "--k", "11")
    lines = csv.splitlines()
    assert lines[0] == "loop_param,x,cover_value"
    assert len(lines) == 12
    assert lines[1].split(",")[1] == "inf"
    svg = run_ok("plot", "kappa-graph", "--k", "64", "--format", "svg")
    assert svg.startswith("<?xml")


# -- exit codes ---------------------------------------------------------------------------


def test_exit_code_input_errors():
    code, _ = run("crossratio", "0", "abc", "1", "inf")
    assert code == 2
    code, _ = run("no-such-command")
    assert code == 2
    code, _ = run("albanese")
    assert code == 2


def test_exit_code_numerical_precondition():
    code, _ = run("metric", "--chart", "0.5,0.500000001")
    assert code == 3
    code, _ = run("gamma", "0", "0", "0", "1")
    assert code == 3
    code, _ = run("crossratio", "0", "0", "0", "1")
    assert code == 3


def test_exit_code_seam_collision_without_warnings(capsys):
    # coordinate 1 collides with the gauge point 1: some ratios are
    # infinite and the seam margin is NaN, which must still be refused;
    # huge coordinates overflow the determinant products to the same end
    for chart in ("1,0.5", "1e200,1e300,0.5"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run("metric", "--chart", chart)
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith("treemoduli: seam margin nan")


@pytest.mark.parametrize(
    "argv",
    [
        ("metric", "--chart", "0.3,0.5", "--h", "1e-300"),
        ("rank-scan", "--n", "4", "--trials", "5", "--h", "1e-300"),
    ],
)
def test_exit_code_step_below_chart_resolution(argv, capsys):
    # 0.3 + 1e-300 == 0.3: the stencil cannot move the chart
    code, out = run(*argv)
    assert code == 3 and out == ""
    assert "does not move chart coordinate" in capsys.readouterr().err


def test_exit_code_rank_scan_reject_cap(capsys):
    # with h = 0.5 every draw is rejected; the cap ends in a typed error
    code, out = run("rank-scan", "--n", "4", "--trials", "3", "--h", "0.5")
    assert code == 3 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("metric", "--chart", "0.3,0.5", "--h", "0"),
        ("metric", "--chart", "0.3,0.5", "--h", "-1"),
        ("metric", "--chart", "0.3,0.5", "--h", "nan"),
        ("metric", "--chart", "0.3,0.5", "--h", "inf"),
        ("rank-scan", "--h", "-1"),
        ("rank-scan", "--h", "0"),
        ("rank-scan", "--tol", "2"),
        ("rank-scan", "--tol", "1"),
        ("rank-scan", "--tol", "0"),
        ("rank-scan", "--tol", "-0.5"),
        ("curve-length", "--input", str(GOLDEN / "seam_path.csv"), "--h", "0"),
    ],
)
def test_exit_code_bad_step_or_tolerance(argv, capsys):
    code, out = run(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("treemoduli: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("crossratio", "0", "1e400", "1", "2"),
        ("kappa", "-1e400"),
        ("cayley", "1e999"),
        ("kappa", "nan"),
        ("group", "add", "1/" + "9" * 400, "1"),
    ],
)
def test_exit_code_out_of_range_decimal(argv, capsys):
    # 1e400 overflows to float inf; only the literal inf is the point at infinity
    code, out = run(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("treemoduli: ")


@pytest.mark.parametrize(
    "cmd, arg",
    [
        ("metric", "1e400,0.5"),
        ("metric", "nan,0.5"),
        ("metric", "0.3,-inf"),
        ("curve-length", "1e400,2\n0.3,2\n"),  # a first row of numbers is no header
        ("curve-length", "u1,u2\n0.3,2\nnan,2\n"),
        ("curve-length", "0.3,2\ninf,2\n"),
    ],
)
def test_exit_code_non_finite_chart_token(cmd, arg, tmp_path, capsys):
    if cmd == "metric":
        argv = (cmd, "--chart", arg)
    else:
        path = tmp_path / "rows.csv"
        path.write_text(arg)
        argv = (cmd, "--input", str(path))
    code, out = run(*argv)
    assert code == 2 and out == ""
    assert "is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows",
    ["1e308,2\n1.7e308,2\n", "-1.7e308,2\n1.7e308,2\n", "0.3,2\n1e300,2\n"],
)
def test_curve_length_overflow_reports_one_line(rows, tmp_path, capsys):
    # midpoints, steps and du^T G du overflow; only the typed error is printed
    path = tmp_path / "huge.csv"
    path.write_text(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run("curve-length", "--input", str(path))
    assert code == 3 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("path", [GOLDEN / "seam_path.csv", None])
def test_curve_length_step_checked_before_any_segment(path, tmp_path):
    if path is None:  # zero-length segments only: no metric is evaluated
        path = tmp_path / "still.csv"
        path.write_text("0.3,0.5\n0.3,0.5\n")
    assert run("curve-length", "--input", str(path), "--h", "-1") == (2, "")


def test_negative_numeric_tokens_are_values():
    assert run_ok("metric", "--chart", "-0.3,0.5") == run_ok("metric", "--chart=-0.3,0.5")
    assert json.loads(run_ok("metric", "--chart", "-0.3,0.5"))["chart"] == [-0.3, 0.5]
    # (0, -1000; 1, 2) = 1000 * (1 - 2) / ((0 - 1) * (-1000 - 2))
    assert float(run_ok("crossratio", "0", "-1e3", "1", "2")) == pytest.approx(-1000.0 / 1002.0)
    assert run_ok("crossratio", "0", "-inf", "1", "2") == run_ok("crossratio", "0", "inf", "1", "2")
    assert run_ok("kappa", "-.5") == run_ok("kappa", "-0.5")


def test_input_file_is_closed():
    proc = run_child(
        *("-W", "error::ResourceWarning", "-m", "treemoduli", "curve-length"),
        *("--input", str(GOLDEN / "seam_path.csv")),
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (GOLDEN / "curve_length_seam.txt").read_text()


def test_help_exits_zero():
    code, _ = run("--help")
    assert code == 0
