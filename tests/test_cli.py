import argparse
import io
import json
import math
import os
import random
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


# Every command's output, pinned byte for byte: (argv, golden file, exit code).
# A failing command compares its stderr line with the file and prints nothing.
GOLDEN_TABLE = [
    (("crossratio", "0", "0.5", "1", "inf"), "crossratio.txt", 0),
    (("kappa", "-0.3"), "kappa.txt", 0),
    (("gamma", "0.1", "1/3", "2", "-5"), "gamma.txt", 0),
    (("group", "add", "1", "1"), "group_add.txt", 0),
    (("group", "mul", "5", "0.3"), "group_mul.txt", 0),
    (("group", "neg", "1/3"), "group_neg.txt", 0),
    (("group", "torsion", "3/8"), "group_torsion.txt", 0),
    (("cayley", "0.3"), "cayley.txt", 0),
    (("su11", "2", "1", "1", "1"), "su11.txt", 0),
    (("plot", "tree3", "0", "0.3", "0.7", "inf"), "plot_tree3.svg", 0),
    (("plot", "tree3", "0", "0.3", "0.7", "inf", "--format", "csv"), "plot_tree3.csv", 0),
    (("plot", "helix", "--k", "12"), "plot_helix.csv", 0),
    # finite-difference chart path: rank scans, a metric, and a bisected seam crossing
    (("rank-scan", "--n", "5", "--trials", "200", "--seed", "109"), "rank_scan_n5_seed109.txt", 0),
    (("rank-scan", "--n", "8", "--trials", "200", "--seed", "0"), "rank_scan_n8_seed0.txt", 0),
    (("metric", "--chart", "0.1,0.2,0.35,-4,9"), "metric_n7.txt", 0),
    (("curve-length", "--input", str(GOLDEN / "seam_path.csv")), "curve_length_seam.txt", 0),
    # the same at the shapes the benchmark runs: a 300-segment n = 16 path with
    # seam crossings, an n = 16 metric and a scan with a counterexample
    (("curve-length", "--input", str(GOLDEN / "bench_path_n16.csv")), "curve_length_bench_n16.txt", 0),
    (("metric", "--chart", "0.15,-1.35,2.25,0.45,-0.65,3.05,1.65,-2.15,0.75,2.65,-0.25,1.25,-1.75,3.45"),
     "metric_n16.txt", 0),
    (("rank-scan", "--n", "7", "--trials", "200", "--seed", "3"), "rank_scan_n7_seed3.txt", 0),
    # exact path: albanese on extreme homogeneous pairs, and the loop emitters
    (("albanese", "--input", str(GOLDEN / "albanese_n12.json")), "albanese_n12.txt", 0),
    (("plot", "helix", "--format", "svg", "--k", "257"), "plot_helix_k257.svg", 0),
    (("plot", "kappa-graph", "--k", "257"), "plot_kappa_graph_k257.csv", 0),
    (("plot", "kappa-graph", "--format", "svg", "--k", "257"), "plot_kappa_graph_k257.svg", 0),
    # an input error and a numerical one
    (("crossratio", "0", "abc", "1", "2"), "error_bad_point.txt", 2),
    (("crossratio", "0", "0", "0", "1"), "error_indeterminate.txt", 3),
]


@pytest.mark.parametrize("argv, name, code", GOLDEN_TABLE, ids=[name for _, name, _ in GOLDEN_TABLE])
def test_golden_outputs(argv, name, code, capsys):
    got, out = run(*argv)
    err = capsys.readouterr().err
    want = (GOLDEN / name).read_text()
    assert (got, out, err) == ((0, want, "") if code == 0 else (code, "", want))


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


def test_config_file_serves_several_commands(tmp_path):
    # a key of another command's setting is accepted and left unread
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("seed=7\ntrials=10\nn=4\nformat=svg\nk=16\nh=1e-5\n")
    assert run_ok("rank-scan", "--config", str(cfg)) == run_ok(
        "rank-scan", "--n", "4", "--trials", "10", "--seed", "7", "--h", "1e-5"
    )
    assert run_ok("plot", "helix", "--config", str(cfg)) == run_ok("plot", "helix", "--format", "svg", "--k", "16")
    assert run_ok("plot", "tree3", "0", "0.5", "1", "inf", "--config", str(cfg)) == run_ok(
        "plot", "tree3", "0", "0.5", "1", "inf"
    )


def test_parser_is_built_once():
    import treemoduli.cli as cli

    # importing the CLI builds no parser: start-up pays only for what it runs
    code = "import treemoduli.cli as c; assert c.build_parser.cache_info().currsize == 0"
    assert run_child("-c", code).returncode == 0
    cli.build_parser.cache_clear()
    cfg = json.dumps({"n": 4, "points": [0, 0.3, 0.7, 1, "inf"]})
    run_ok("albanese", "--points", cfg)
    scan = run_ok("rank-scan", "--n", "4", "--trials", "5")
    assert cli.build_parser.cache_info().misses == 1
    # the reused parser carries nothing from one parse to the next
    cli.build_parser.cache_clear()
    assert run_ok("rank-scan", "--n", "4", "--trials", "5") == scan


# The flags each parser takes besides -h/--help; the settings and --config
# only where the command reads them.
COMMAND_FLAGS = {
    (): set(),
    ("crossratio",): set(),
    ("kappa",): set(),
    ("gamma",): set(),
    ("group",): set(),
    ("group", "add"): set(),
    ("group", "mul"): set(),
    ("group", "neg"): set(),
    ("group", "torsion"): set(),
    ("cayley",): set(),
    ("su11",): set(),
    ("albanese",): {"--points", "--input"},
    ("metric",): {"--chart", "--config", "--h"},
    ("rank-scan",): {"--config", "--n", "--trials", "--seed", "--h", "--tol"},
    ("curve-length",): {"--input", "--config", "--h"},
    ("plot",): set(),
    ("plot", "tree3"): {"--config", "--format"},
    ("plot", "helix"): {"--config", "--format", "--k"},
    ("plot", "kappa-graph"): {"--config", "--format", "--k"},
}


def _parsers(parser, path=()):
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, path + (name,))


def test_each_parser_takes_only_the_flags_its_command_reads():
    from treemoduli.cli import build_parser

    flags, formats = {}, []
    for path, parser in _parsers(build_parser()):
        flags[path] = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        formats += [a.choices for a in parser._actions if "--format" in a.option_strings]
    assert flags == COMMAND_FLAGS
    assert formats == [("csv", "svg")] * 3
    settable = {"--config", "--h", "--tol", "--seed", "--trials", "--n", "--k", "--format"}
    assert sum(len(f & settable) for f in flags.values()) == 18


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


@pytest.mark.parametrize(
    "text",
    [
        '{"points": [0, 1, null, 2, "inf"]}',
        '{"points": 5}',
        "[0,1,2,3]",
        '{"points": [0,1,2,3,"inf"], "n": null}',
        '{"points": [0, 1, 2, 1%s]}' % ("0" * 400),  # an integer beyond the float range
        # only the string "inf" is infinity, and neither booleans nor strings are numbers
        '{"points": [0, 0.3, 1e400, 0.5, 1]}',
        '{"points": [0, 0.3, Infinity, 0.5, 1]}',
        '{"points": [0, 0.3, -Infinity, 0.5, 1]}',
        '{"points": [0, 0.3, NaN, 0.5, 1]}',
        '{"points": [0, 0.3, [1e400, 1], 0.5, 1]}',
        '{"points": [0, true, 2, 3]}',
        '{"points": [0, [true, false], 2, 3]}',
        '{"points": [0, 1, 2, "3"]}',
        '{"points": [0, 1, 2, 3, 4], "n": 4.7}',
        '{"points": [0, 1, 2, 3], "n": true}',
    ],
    ids=[
        "null-point", "points-not-a-list", "not-an-object", "null-n", "huge-integer",
        "out-of-range-number", "Infinity", "minus-Infinity", "NaN", "out-of-range-pair",
        "boolean-point", "boolean-pair", "string-number", "fractional-n", "boolean-n",
    ],
)
@pytest.mark.parametrize("source", ["--points", "--input"])
def test_exit_code_albanese_json_shape(text, source, tmp_path, capsys):
    if source == "--input":
        path = tmp_path / "config.json"
        path.write_text(text)
        text = str(path)
    code, out = run("albanese", source, text)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("treemoduli: ")


# albanese reads exactly one of --points and --input; each case names what its
# one stderr line must say.
ALBANESE_SOURCES = {
    "both": "not allowed with argument",
    "neither": "one of the arguments --points --input is required",
    "missing": "No such file or directory",
    "empty": "Expecting value",
    "non-utf8": "can't decode byte 0xff",
    "directory": "Is a directory",
    "nested-points": "configuration JSON is nested too deeply",
    "nested-input": "configuration JSON is nested too deeply",
}


@pytest.mark.parametrize("case", ALBANESE_SOURCES)
def test_exit_codes_of_albanese_sources(case, tmp_path, capsys):
    rng = random.Random(case)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    for _ in range(20):
        n = rng.randint(3, 8)
        doc = json.dumps({"n": n, "points": [0, "inf", *rng.sample(range(1, 1000), n - 1)]})
        good.write_text(doc)
        read = run("albanese", "--points", doc)
        assert read[0] == 0 and read == run("albanese", "--input", str(good))
        content = {"non-utf8": doc.encode("utf-16"), "nested-input": b"[" * 100000 + b"]" * 100000}
        bad.write_bytes(content.get(case, b""))
        argv = {
            "both": rng.choice([("--points", doc, "--input", str(good)), ("--input", str(good), "--points", doc)]),
            "neither": (),
            "nested-points": ("--points", "[" * 3000 + "]" * 3000),
            "missing": ("--input", str(tmp_path / "missing.json")),
            "directory": ("--input", str(tmp_path)),
        }.get(case, ("--input", str(bad)))
        capsys.readouterr()
        code, out = run("albanese", *argv)
        err = capsys.readouterr().err
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
        assert ALBANESE_SOURCES[case] in err, err


def test_albanese_three_coincident_points_exit_3(capsys):
    # root 0 and the leaves 2, [4 : 2], [-2 : -1]: one point three times
    assert run("albanese", "--points", '{"points": [0, 2, [4, 2], [-2, -1]]}') == (3, "")
    assert capsys.readouterr().err == "treemoduli: cross-ratio is 0/0 on this quadruple\n"


def test_curve_length_malformed_first_row_is_no_header(tmp_path, capsys):
    # only a first row none of whose fields is a number is a header
    path = tmp_path / "rows.csv"
    path.write_text("0.3;0.5\n0.6,0.5\n0.9,0.5\n")
    assert run("curve-length", "--input", str(path)) == (2, "")
    assert "bad chart row '0.3;0.5'" in capsys.readouterr().err


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


POINTS = json.dumps({"n": 4, "points": [0, 0.3, 0.7, 1, "inf"]})


@pytest.mark.parametrize(
    "argv, config",
    [
        # a flag of another command, or of the subcommand given before it
        (("plot", "--k", "12", "helix"), None),
        (("plot", "--format", "svg", "helix"), None),
        (("metric", "--chart", "0.3,0.5", "--n", "7"), None),
        (("crossratio", "0", "1", "2", "3", "--seed", "5"), None),
        (("group", "--seed", "1", "add", "1", "1"), None),
        (("albanese", "--points", POINTS, "--h", "1e-3"), None),
        (("crossratio", "0", "1", "2", "3", "--config"), "seed=7\n"),
        # a format no emitter writes
        (("plot", "helix", "--format", "json"), None),
        (("plot", "tree3", "0", "0.5", "1", "inf", "--format", "json"), None),
        # --config lines are checked like flags
        (("rank-scan", "--trials", "3", "--config"), "seed 7\n"),
        (("rank-scan", "--trials", "3", "--config"), "sead=7\n"),
        (("rank-scan", "--trials", "3", "--config"), "=7\n"),
        (("rank-scan", "--trials", "3", "--config"), "k=abc\n"),
        (("plot", "helix", "--config"), "format=png\n"),
        (("plot", "helix", "--config"), "k=abc\n"),
        (("plot", "tree3", "0", "0.5", "1", "inf", "--config"), "format=json\n"),
    ],
)
def test_foreign_and_misplaced_flags_exit_2(argv, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "defaults.cfg"
        path.write_text(config)
        argv += (str(path),)
    code, out = run(*argv)
    assert code == 2 and out == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


# Tokens for the exact subcommands: zero, signs, infinity in every spelling,
# 0/0, the float range's ends and beyond, nan and junk.
TOKENS = (
    "0", "-1", "1", "0.5", "2", "-0.25", "1/3", "inf", "-inf", "1/0", "0/0", "1e308", "-1e308",
    "5e-324", "1e400", "nan", "abc", "10000000000000000000000/1",
)
EXACT_COMMANDS = {
    ("crossratio",): 4,
    ("kappa",): 1,
    ("gamma",): 4,
    ("group", "add"): 2,
    ("group", "mul"): 2,
    ("group", "neg"): 1,
    ("group", "torsion"): 1,
    ("cayley",): 1,
    ("su11",): 4,
    ("plot", "tree3"): 4,
}


# Matrices whose determinant overflows: 1e400 - 1e400 is nan, not 0.
SU11_NON_FINITE_DET = [["1e200"] * 4, ["1e308"] * 4]


def det_one_entries(rng):
    """Entries a, b, c and d = (1 + b c) / a of a matrix of determinant 1, up to rounding."""
    pool = (1e308, -1e308, 1e154, 5e-324, -1e-300, 1 / 3)
    a, b, c = (rng.choice(pool) if rng.random() < 0.25 else rng.uniform(-4, 4) for _ in range(3))
    return [repr(v) for v in (a, b, c, (1 + b * c) / a)]


@pytest.mark.parametrize("cmd", EXACT_COMMANDS, ids=" ".join)
def test_exit_codes_of_exact_commands(cmd, capsys):
    rng = random.Random(" ".join(cmd))
    ints = ("0", "3", "-2", "10000000000000000000000", "1.5", "abc")
    draws = []
    for _ in range(500):
        args = [rng.choice(TOKENS) for _ in range(EXACT_COMMANDS[cmd])]
        if cmd == ("group", "mul"):
            args[0] = rng.choice(ints)
        draws.append(args)
    if cmd == ("su11",):
        draws += [det_one_entries(rng) for _ in range(300)] + SU11_NON_FINITE_DET
    codes = []
    for args in draws:
        code, out = run(*cmd, *args)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), args
        assert "nan" not in out.lower(), args
        if code:
            assert out == "" and len(err.splitlines()) == 1, args
        codes.append(code)
    if cmd == ("su11",):
        assert codes[500:-2].count(0) >= 150  # most draws of determinant 1 are accepted
        assert all(codes[-2:])


# Chart fields and steps for the chart-path commands: seams, the float range's
# ends and beyond, nan, infinity, junk and an empty field.
CHART_TOKENS = ("0", "-1", "1", "0.3", "0.5", "2", "1e308", "5e-324", "1e-300", "1e400", "nan", "inf", "abc", "")
STEPS = ("1e-6", "1e-3", "0.5", "1e-300", "5e-324", "0", "-1", "1e308", "nan", "inf", "abc")


@pytest.mark.parametrize("cmd", ["metric", "curve-length"])
def test_exit_codes_of_chart_commands(cmd, tmp_path, capsys):
    rng = random.Random(cmd)
    path = tmp_path / "rows.csv"

    def field():
        return rng.choice(CHART_TOKENS) if rng.random() < 0.4 else repr(round(rng.uniform(-3, 3), 2))

    for _ in range(200):
        dim = rng.randint(1, 3)
        rows = [",".join(field() for _ in range(dim)) for _ in range(rng.randint(2, 3))]
        if cmd == "metric":
            argv = [cmd, "--chart", rows[0]]
        else:
            path.write_text("\n".join(rows) + "\n")
            argv = [cmd, "--input", str(path)]
        if rng.random() < 0.5:
            argv += ["--h", rng.choice(STEPS)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(*argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, rows)
        assert "nan" not in out.lower() and "inf" not in out.lower(), (argv, rows)
        if code:
            assert out == "" and len(err.splitlines()) == 1, (argv, rows)


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
    "code, argv",
    [
        (0, ("--n", "3", "--seed", str(2**80))),
        (2, ("--seed", "-1")),
        (2, ("--n", "9")),
        (2, ("--trials", "0")),
        (2, ("--trials", "-5")),
        (2, ("--h", "nan")),
        (2, ("--h", "inf")),
        (2, ("--tol", "nan")),
        (3, ("--h", "1e-300")),
        (3, ("--h", "5e-324")),
        (3, ("--h", "1e308")),  # 10 h overflows: no draw has a larger seam margin
    ],
)
def test_exit_code_table_rank_scan(code, argv, capsys):
    got, out = run("rank-scan", "--n", "4", "--trials", "5", *argv)
    err = capsys.readouterr().err
    assert got == code
    if code == 0:
        assert json.loads(out)["seed"] == 2**80 and err == ""
    else:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("treemoduli: ")


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
    ["1e308,2\n1.7e308,2\n", "-1.7e308,2\n1.7e308,2\n", "0.3,2\n1e300,2\n", "1e308,2.72\n0.3,-1\n"],
)
def test_curve_length_overflow_reports_one_line(rows, tmp_path, capsys):
    # a + b, steps and du^T G du overflow; only the typed error is printed.  Every
    # midpoint stays finite, so the refusal names a seam margin, not a non-finite chart.
    path = tmp_path / "huge.csv"
    path.write_text(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run("curve-length", "--input", str(path))
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("treemoduli: seam margin "), err


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


NUMPY_FREE = [
    ("crossratio", "0", "0.5", "1", "inf"),
    ("kappa", "0.3"),
    ("group", "add", "0.5", "2"),
    ("albanese", "--points", json.dumps({"n": 4, "points": [0, 0.3, [1, 3], 1, "inf"]})),
    ("plot", "helix", "--format", "svg", "--k", "64"),
    ("plot", "kappa-graph", "--k", "64"),
]

# Imports the CLI and runs each argv through main(); neither numpy nor the chart
# layer may be loaded after the import or after any command.
NUMPY_FREE_CHILD = """
import io, json, sys
import treemoduli.cli
def chart_layer():
    return sorted({"numpy", "treemoduli.moduli"} & set(sys.modules))
assert not chart_layer(), f"import treemoduli.cli loaded {chart_layer()}"
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    results.append([treemoduli.cli.main(argv, out=buf), buf.getvalue()])
    assert not chart_layer(), f"{argv[0]} loaded {chart_layer()}"
print(json.dumps(results))
"""


def test_exact_commands_never_import_numpy():
    proc = run_child("-c", NUMPY_FREE_CHILD, json.dumps(NUMPY_FREE))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, run_ok(*argv)] for argv in NUMPY_FREE]


def test_rank_scan_never_imports_numpy_random():
    # the per-trial streams come from treemoduli._streams, without numpy.random
    proc = run_child(
        "-c",
        "import io, sys; from treemoduli.cli import main; "
        "code = main(['rank-scan', '--n', '4', '--trials', '10'], out=io.StringIO()); "
        "assert code == 0 and {'numpy', 'treemoduli.moduli'} <= set(sys.modules); "
        "assert 'numpy.random' not in sys.modules, 'rank-scan imported numpy.random'",
    )
    assert proc.returncode == 0, proc.stderr


def test_package_import_defers_the_chart_layer():
    # the package's chart names resolve on first use, to the chart layer's own objects
    proc = run_child(
        "-c",
        "import sys, treemoduli; "
        "assert not {'numpy', 'treemoduli.moduli'} & set(sys.modules), 'import treemoduli loaded numpy'; "
        "assert {'rank_scan', 'moduli'} <= set(dir(treemoduli)); "
        "assert treemoduli.rank_scan is treemoduli.moduli.rank_scan; "
        "assert 'numpy' in sys.modules",
    )
    assert proc.returncode == 0, proc.stderr


# Loads perfbench/tracer.py as the benchmark's worker does, from its own directory.
# One untraced run builds the cached parser first, so a command that held a
# function as a value at build time would call past the tracer's wrapper.
# Then every span these commands reach must count calls.
TRACER_CHILD = """
import io, sys
sys.path.insert(0, sys.argv[1])
import tracer
import treemoduli.cli as cli
albanese = ["albanese", "--points", '{"n": 5, "points": [0, 0.2, 0.4, 0.6, 1, "inf"]}']
assert cli.main(albanese, out=io.StringIO()) == 0
commands = [
    ["crossratio", "0", "0.5", "1", "inf"],
    ["kappa", "0.3"],
    ["plot", "helix", "--format", "svg", "--k", "16"],
    ["plot", "kappa-graph", "--k", "16"],
    ["metric", "--chart", "0.3,0.5"],
    ["curve-length", "--input", sys.argv[2]],
    ["rank-scan", "--n", "4", "--trials", "16"],
    albanese,
]
with tracer.Tracer() as trace:
    for argv in commands:
        assert cli.main(argv, out=io.StringIO()) == 0, argv
reached = [
    "cli.main", "projline.cross_ratio", "cover.circle_cover",
    "plots.helix_samples", "plots.helix_svg", "plots.graph_samples", "plots.graph_csv",
    "moduli.albanese", "moduli.albanese_jacobian", "moduli.metric_matrix",
    "moduli.curve_length", "moduli.rank_scan", "moduli.svd",
]
calls = {name: trace.stats[name][tracer.CALLS] for name in reached}
assert all(calls.values()), calls
assert calls["cli.main"] == len(commands), calls
"""


def test_benchmark_tracer_sees_the_layers():
    # -B: the child writes no bytecode cache into perfbench/
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = run_child("-B", "-c", TRACER_CHILD, str(perfbench), str(GOLDEN / "seam_path.csv"))
    assert proc.returncode == 0, proc.stderr


def test_exact_bulk_commands_build_no_point_per_value(monkeypatch, tmp_path):
    # the plots and albanese hand plain floats to the emitters: the points a run
    # builds do not grow with k or with the C(48, 3) = 17296 triples
    from test_moduli import benchmark_shaped_configuration
    from treemoduli.cover import CirclePoint
    from treemoduli.projline import ProjPoint

    built = []
    for cls in (ProjPoint, CirclePoint):
        def counting_init(self, *args, init=cls.__init__):
            built.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    config = tmp_path / "n48.json"
    config.write_text(json.dumps(benchmark_shaped_configuration(48, seed=0).to_json()))
    for argv in (("plot", "helix", "--k", "4096"), ("plot", "kappa-graph", "--k", "4096"),
                 ("albanese", "--input", str(config))):
        built.clear()
        run_ok(*argv)
        assert len(built) < 100, (argv, len(built))


def test_cli_import_loads_neither_fractions_nor_decimal():
    # Fraction is imported by the code that uses it: group torsion among the commands;
    # the value types are __slots__ classes, so dataclasses and inspect are not loaded either
    proc = run_child(
        "-c",
        "import io, sys, treemoduli.cli; "
        "loaded = {'fractions', 'decimal', 'dataclasses', 'inspect'} & set(sys.modules); "
        "assert not loaded, f'import treemoduli.cli loaded {sorted(loaded)}'; "
        "buf = io.StringIO(); code = treemoduli.cli.main(['group', 'torsion', '3/8'], out=buf); "
        "print(code, buf.getvalue(), end='')",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 2.41421356237\n" == "0 " + run_ok("group", "torsion", "3/8")


@pytest.mark.parametrize("k", [2**20 + 1, 10**20])
@pytest.mark.parametrize("plot", ["helix", "kappa-graph"])
def test_plot_refuses_k_above_2_20_before_sampling(plot, k):
    # in a child with a timeout: an emitter that sampled first would run until killed
    proc = run_child("-m", "treemoduli", "plot", plot, "--k", str(k), timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"treemoduli: k = {k} is above the limit of 2**20 = 1048576 samples\n"


@pytest.mark.parametrize("cmd", ["metric", "curve-length", "albanese"])
def test_chart_above_the_size_limit_exits_2(cmd, tmp_path):
    # in a child with a timeout: 63 coordinates (n = 65) are refused before
    # any table or stencil is allocated, and a configuration of 601 points
    # (n = 600; it took gigabytes and ended in a MemoryError traceback)
    # before any triple is listed
    rows = [",".join(repr(x + 0.37 * k) for k in range(63)) for x in (2.0, 3.0)]
    want = "a chart of 63 coordinates is above the limit of 62 (n <= 64)"
    if cmd == "metric":
        argv = ("--chart", rows[0])
    elif cmd == "albanese":
        argv = ("--points", json.dumps({"points": [0, "inf", *range(1, 600)]}))
        want = "a configuration of n = 600 is above the albanese limit of n = 128"
    else:
        path = tmp_path / "rows.csv"
        path.write_text("\n".join(rows) + "\n")
        argv = ("--input", str(path))
    proc = run_child("-m", "treemoduli", cmd, *argv, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"treemoduli: {want}\n"


def test_help_exits_zero():
    code, _ = run("--help")
    assert code == 0
