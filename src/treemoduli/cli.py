"""Command-line surface: every operation behind one deterministic tool.

Numeric output is fixed at 12 significant digits with the literal "inf"
for the point at infinity, so identical invocations produce
byte-identical output.  Exit codes: 0 success, 2 input error, 3
numerical-precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

from . import configuration, cover, plots, tangent
from .projline import INFINITY, MobiusMap, ProjPoint, cross_ratio

__all__ = ["main", "entry", "parse_point", "ParseError"]


class ParseError(ValueError):
    """Unparseable command-line token."""


def parse_point(token: str) -> ProjPoint:
    """Point from a decimal, the literal "inf", or an exact rational a/b.

    A decimal out of the float range (1e400) is an error, not infinity.
    """
    tok = token.strip()
    if tok.lower() in ("inf", "+inf", "-inf"):
        return INFINITY
    if "/" in tok:
        try:
            num, den = tok.split("/")
            return ProjPoint(float(int(num)), float(int(den)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad rational token {tok!r}") from exc
    try:
        x = float(tok)
    except ValueError as exc:
        raise ParseError(f"bad point token {tok!r}") from exc
    if not math.isfinite(x):
        raise ParseError(f"point token {tok!r} is not a finite number or inf")
    return ProjPoint.from_affine(x)


def _g12(x: float) -> str:
    return format(float(x), ".12g")


def fmt_point(p: ProjPoint) -> str:
    if p.is_infinite:
        return "inf"
    x = p.affine
    if not math.isfinite(x):
        return f"{_g12(p.a)}/{_g12(p.b)}"
    return _g12(x)


# Below the smallest normal double, a 12-digit text can hold more digits than
# the double it parses to, whose repr is then shorter.
_MIN_NORMAL = sys.float_info.min


# Rounded to 12 digits, a float below this stays below 1.
_BELOW_ONE = 0.999999999999


def _unit_floats(seq) -> bool:
    """Whether seq holds only floats in [_MIN_NORMAL, _BELOW_ONE), none of them nan.

    The 12-digit text of each has a point or a negative exponent and is the
    repr of the double it parses to, as json.dumps(_round12(seq)) writes it.
    """
    return (set(map(type, seq)) == {float} and _MIN_NORMAL <= min(seq) and max(seq) < _BELOW_ONE
            and not math.isnan(sum(seq)))


def _round12(obj):
    """obj with every float (float subclasses too) rounded to 12 significant digits, lists and tuples as lists."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    return obj


def _json12(obj) -> str:
    """json.dumps(_round12(obj)); a list that _unit_floats accepts (albanese's values) is one % format."""
    if isinstance(obj, (list, tuple)) and _unit_floats(obj):
        return "[" + ", ".join(["%.12g"] * len(obj)) % tuple(obj) + "]"
    return json.dumps(_round12(obj))


# Every setting a command can read, with its type and accepted values: a flag
# and a --config value are checked with the same ones.
_TYPES = {"h": float, "tol": float, "seed": int, "trials": int, "n": int, "k": int, "format": str}
_CHOICES = {"format": ("csv", "svg")}


def _read_config(path: str) -> dict:
    """The key=value lines of a defaults file, each value checked as its flag's.

    A key may name another command's setting, so one file can serve several commands.
    """
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, text = (part.strip() for part in line.partition("="))
            if not eq or key not in _TYPES:
                raise ParseError(f"{path}: {line!r} is not key=value with a key in {', '.join(_TYPES)}")
            try:
                cfg[key] = _TYPES[key](text)
            except ValueError:
                raise ParseError(f"{path}: invalid {_TYPES[key].__name__} value for {key}: {text!r}") from None
            if key in _CHOICES and text not in _CHOICES[key]:
                raise ParseError(f"{path}: {key} must be one of {', '.join(_CHOICES[key])}, not {text!r}")
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """One stderr line, without the usage text, and exit 2 (argparse prints both)."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def _command(subparsers, name: str, help: str, run=None, **settings) -> argparse.ArgumentParser:
    """The parser of command name, whose run(args) returns the command's whole stdout text.

    settings are the values the command reads, with their defaults.  Each is
    a flag and a --config key; a flag overrides a --config value, which
    overrides the default.  run looks up what it calls when it runs, so a
    function replaced after the parser is built (as the benchmark's tracer
    does) is still called.
    """
    p = subparsers.add_parser(name, help=help, allow_abbrev=False)
    if settings:
        p.add_argument("--config", help="key=value defaults file; flags override")
        for key, default in settings.items():
            p.add_argument("--" + key, type=_TYPES[key], choices=_CHOICES.get(key), help=f"default {default}")
    p.set_defaults(run=run, settings=settings)
    return p


def _parse_chart(text: str) -> tuple[float, ...]:
    """Chart coordinates from comma-separated decimals; ParseError if one is not finite (1e400, nan, inf)."""
    tokens = text.split(",")
    u = tuple(float(v) for v in tokens)
    for tok, v in zip(tokens, u):
        if not math.isfinite(v):
            raise ParseError(f"chart token {tok.strip()!r} is not a finite number")
    return u


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_chart_rows(args) -> list[tuple[float, ...]]:
    if not args.input:
        raise ParseError("curve-length needs --input PATH or --input -")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    # One header row is skipped: a first row none of whose fields is a number.
    # Any separator splits fields here, so "0.3;0.5" is a bad data row, not a header.
    if lines and not any(map(_is_number, re.split(r"[^\w.]+", lines[0]))):
        lines = lines[1:]
    rows = []
    for line in lines:
        try:
            rows.append(_parse_chart(line))
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"bad chart row {line!r}") from None
    return rows


def _line(p: ProjPoint) -> str:
    return fmt_point(p) + "\n"


def _json_line(obj) -> str:
    return _json12(obj) + "\n"


def _reim(z: complex) -> list[float]:
    return [z.real, z.imag]


def _points(args) -> list[ProjPoint]:
    return [parse_point(t) for t in args.points]


def _torsion(args) -> str:
    from fractions import Fraction

    try:
        q = Fraction(args.q)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {args.q!r}") from exc
    return _line(tangent.torsion_point(q))


def _su11(args) -> str:
    mat = tangent.su11_conjugate(MobiusMap(*args.entries))
    return _json_line({"u": _reim(mat.u), "v": _reim(mat.v)})


def _albanese(args) -> str:
    try:
        if args.input is None:
            doc = json.loads(args.points_json)
        else:
            with open(args.input, encoding="utf-8") as fh:
                doc = json.load(fh)
    except RecursionError:
        raise ParseError("configuration JSON is nested too deeply") from None
    cfg = configuration.Configuration.from_json(doc)
    values = _json12(configuration.albanese(cfg))
    # the triples hold ints only: one % format writes them all
    flat = tuple(itertools.chain.from_iterable(configuration.triples(cfg.n)))
    triples = ", ".join(["[%d, %d, %d]"] * (len(flat) // 3)) % flat
    return '{"n": %d, "points": %s, "triples": [%s], "values": %s}\n' % (
        cfg.n, _json12(cfg.to_json()["points"]), triples, values)


def _metric(args) -> str:
    from . import moduli

    chart = moduli.ChartPoint(_parse_chart(args.chart))
    g = moduli.metric_matrix(chart, args.h)
    return _json_line({"n": chart.n, "h": args.h, "chart": list(chart.u), "matrix": g.tolist()})


def _rank_scan(args) -> str:
    from . import moduli

    return _json_line(moduli.rank_scan(args.n, args.trials, args.seed, h=args.h, tol=args.tol))


def _curve_length(args) -> str:
    from . import moduli

    rows = _read_chart_rows(args)
    return _json_line({"h": args.h, "samples": len(rows), "length": moduli.curve_length(rows, args.h)})


def _tree3(args) -> str:
    fig = plots.tree3_figure(*_points(args))
    if args.format == "svg":
        return plots.disk_svg(fig)
    return f"# internal_edge_length={fmt_point(fig.gamma)}\n" + plots.arcs_csv(fig.arcs)


def _helix(args) -> str:
    samples = plots.helix_samples(args.k)
    return plots.helix_csv(samples) if args.format == "csv" else plots.helix_svg(samples)


def _kappa_graph(args) -> str:
    samples = plots.graph_samples(args.k)
    return plots.graph_csv(samples) if args.format == "csv" else plots.graph_svg(samples)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use, then reused; no parser takes abbreviations, so --h never means --help."""
    description = "Projective-line covers, tangent addition, and tree moduli metrics."
    parser = _Parser(prog="treemoduli", description=description, allow_abbrev=False)
    parser.set_defaults(config=None)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = _command(sub, "crossratio", "cross-ratio of four points", lambda a: _line(cross_ratio(*_points(a))))
    p.add_argument("points", nargs=4)
    p = _command(sub, "kappa", "circle cover value of a point",
                 lambda a: _g12(cover.circle_cover(parse_point(a.point)).t) + "\n")
    p.add_argument("point")
    p = _command(sub, "gamma", "internal-edge length of a quadruple",
                 lambda a: _line(cover.devadoss_length(*_points(a))))
    p.add_argument("points", nargs=4)

    gsub = _command(sub, "group", "tangent group operations").add_subparsers(dest="groupcmd", required=True)
    p = _command(gsub, "add", "tangent sum (p + q)/(1 - pq)",
                 lambda a: _line(tangent.add(*map(parse_point, a.operands))))
    p.add_argument("operands", nargs=2)
    p = _command(gsub, "mul", "m-fold tangent sum", lambda a: _line(tangent.mul(a.m, parse_point(a.point))))
    p.add_argument("m", type=int)
    p.add_argument("point")
    _command(gsub, "neg", "group inverse", lambda a: _line(tangent.neg(parse_point(a.point)))).add_argument("point")
    _command(gsub, "torsion", "torsion point tan(pi q)", _torsion).add_argument("q", help="rational a/b")

    p = _command(sub, "cayley", "circle image of a point",
                 lambda a: _json_line(_reim(tangent.cayley(parse_point(a.point)))))
    p.add_argument("point")
    p = _command(sub, "su11", "SU(1,1) form of a det-1 matrix", _su11)
    p.add_argument("entries", nargs=4, type=float, metavar="ENTRY", help="a b c d of the matrix [[a, b], [c, d]]")

    p = _command(sub, "albanese", "all triple coordinates", _albanese).add_mutually_exclusive_group(required=True)
    p.add_argument("--points", dest="points_json", help="configuration as inline JSON")
    p.add_argument("--input", help="configuration JSON file")
    p = _command(sub, "metric", "averaged metric at a chart", _metric, h=1e-6)
    p.add_argument("--chart", required=True, help="comma-separated chart coordinates")
    _command(sub, "rank-scan", "random rank probe of the Albanese differential", _rank_scan,
             n=4, trials=100, seed=0, h=1e-6, tol=1e-6)
    p = _command(sub, "curve-length", "length of a chart path", _curve_length, h=1e-6)
    p.add_argument("--input", help="CSV of chart rows, or - for stdin")

    psub = _command(sub, "plot", "figure data emitters").add_subparsers(dest="plotcmd", required=True)
    p = _command(psub, "tree3", "disk figure of a tree with three leaves", _tree3, format="svg")
    p.add_argument("points", nargs=4)
    _command(psub, "helix", "circle angle against cover value along one loop", _helix, format="csv", k=256)
    _command(psub, "kappa-graph", "cover value along one loop", _kappa_graph, format="csv", k=256)
    return parser


# A minus sign followed by a digit, a point or "inf" starts a number (or a
# chart list), never an option; argparse alone takes "-1e3" and "-0.3,0.5"
# for unknown options.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf)", re.IGNORECASE)


def _shield_negative_numbers(argv: list[str]) -> list[str]:
    """Prefix negative numeric tokens with a space, which argparse never reads as an option.

    Every value parser strips the space again (float, int, parse_point, Fraction).
    """
    return [" " + tok if _NEGATIVE_NUMBER.match(tok) else tok for tok in argv]


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_shield_negative_numbers(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _read_config(args.config) if args.config else {}
        for key, default in args.settings.items():
            if getattr(args, key) is None:
                setattr(args, key, cfg.get(key, default))
        out.write(args.run(args))
    except ArithmeticError as exc:
        print(f"treemoduli: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"treemoduli: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
