"""Command-line surface: every operation behind one deterministic tool.

Numeric output is fixed at 12 significant digits with the literal "inf"
for the point at infinity, so identical invocations produce
byte-identical output.  Exit codes: 0 success, 2 input error, 3
numerical-precondition failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import cover, moduli, plots, tangent
from .projline import INFINITY, ProjPoint, cross_ratio

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
    if not np.isfinite(x):
        return f"{_g12(p.a)}/{_g12(p.b)}"
    return _g12(x)


def _round12(obj):
    if isinstance(obj, float):
        return float(_g12(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(_g12(float(obj)))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _emit_json(obj) -> str:
    return json.dumps(_round12(obj))


def _read_config(path: str) -> dict:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _setting(args, name: str, cast, default):
    """A flag's value, else the --config file's, else default."""
    value = getattr(args, name, None)
    if value is None:
        value = args.settings.get(name)
    return default if value is None else cast(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treemoduli",
        description="Projective-line covers, tangent addition, and tree moduli metrics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value defaults file; flags override")
    common.add_argument("--format", dest="format", choices=("json", "csv", "svg"))
    common.add_argument("--h", dest="h", type=float)
    common.add_argument("--tol", dest="tol", type=float)
    common.add_argument("--seed", dest="seed", type=int)
    common.add_argument("--trials", dest="trials", type=int)
    common.add_argument("--n", dest="n", type=int)
    common.add_argument("--k", dest="k", type=int)

    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("crossratio", parents=[common], help="cross-ratio of four points")
    p.add_argument("points", nargs=4)

    p = sub.add_parser("kappa", parents=[common], help="circle cover value of a point")
    p.add_argument("point")

    p = sub.add_parser("gamma", parents=[common], help="internal-edge length of a quadruple")
    p.add_argument("points", nargs=4)

    p = sub.add_parser("group", parents=[common], help="tangent group operations")
    gsub = p.add_subparsers(dest="groupcmd", required=True)
    g = gsub.add_parser("add", parents=[common])
    g.add_argument("operands", nargs=2)
    g = gsub.add_parser("mul", parents=[common])
    g.add_argument("m", type=int)
    g.add_argument("point")
    g = gsub.add_parser("neg", parents=[common])
    g.add_argument("point")
    g = gsub.add_parser("torsion", parents=[common])
    g.add_argument("q", help="rational a/b")

    p = sub.add_parser("cayley", parents=[common], help="circle image of a point")
    p.add_argument("point")

    p = sub.add_parser("su11", parents=[common], help="SU(1,1) form of a det-1 matrix")
    p.add_argument("entries", nargs=4, type=float, metavar=("A", "B", "C", "D"))

    p = sub.add_parser("albanese", parents=[common], help="all triple coordinates")
    p.add_argument("--points", dest="points_json", help="configuration as inline JSON")
    p.add_argument("--input", dest="input", help="configuration JSON file")

    p = sub.add_parser("metric", parents=[common], help="averaged metric at a chart")
    p.add_argument("--chart", required=True, help="comma-separated chart coordinates")

    sub.add_parser("rank-scan", parents=[common], help="random rank probe of the Albanese differential")

    p = sub.add_parser("curve-length", parents=[common], help="length of a chart path")
    p.add_argument("--input", dest="input", help="CSV of chart rows, or - for stdin")

    p = sub.add_parser("plot", parents=[common], help="figure data emitters")
    psub = p.add_subparsers(dest="plotcmd", required=True)
    t3 = psub.add_parser("tree3", parents=[common])
    t3.add_argument("points", nargs=4)
    psub.add_parser("helix", parents=[common])
    psub.add_parser("kappa-graph", parents=[common])

    return parser


def _load_configuration(args) -> moduli.Configuration:
    if getattr(args, "points_json", None):
        return moduli.Configuration.from_json(json.loads(args.points_json))
    if getattr(args, "input", None):
        with open(args.input, encoding="utf-8") as fh:
            return moduli.Configuration.from_json(json.load(fh))
    raise ParseError("albanese needs --points or --input")


def _parse_chart(text: str) -> moduli.ChartPoint:
    """Chart from comma-separated decimals; ParseError if one is not finite (1e400, nan, inf)."""
    tokens = text.split(",")
    u = tuple(float(v) for v in tokens)
    for tok, v in zip(tokens, u):
        if not math.isfinite(v):
            raise ParseError(f"chart token {tok.strip()!r} is not a finite number")
    return moduli.ChartPoint(u)


def _read_chart_rows(args) -> list[moduli.ChartPoint]:
    if not getattr(args, "input", None):
        raise ParseError("curve-length needs --input PATH or --input -")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(_parse_chart(line))
        except ParseError:
            raise
        except ValueError:
            if not rows:  # tolerate one header row
                continue
            raise ParseError(f"bad chart row {line!r}") from None
    return rows


def _dispatch(args, out) -> None:
    if args.cmd == "crossratio":
        pts = [parse_point(t) for t in args.points]
        out.write(fmt_point(cross_ratio(*pts)) + "\n")

    elif args.cmd == "kappa":
        out.write(_g12(cover.circle_cover(parse_point(args.point)).t) + "\n")

    elif args.cmd == "gamma":
        pts = [parse_point(t) for t in args.points]
        out.write(fmt_point(cover.devadoss_length(*pts)) + "\n")

    elif args.cmd == "group":
        if args.groupcmd == "add":
            a, b = (parse_point(t) for t in args.operands)
            out.write(fmt_point(tangent.add(a, b)) + "\n")
        elif args.groupcmd == "mul":
            out.write(fmt_point(tangent.mul(args.m, parse_point(args.point))) + "\n")
        elif args.groupcmd == "neg":
            out.write(fmt_point(tangent.neg(parse_point(args.point))) + "\n")
        else:
            try:
                q = Fraction(args.q)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational {args.q!r}") from exc
            out.write(fmt_point(tangent.torsion_point(q)) + "\n")

    elif args.cmd == "cayley":
        z = tangent.cayley(parse_point(args.point))
        out.write(_emit_json([z.real, z.imag]) + "\n")

    elif args.cmd == "su11":
        from .projline import MobiusMap

        mat = tangent.su11_conjugate(MobiusMap(*args.entries))
        out.write(
            _emit_json(
                {"u": [mat.u.real, mat.u.imag], "v": [mat.v.real, mat.v.imag]}
            )
            + "\n"
        )

    elif args.cmd == "albanese":
        cfg = _load_configuration(args)
        values = [t.t for t in moduli.albanese(cfg)]
        out.write(
            _emit_json(
                {
                    "n": cfg.n,
                    "points": [p.to_json() for p in cfg.points],
                    "triples": [list(s) for s in moduli.triples(cfg.n)],
                    "values": values,
                }
            )
            + "\n"
        )

    elif args.cmd == "metric":
        h = _setting(args, "h", float, 1e-6)
        chart = _parse_chart(args.chart)
        g = moduli.metric_matrix(chart, h)
        out.write(
            _emit_json(
                {"n": chart.n, "h": h, "chart": list(chart.u), "matrix": g.tolist()}
            )
            + "\n"
        )

    elif args.cmd == "rank-scan":
        report = moduli.rank_scan(
            n=_setting(args, "n", int, 4),
            trials=_setting(args, "trials", int, 100),
            seed=_setting(args, "seed", int, 0),
            h=_setting(args, "h", float, 1e-6),
            tol=_setting(args, "tol", float, 1e-6),
        )
        out.write(_emit_json(report) + "\n")

    elif args.cmd == "curve-length":
        h = _setting(args, "h", float, 1e-6)
        rows = _read_chart_rows(args)
        length = moduli.curve_length(rows, h)
        out.write(_emit_json({"h": h, "samples": len(rows), "length": length}) + "\n")

    elif args.cmd == "plot":
        fmt = _setting(args, "format", str, None)
        if args.plotcmd == "tree3":
            fig = plots.tree3_figure(*(parse_point(t) for t in args.points))
            if (fmt or "svg") == "svg":
                out.write(plots.disk_svg(fig))
            else:
                glabel = "inf" if fig.gamma.is_infinite else _g12(fig.gamma.affine)
                out.write(f"# internal_edge_length={glabel}\n")
                out.write(plots.arcs_csv(fig.arcs))
        else:
            sample, csv, svg = (
                (plots.helix_samples, plots.helix_csv, plots.helix_svg)
                if args.plotcmd == "helix"
                else (plots.graph_samples, plots.graph_csv, plots.graph_svg)
            )
            samples = sample(_setting(args, "k", int, 256))
            out.write(csv(samples) if (fmt or "csv") == "csv" else svg(samples))


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
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_shield_negative_numbers(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.settings = _read_config(args.config) if args.config else {}
        _dispatch(args, out)
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
