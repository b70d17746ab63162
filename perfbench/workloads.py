"""Seeded inputs, CLI argv and output checks for the three benchmark workloads.

Everything here is independent of the package under test: the reference
values are computed with plain numpy formulas (affine cross-ratio, the
three-branch cover, a homogeneous seam margin), never by calling
treemoduli.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

H = 1e-6  # the CLI's default finite-difference step; no workload passes --h

FULL = {
    "scan": {"ns": (4, 5, 6, 7, 8), "trials": 1000},
    "exact": {"ns": (32, 48), "k": 16384},
    "path": {"paths": ((4, 1000), (16, 300)), "per_leg": 25},
}

TINY = {
    "scan": {"ns": (4, 5), "trials": 20},
    "exact": {"ns": (5, 6), "k": 64},
    "path": {"paths": ((4, 50), (6, 50)), "per_leg": 25},
}


@dataclass
class Invocation:
    argv: list[str]
    check: Callable[[str], str | None]  # stdout -> None if valid, else the reason


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    notes: dict


# -- independent references ------------------------------------------------


def cover_ref(rho: np.ndarray) -> np.ndarray:
    """Three-branch circle cover 1/(1-x), x, 1 - 1/x, reduced to [0, 1)."""
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(rho < 0.0, 1.0 / (1.0 - rho), np.where(rho <= 1.0, rho, 1.0 - 1.0 / rho))
    return t % 1.0


def circle_gap(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    d = np.abs(np.asarray(s, float) - np.asarray(t, float)) % 1.0
    return np.minimum(d, 1.0 - d)


def albanese_ref(x: np.ndarray) -> np.ndarray:
    """Cover values of the affine cross-ratios (x0, xi; xj, xk), lexicographic triples."""
    n = len(x) - 1
    t = np.asarray(list(combinations(range(1, n + 1), 3)))
    xi, xj, xk = x[t[:, 0]], x[t[:, 1]], x[t[:, 2]]
    rho = (x[0] - xi) * (xj - xk) / ((x[0] - xj) * (xi - xk))
    return cover_ref(rho)


def seam_margin_ref(u) -> float:
    """Smallest chordal distance of any triple ratio at chart u to {0, 1, inf}.

    The ratio is kept as a homogeneous pair [num : den], so a coordinate
    colliding with another marked point gives margin 0, never NaN.
    """
    p = np.concatenate([np.asarray(u, dtype=float), [1.0]])  # x_1 .. x_{n-1}
    n = len(p) + 1
    t = np.asarray(list(combinations(range(1, n + 1), 3)))
    pi, pj = p[t[:, 0] - 1], p[t[:, 1] - 1]
    at_inf = t[:, 2] == n
    pk = p[np.minimum(t[:, 2], n - 1) - 1]
    num = np.where(at_inf, pi, pi * (pj - pk))
    den = np.where(at_inf, pj, pj * (pi - pk))
    norm = np.hypot(num, den)
    if (norm == 0.0).any():
        return 0.0
    d = np.minimum(np.minimum(np.abs(num), np.abs(den)), np.abs(num - den) / math.sqrt(2.0))
    return float(np.min(d / norm))


def silent_seam_charts(records) -> list:
    """Charts that metric_matrix evaluated although one triple sits within 10 h of a seam."""
    return [u for u, refused in records if not refused and seam_margin_ref(u) <= 10.0 * H]


def winding(values) -> float:
    """Lifted total turn of a sequence on R/Z, steps wrapped into [-1/2, 1/2)."""
    d = np.diff(np.asarray(values, dtype=float))
    return float(np.sum((d + 0.5) % 1.0 - 0.5))


def _winds(values, turns: int) -> bool:
    w = winding(values)
    return abs(abs(w) - turns) < 1e-6


# -- scan ------------------------------------------------------------------

SCAN_KEYS = {
    "n", "trials", "seed", "h", "tol", "full_rank_count", "min_rank",
    "worst_sigma_ratio", "counterexample",
}


def check_scan(out: str, n: int, trials: int, seed: int) -> str | None:
    r = json.loads(out)
    if set(r) != SCAN_KEYS:
        return f"report keys {sorted(r)}"
    if (r["n"], r["trials"], r["seed"], r["h"], r["tol"]) != (n, trials, seed, H, 1e-6):
        return "report echoes the wrong parameters"
    full, min_rank, ratio, cex = (
        r["full_rank_count"], r["min_rank"], r["worst_sigma_ratio"], r["counterexample"]
    )
    if not (isinstance(full, int) and 0 <= full <= trials):
        return f"full_rank_count {full!r}"
    if (cex is None) != (full == trials):
        return "counterexample must be null exactly when every trial has full rank"
    if cex is not None and not (
        len(cex) == n - 2 and all(isinstance(v, float) and math.isfinite(v) for v in cex)
    ):
        return f"counterexample {cex!r} is not a finite chart of dimension {n - 2}"
    if not (isinstance(min_rank, int) and 0 <= min_rank <= n - 2):
        return f"min_rank {min_rank!r} outside 0..{n - 2}"
    if (min_rank == n - 2) != (full == trials):
        return "min_rank disagrees with full_rank_count"
    if not (isinstance(ratio, float) and 0.0 <= ratio <= 1.0):
        return f"worst_sigma_ratio {ratio!r}"
    return None


def _scan(seed: int, size: dict, work: Path) -> Workload:
    trials = size["trials"]
    invs = []
    for n in size["ns"]:
        argv = ["rank-scan", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
        invs.append(Invocation(argv, lambda out, n=n: check_scan(out, n, trials, seed)))
    return Workload("scan", invs, {})


# -- exact -----------------------------------------------------------------


def make_configuration(rng: np.random.Generator, n: int) -> list:
    """n + 1 distinct finite points: mostly decimals, every eighth a homogeneous pair."""
    x = np.tan(np.pi * (rng.random(n + 1) - 0.5))
    pts = []
    for i, v in enumerate(x):
        if i % 8 == 7:
            b = float(rng.uniform(0.5, 2.0))
            pts.append([float(v) * b, b])
        else:
            pts.append(float(v))
    return pts


def affine_of(p) -> float:
    return p[0] / p[1] if isinstance(p, list) else float(p)


def check_albanese(out: str, pts: list) -> str | None:
    r = json.loads(out)
    n = len(pts) - 1
    x = np.array([affine_of(p) for p in pts])
    if r.get("n") != n or len(r.get("points", ())) != n + 1:
        return "wrong n or point count"
    if not np.allclose(np.asarray(r["points"], float), x, rtol=1e-11, atol=0.0):
        return "points do not echo the input"
    if r.get("triples") != [list(s) for s in combinations(range(1, n + 1), 3)]:
        return "triples are not the lexicographic 3-subsets"
    vals = np.asarray(r.get("values", ()), dtype=float)
    if vals.shape != (math.comb(n, 3),) or not ((vals >= 0.0) & (vals < 1.0)).all():
        return "values are not C(n,3) representatives in [0, 1)"
    gap = circle_gap(vals, albanese_ref(x))
    if gap.max() > 1e-9:
        i = int(np.argmax(gap))
        return f"value {i} is {gap[i]:.3e} from the reference on R/Z"
    return None


def helix_ref(k: int) -> np.ndarray:
    """(angle of the Cayley image of x, cover value of x) for x = tan(pi s) on the loop grid."""
    x = np.tan(np.pi * (-0.5 + np.arange(k) / (k - 1)))
    z = (x - 1j) / (1.0 - 1j * x)
    return np.column_stack([(np.angle(z) / (2.0 * np.pi)) % 1.0, cover_ref(x)])


def check_helix_svg(out: str, k: int) -> str | None:
    """Polyline points must follow the reference helix; the emitter drops a one-point
    run, which happens only to the last sample, where the cover wraps back to 0."""
    if not (out.startswith("<?xml") and out.endswith("</svg>\n")):
        return "not an SVG document"
    runs = re.findall(r'<polyline points="([^"]*)"', out)
    px = np.array([[float(c) for c in p.split(",")] for run in runs for p in run.split()])
    if len(px) not in (k - 1, k):
        return f"{len(px)} helix points, expected {k}"
    pts = np.column_stack([(px[:, 0] - 20.0) / 960.0, (980.0 - px[:, 1]) / 960.0])
    if circle_gap(pts, helix_ref(k)[: len(pts)]).max() > 1e-6:
        return "helix points disagree with the Cayley angle and three-branch cover"
    loop = np.vstack([pts, pts[:1]])
    if not (_winds(loop[:, 0], 1) and _winds(loop[:, 1], 3)):
        return f"helix winds {winding(loop[:, 0]):.3f} and {winding(loop[:, 1]):.3f}, expected 1 and 3"
    return None


def check_graph_csv(out: str, k: int) -> str | None:
    lines = out.splitlines()
    if not lines or lines[0] != "loop_param,x,cover_value" or len(lines) != k + 1:
        return f"expected a header and {k} rows"
    s, x, t = (np.array(c, dtype=float) for c in zip(*(ln.split(",") for ln in lines[1:])))
    if np.abs(s - (-0.5 + np.arange(k) / (k - 1))).max() > 1e-8:
        return "loop parameters are not the uniform grid"
    fin = np.isfinite(x)
    if circle_gap(t[fin], cover_ref(x[fin])).max() > 1e-7:
        return "cover values disagree with the three-branch reference"
    if not _winds(t, 3):
        return f"cover winds {winding(t):.3f} times, expected 3"
    return None


def _exact(seed: int, size: dict, work: Path) -> Workload:
    invs = []
    for n in size["ns"]:
        pts = make_configuration(np.random.default_rng([seed, 1, n]), n)
        path = work / f"config_n{n}.json"
        path.write_text(json.dumps({"n": n, "points": pts}))
        invs.append(Invocation(["albanese", "--input", str(path)],
                               lambda out, pts=pts: check_albanese(out, pts)))
    k = size["k"]
    invs.append(Invocation(["plot", "helix", "--format", "svg", "--k", str(k)],
                           lambda out: check_helix_svg(out, k)))
    invs.append(Invocation(["plot", "kappa-graph", "--k", str(k)],
                           lambda out: check_graph_csv(out, k)))
    return Workload("exact", invs, {})


# -- path ------------------------------------------------------------------

LO, HI, GAP = -2.5, 3.5, 0.2


def _spaced(rng, avoid) -> float:
    """A value in [LO, HI] at least GAP from every value in avoid."""
    while True:
        v = float(rng.uniform(LO, HI))
        if all(abs(v - a) >= GAP for a in avoid):
            return v


def make_path(rng: np.random.Generator, n: int, segments: int, per_leg: int):
    """Piecewise linear chart path with isolated transversal seam crossings.

    The path is a sequence of legs.  Each leg moves one coordinate from
    rest to rest while the others stay put, at least GAP apart and away
    from 0 and 1, so every crossing of 0, 1 or another coordinate happens
    at its own parameter.  About half of the crossings are put within
    10 h of a segment midpoint by moving that segment's two endpoints
    along the leg, which keeps the path itself unchanged.  Returns the
    sample rows and the number of crossings placed near a midpoint.
    """
    dim = n - 2
    u = []
    for _ in range(dim):
        u.append(_spaced(rng, u + [0.0, 1.0]))
    u = np.array(u)
    rows, near = [u.copy()], 0
    for _ in range(segments // per_leg):
        m = int(rng.integers(dim))
        seams = [0.0, 1.0] + [float(u[j]) for j in range(dim) if j != m]
        v0 = float(u[m])
        while True:
            v1 = _spaced(rng, seams)
            if abs(v1 - v0) > 1.0:
                break
        step = (v1 - v0) / per_leg
        t = v0 + step * np.arange(per_leg + 1)
        locked = np.zeros(per_leg + 1, dtype=bool)
        locked[[0, -1]] = True
        for c in sorted(seams, key=lambda c: (c - v0) / step):
            pos = (c - v0) / step
            if not 0.0 < pos < per_leg:
                continue
            i = int(pos)
            if rng.random() < 0.5 or locked[i] or locked[i + 1]:
                continue
            mid = c + float(rng.uniform(-10.0 * H, 10.0 * H))
            t[i], t[i + 1] = mid - 0.5 * step, mid + 0.5 * step
            locked[max(i - 1, 0): i + 3] = True
            near += 1
        for v in t[1:]:
            row = u.copy()
            row[m] = v
            rows.append(row)
        u[m] = v1
    return np.array(rows), near


def check_length(out: str, samples: int) -> str | None:
    r = json.loads(out)
    if set(r) != {"h", "samples", "length"} or r["h"] != H or r["samples"] != samples:
        return "curve-length report has the wrong shape"
    length = r["length"]
    if not (isinstance(length, float) and math.isfinite(length) and length > 0.0):
        return f"length {length!r} is not finite and positive"
    return None


def _path(seed: int, size: dict, work: Path) -> Workload:
    invs, near = [], {}
    for n, segments in size["paths"]:
        rows, near[f"n{n}"] = make_path(np.random.default_rng([seed, 2, n]), n, segments,
                                        size["per_leg"])
        path = work / f"path_n{n}.csv"
        header = ",".join(f"u{i}" for i in range(1, n - 1))
        path.write_text(header + "\n" + "".join(",".join(map(repr, r.tolist())) + "\n" for r in rows))
        invs.append(Invocation(["curve-length", "--input", str(path)],
                               lambda out, s=len(rows): check_length(out, s)))
    return Workload("path", invs, {"crossings_near_midpoint": near})


BUILDERS = {"scan": _scan, "exact": _exact, "path": _path}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    size = (TINY if tiny else FULL)[name]
    return BUILDERS[name](seed, size, work)
