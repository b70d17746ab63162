"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a PASS/FAIL line (visible under pytest -s or -v via the
test name) and enforces its runtime budget.
"""

import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from treemoduli.cli import main
from treemoduli.cover import (
    circle_cover,
    circle_distance,
    cover_integral,
    devadoss_length,
    winding_number,
)
from treemoduli.moduli import (
    ChartPoint,
    albanese_jacobian,
    chart_coords,
    chart_embed,
    metric_eval,
    metric_matrix,
    rank_scan,
    relabel,
)
from treemoduli.moduli import _chart_ratios, _exact_jacobian, _exact_rank, _seam_margin, _triple_arrays
from treemoduli.projline import (
    CYCLE,
    INFINITY,
    ONE,
    ZERO,
    MobiusMap,
    ProjPoint,
    chordal,
    cross_ratio,
)
from treemoduli.tangent import add, cayley, mul, neg, stereo_param, su11_conjugate

GOLDEN = Path(__file__).parent / "golden"


def report(num: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s, budget {limit:g}s)")
    assert ok
    assert elapsed < limit


def sample_points(rng, k):
    pts = []
    while len(pts) < k:
        p = stereo_param(rng.random())
        if not p.is_infinite:
            pts.append(p)
    return pts


def test_criterion_01_cover_collapses_rotation():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for p in sample_points(rng, 10_000):
        if circle_distance(circle_cover(CYCLE(p)), circle_cover(p)) >= 1e-10:
            ok = False
            break
    report(1, "cover identity", ok, time.perf_counter() - start, 1.0)


def test_criterion_02_total_integral():
    start = time.perf_counter()
    ok = abs(cover_integral() - 3.0) < 1e-6
    report(2, "derivative integral = 3", ok, time.perf_counter() - start, 1.0)


def test_criterion_03_degree_three():
    start = time.perf_counter()
    k = 10_000
    loop = [stereo_param((-0.5 + i / k) - 0.25) for i in range(k + 1)]
    ok = winding_number(loop) == 3 and winding_number(list(reversed(loop))) == -3
    report(3, "winding degree 3", ok, time.perf_counter() - start, 1.0)


def test_criterion_04_devadoss_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    ok = True
    for g in rng.uniform(-30.0, 30.0, size=1000):
        rho = ProjPoint(math.exp(g), 1.0 + math.exp(g))
        got = devadoss_length(ZERO, rho, ONE, INFINITY).affine
        if abs(got - g) > 1e-8 * abs(g):
            ok = False
            break
    report(4, "logistic round trip", ok, time.perf_counter() - start, 1.0)


def test_criterion_05_group_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    ok = True

    pts = sample_points(rng, 30_000)
    for a, b, c in zip(pts[0::3], pts[1::3], pts[2::3]):
        if (
            chordal(add(add(a, b), c), add(a, add(b, c))) >= 1e-9
            or chordal(add(a, b), add(b, a)) >= 1e-9
            or chordal(add(a, ZERO), a) >= 1e-9
            or chordal(add(a, neg(a)), ZERO) >= 1e-9
        ):
            ok = False
            break

    two = add(ONE, ONE)
    ok = ok and two.is_infinite and two.b == 0.0

    for x in rng.uniform(-5.0, 5.0, size=100):
        p = ProjPoint.from_affine(x)
        s = add(p, INFINITY)
        inv = ProjPoint(-p.b, p.a)
        if (s.a, s.b) != (inv.a, inv.b):
            ok = False
            break

    for w in rng.uniform(0.2, 4.0, size=100):
        got = mul(3, ProjPoint(1.0, w))
        want = ProjPoint(3.0 * w * w - 1.0, w**3 - 3.0 * w)
        if chordal(got, want) >= 1e-9:
            ok = False
            break

    checked = 0
    while checked < 10_000:
        x, y = rng.uniform(-1.5, 1.5, size=2)
        if min(abs(math.cos(x)), abs(math.cos(y)), abs(math.cos(x + y))) < 1e-2:
            continue
        got = add(ProjPoint.from_affine(math.tan(x)), ProjPoint.from_affine(math.tan(y)))
        if chordal(got, ProjPoint.from_affine(math.tan(x + y))) >= 1e-9:
            ok = False
            break
        checked += 1

    report(5, "group suite", ok, time.perf_counter() - start, 2.0)


def test_criterion_06_su11():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(1000):
        a, b, c = rng.uniform(-2.0, 2.0, size=3)
        if abs(a) < 0.2:
            a = a + math.copysign(0.5, a or 1.0)
        m = MobiusMap(a, b, c, (1.0 + b * c) / a)
        mm = su11_conjugate(m)
        if mm.unit_defect >= 1e-10:
            ok = False
            break
        flipped = MobiusMap(m.d, m.c, m.b, m.a)
        for p in sample_points(rng, 10):
            if abs(mm(cayley(p)) - cayley(flipped(p))) >= 1e-9:
                ok = False
                break
        if not ok:
            break
    rot = su11_conjugate(MobiusMap(0.0, 1.0, -1.0, 1.0))
    ok = ok and abs(rot.u - (0.5 - 1.0j)) < 1e-12 and abs(rot.v - 0.5j) < 1e-12
    report(6, "SU(1,1) conjugation", ok, time.perf_counter() - start, 1.0)


def test_criterion_07_cross_ratio_invariances():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    ok = True
    checked = 0
    while checked < 1000:
        pts = sample_points(rng, 4)
        if min(chordal(pts[i], pts[j]) for i in range(4) for j in range(i + 1, 4)) < 1e-4:
            continue
        while True:
            a, b, c, d = rng.uniform(-2, 2, size=4)
            if abs(a * d - b * c) > 1e-2:
                m = MobiusMap(a, b, c, d)
                break
        base = cross_ratio(*pts)
        if not cross_ratio(*(m(p) for p in pts)).isclose(base, 1e-9):
            ok = False
            break
        for perm in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
            if not cross_ratio(*(pts[i] for i in perm)).isclose(base, 1e-9):
                ok = False
                break
        if not ok:
            break
        checked += 1
    report(7, "cross-ratio invariances", ok, time.perf_counter() - start, 1.0)


def _random_chart(rng, n, margin):
    trip, bk = _triple_arrays(n)
    while True:
        u = np.tan(np.pi * (rng.random(n - 2) + 0.25))
        if np.isfinite(u).all() and _seam_margin(_chart_ratios(u, trip, bk)) > margin:
            return ChartPoint(tuple(u))


def _transition(perm, u):
    return np.asarray(chart_coords(relabel(perm, chart_embed(u))).u)


def test_criterion_08_metric_validity():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    ok = True
    for n in (4, 5, 6):
        trip, bk = _triple_arrays(n)
        dim = n - 2
        done = 0
        while done < 200 and ok:
            u = _random_chart(rng, n, margin=1e-3)
            g = metric_matrix(u)
            if not np.allclose(g, g.T, atol=1e-12):
                ok = False
                break
            eig = np.linalg.eigvalsh(g)
            if eig.min() < -1e-9 * max(np.abs(eig).max(), 1e-30):
                ok = False
                break
            perm = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
            base = u.as_array()
            u2 = _transition(perm, u)
            if (
                np.abs(u2).max() > 1e3
                or _seam_margin(_chart_ratios(u2, trip, bk)) < 1e-3
            ):
                continue
            dphi = np.empty((dim, dim))
            for m in range(dim):
                h = 1e-6 * max(1.0, abs(base[m]))
                up, dn = base.copy(), base.copy()
                up[m] += h
                dn[m] -= h
                dphi[:, m] = (
                    _transition(perm, ChartPoint(tuple(up)))
                    - _transition(perm, ChartPoint(tuple(dn)))
                ) / (2.0 * h)
            v = rng.standard_normal(dim)
            q1 = metric_eval(u, v, v)
            q2 = metric_eval(ChartPoint(tuple(u2)), dphi @ v, dphi @ v)
            if abs(q2 - q1) > 1e-4 * abs(q1):
                ok = False
                break
            done += 1
    report(8, "metric validity and isometry", ok, time.perf_counter() - start, 30.0)


def test_criterion_09_immersion_probe():
    start = time.perf_counter()
    schema = [
        "n",
        "trials",
        "seed",
        "h",
        "tol",
        "full_rank_count",
        "min_rank",
        "worst_sigma_ratio",
        "counterexample",
    ]
    base = rank_scan(3, 1000, seed=109)
    ok = base["full_rank_count"] == 1000 and base["min_rank"] == 1
    for n in (4, 5, 6, 7):
        rep = rank_scan(n, 1000, seed=109)
        ok = ok and list(rep) == schema
        if rep["min_rank"] < n - 2:
            # a counterexample is a reportable finding, not a failure
            chart = rep["counterexample"]
            exact = _exact_rank(_exact_jacobian(ChartPoint(tuple(chart))))
            verdict = "rank deficient"
            if exact == n - 2:
                verdict = "full rank: the differential is injective there"
            print(
                f"  n={n}: rank {rep['min_rank']} flagged at {chart} "
                f"(exact rank {exact} of {n - 2}: {verdict})"
            )
            ok = ok and rep["counterexample"] is not None
        else:
            print(
                f"  n={n}: all {rep['trials']} trials full rank "
                f"(worst sigma ratio {rep['worst_sigma_ratio']:.3e})"
            )
            ok = ok and rep["counterexample"] is None
    report(9, "immersion probe", ok, time.perf_counter() - start, 120.0)


def test_criterion_10_jacobian_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(100):
        u = _random_chart(rng, 4, margin=1e-4)
        fd = albanese_jacobian(u)
        an = np.array(_exact_jacobian(u), dtype=float)
        scale = np.abs(an).max()
        if not np.allclose(fd, an, rtol=1e-5, atol=1e-8 * scale):
            ok = False
            break
    report(10, "finite differences vs exact Jacobian", ok, time.perf_counter() - start, 5.0)


def test_criterion_11_cli_determinism():
    start = time.perf_counter()

    def run(*argv):
        buf = io.StringIO()
        code = main(list(argv), out=buf)
        assert code == 0
        return buf.getvalue()

    args = ("rank-scan", "--n", "4", "--trials", "50", "--seed", "7")
    ok = run(*args) == run(*args)
    ok = ok and json.loads(run(*args))["seed"] == 7
    ok = ok and run("crossratio", "0", "0.5", "1", "inf") == (
        GOLDEN / "crossratio.txt"
    ).read_text()
    ok = ok and run("group", "add", "1", "1") == (GOLDEN / "group_add.txt").read_text()
    ok = ok and run("plot", "helix", "--k", "12") == (
        GOLDEN / "plot_helix.csv"
    ).read_text()
    report(11, "CLI determinism and goldens", ok, time.perf_counter() - start, 5.0)
