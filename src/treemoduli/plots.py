"""Figure data for disk trees, the cover graph, and the torus helix.

Geodesics of the Poincare disk between ideal boundary points are either
diameters or arcs of circles meeting the unit circle orthogonally.  The
three-leaf tree figure places its internal vertices schematically at the
arc apexes; only the annotated internal-edge length is a computed
quantity.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .cover import _branch, _mod1, circle_distance, devadoss_length
from .projline import ProjPoint, _integer, _Value
from .tangent import _cayley, _stereo_pair, cayley, circle_exp

__all__ = [
    "ArcDescriptor",
    "ideal_geodesic",
    "Tree3Figure",
    "tree3_figure",
    "helix_samples",
    "graph_samples",
    "arcs_csv",
    "helix_csv",
    "graph_csv",
    "disk_svg",
    "helix_svg",
    "graph_svg",
    "CoincidentIdealPoints",
]

SVG_SIZE = 1000
SVG_RADIUS = 480


class CoincidentIdealPoints(ArithmeticError):
    """No geodesic between coincident ideal points."""


def _unit(t: float) -> tuple[float, float]:
    """The point (cos 2 pi t, sin 2 pi t) of the unit circle, as circle_exp gives it."""
    z = circle_exp(t)
    return (z.real, z.imag)


class ArcDescriptor(_Value):
    """Disk geodesic between two ideal points, given by angles in R/Z.

    A diameter (kind "diameter", no center or radius) when the points are
    antipodal, otherwise (kind "circular") the arc of the circle through
    both that meets the unit circle orthogonally (|center|^2 = 1 + radius^2).
    """

    __slots__ = ("kind", "t1", "t2", "center", "radius")

    def __init__(self, kind: str, t1: float, t2: float,
                 center: tuple[float, float] | None = None, radius: float | None = None):
        super().__init__(kind, t1, t2, center, radius)

    def endpoints(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return _unit(self.t1), _unit(self.t2)

    def apex(self) -> tuple[float, float]:
        """Point of the geodesic nearest the origin (its visual midpoint)."""
        if self.kind == "diameter":
            return (0.0, 0.0)
        cx, cy = self.center
        norm = math.hypot(cx, cy)
        f = 1.0 - self.radius / norm
        return (cx * f, cy * f)


def ideal_geodesic(t1: float, t2: float) -> ArcDescriptor:
    """Disk geodesic between the ideal points at angles t1, t2.

    Raises CoincidentIdealPoints when the angles agree modulo 1, and
    ValueError naming an angle that is nan or infinite.
    """
    t1 = _mod1(float(t1))
    t2 = _mod1(float(t2))
    d = circle_distance(t1, t2)
    if d <= 1e-12:
        raise CoincidentIdealPoints(f"angles {t1} and {t2} coincide")
    if abs(d - 0.5) <= 1e-9:
        return ArcDescriptor("diameter", t1, t2)
    z1, z2 = _unit(t1), _unit(t2)
    # Orthogonality forces <c, z1> = <c, z2> = 1.
    det = z1[0] * z2[1] - z1[1] * z2[0]
    cx = (z2[1] - z1[1]) / det
    cy = (z1[0] - z2[0]) / det
    r = math.sqrt(cx * cx + cy * cy - 1.0)
    return ArcDescriptor("circular", t1, t2, (cx, cy), r)


def _angle(z: complex) -> float:
    return _mod1(math.atan2(z.imag, z.real) / (2.0 * math.pi))


class Tree3Figure(_Value):
    """Disk data for the rooted tree on four boundary points.

    The two pair arcs are split at their apexes into four leaf stubs;
    the schematic internal edge joins the apexes.  gamma is the signed
    internal-edge length, infinite on boundary (collision) quadruples.
    The fields are angles (four floats), arcs (ArcDescriptors),
    internal_edge (two apexes, or None), gamma (a ProjPoint) and boundary.
    """

    __slots__ = ("angles", "arcs", "internal_edge", "gamma", "boundary")


def tree3_figure(
    p0: ProjPoint, p1: ProjPoint, p2: ProjPoint, p3: ProjPoint
) -> Tree3Figure:
    """Figure data for the tree with root p0 and leaves p1, p2, p3."""
    gamma = devadoss_length(p0, p1, p2, p3)
    angles = tuple(_angle(cayley(p)) for p in (p0, p1, p2, p3))
    arcs = []
    for a, b in ((angles[0], angles[1]), (angles[2], angles[3])):
        try:
            arcs.append(ideal_geodesic(a, b))
        except CoincidentIdealPoints:
            pass
    edge = None
    if len(arcs) == 2:
        edge = (arcs[0].apex(), arcs[1].apex())
    return Tree3Figure(angles, tuple(arcs), edge, gamma, gamma.is_infinite or len(arcs) < 2)


# The emitters hold every sample in memory; 2**20 is 64 times the k = 16384 of the exact benchmark.
_MAX_SAMPLES = 2**20


def _loop(k: int) -> Iterator[tuple[float, float, float, float]]:
    """k samples (s, a, b, t) on the uniform grid of s in [-1/2, 1/2].

    [a : b] is stereo_param(s - 1/4) = tan(pi s) without its power-of-two
    scale, which changes no quotient: t is circle_cover's value bit for bit.
    """
    k = _integer(k, "k")
    if k < 2:
        raise ValueError("need at least two samples")
    if k > _MAX_SAMPLES:
        raise ValueError(f"k = {k} is above the limit of 2**20 = {_MAX_SAMPLES} samples")
    for j in range(k):
        s = -0.5 + j / (k - 1)
        a, b = _stereo_pair(_mod1(s - 0.25))
        _, num, den, _ = _branch(a, b)
        yield s, a, b, _mod1(num / den)


def helix_samples(k: int) -> list[tuple[float, float]]:
    """k samples of (circle angle of x, cover value of x) along one loop, as floats in [0, 1).

    The first coordinate winds once around the circle, the second three
    times; the endpoints of the list agree modulo 1 in both coordinates.
    """
    return [(_angle(_cayley(a, b)), t) for _s, a, b, t in _loop(k)]


def graph_samples(k: int) -> list[tuple[float, float, float]]:
    """k samples (s, x, cover value) with x = tan(pi s) over one loop, as floats; x = inf at the pole."""
    return [(s, a / b if b else math.inf, t) for s, a, b, t in _loop(k)]


# -- text emitters ---------------------------------------------------------


def arcs_csv(arcs) -> str:
    lines = ["kind,t1,t2,center_x,center_y,radius"]
    for a in arcs:
        if a.kind == "diameter":
            lines.append(f"diameter,{a.t1:.9g},{a.t2:.9g},,,")
        else:
            lines.append(
                f"circular,{a.t1:.9g},{a.t2:.9g},"
                f"{a.center[0]:.9g},{a.center[1]:.9g},{a.radius:.9g}"
            )
    return "\n".join(lines) + "\n"


def helix_csv(samples) -> str:
    return "point_angle,cover_angle\n" + "".join(["%.9g,%.9g\n" % st for st in samples])


def graph_csv(samples) -> str:
    return "loop_param,x,cover_value\n" + "".join(["%.9g,%.9g,%.9g\n" % sxt for sxt in samples])


def _to_px(p: tuple[float, float]) -> tuple[float, float]:
    return (
        SVG_SIZE / 2 + SVG_RADIUS * p[0],
        SVG_SIZE / 2 - SVG_RADIUS * p[1],
    )


def _svg(body: str) -> str:
    """SVG 1.1 document of SVG_SIZE square holding the given elements."""
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f"{body}</svg>\n"
    )


def _arc_path(a: ArcDescriptor) -> str:
    (x1, y1), (x2, y2) = (_to_px(p) for p in a.endpoints())
    if a.kind == "diameter":
        return (
            f'<line x1="{x1:.9g}" y1="{y1:.9g}" x2="{x2:.9g}" y2="{y2:.9g}" '
            'stroke="black" fill="none"/>'
        )
    r = a.radius * SVG_RADIUS
    # Geodesic arcs subtend less than pi, and the y flip reverses sweep.
    z1, z2 = a.endpoints()
    cross = (z1[0] - a.center[0]) * (z2[1] - a.center[1]) - (
        z1[1] - a.center[1]
    ) * (z2[0] - a.center[0])
    sweep = 0 if cross > 0 else 1
    return (
        f'<path d="M {x1:.9g} {y1:.9g} A {r:.9g} {r:.9g} 0 0 {sweep} '
        f'{x2:.9g} {y2:.9g}" stroke="black" fill="none"/>'
    )


def disk_svg(fig: Tree3Figure) -> str:
    """SVG 1.1 document for a three-leaf tree figure."""
    parts = [
        f'<circle cx="{SVG_SIZE / 2:.9g}" cy="{SVG_SIZE / 2:.9g}" '
        f'r="{SVG_RADIUS}" fill="none" stroke="black"/>\n'
    ]
    for a in fig.arcs:
        parts.append(_arc_path(a) + "\n")
    if fig.internal_edge is not None:
        (x1, y1), (x2, y2) = (_to_px(p) for p in fig.internal_edge)
        parts.append(
            f'<line x1="{x1:.9g}" y1="{y1:.9g}" x2="{x2:.9g}" y2="{y2:.9g}" '
            'stroke="black" stroke-dasharray="8 6" fill="none"/>\n'
        )
    for i, t in enumerate(fig.angles):
        x, y = _to_px(_unit(t))
        parts.append(
            f'<circle cx="{x:.9g}" cy="{y:.9g}" r="6" '
            f'fill="{"black" if i == 0 else "white"}" stroke="black"/>\n'
        )
    glabel = "inf" if fig.gamma.is_infinite else format(fig.gamma.affine, ".9g")
    flag = " (boundary)" if fig.boundary else ""
    parts.append(
        f'<text x="20" y="40" font-size="28" font-family="monospace">'
        f"internal edge length = {glabel}{flag}</text>\n"
    )
    return _svg("".join(parts))


def _torus_svg(points: list[tuple[float, float]]) -> str:
    """SVG chart of points in the unit square of the torus, polylines split at wraps."""
    pairs = enumerate(itertools.pairwise(points), start=1)
    wraps = [j for j, (p, q) in pairs if abs(q[0] - p[0]) > 0.5 or abs(q[1] - p[1]) > 0.5]
    runs = [points[a:b] for a, b in zip([0, *wraps], [*wraps, len(points)]) if b - a > 1]
    xys = (" ".join(["%.9g,%.9g" % (20 + 960 * x, 980 - 960 * y) for x, y in run]) for run in runs)
    polylines = (f'<polyline points="{xy}" stroke="black" fill="none"/>' for xy in xys)
    rect = '<rect x="20" y="20" width="960" height="960" fill="none" stroke="black"/>\n'
    return _svg(rect + "\n".join(polylines) + "\n")


def helix_svg(samples) -> str:
    """SVG chart of the helix in the unit square of the torus."""
    return _torus_svg(samples)


def graph_svg(samples) -> str:
    """SVG chart of the cover value against the loop parameter."""
    return _torus_svg([((s + 0.5), t) for s, _x, t in samples])
