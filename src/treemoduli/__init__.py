"""Numerical toolkit for the real projective line and tree moduli.

Homogeneous arithmetic on the projective line, its piecewise Mobius
three-fold cover of the circle, the tangent-addition group law, and the
averaged pullback metric on moduli of marked points, together with a
rank probe of the conjectured Albanese immersion.
"""

from .cover import (
    CirclePoint,
    Interval,
    circle_cover,
    circle_distance,
    classify,
    cover_derivative,
    cover_integral,
    devadoss_length,
    line_cover,
    logit,
    winding_number,
)
from .configuration import (
    ChartPoint,
    Configuration,
    albanese,
    chart_coords,
    chart_embed,
    forgetful,
    relabel,
    triple_coord,
    triples,
)
from .projline import (
    INFINITY,
    ONE,
    POINT_TOL,
    ZERO,
    MobiusMap,
    ProjPoint,
    S3Element,
    chordal,
    cross_ratio,
    frame_map,
    normalize_quadruple,
)
from .tangent import (
    SU11Matrix,
    cayley,
    cayley_inv,
    stereo_param,
    su11_conjugate,
    torsion_point,
)

__version__ = "0.1.0"

# The chart layer's names: treemoduli.moduli, and with it numpy, loads on first use.
_CHART = ("albanese_jacobian", "curve_length", "jacobian_rank", "metric_eval", "metric_matrix", "rank_scan")


def __getattr__(name):
    if name in _CHART or name == "moduli":
        import importlib  # from . import moduli would call this __getattr__ again

        moduli = importlib.import_module(".moduli", __name__)
        return moduli if name == "moduli" else getattr(moduli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# from treemoduli import * takes the chart layer's names too, and so loads it.
__all__ = [name for name in globals() if not name.startswith("_")] + [*_CHART, "moduli"]


def __dir__():
    return sorted({*globals(), *__all__})
