"""Layer spans recorded from outside the package by wrapping module attributes.

Every function named in SPANS is replaced, in each treemoduli module that
binds it, by a wrapper that counts calls and exceptions and accumulates
self time (its duration minus that of the spans it encloses).  The SVD is
timed through a private copy of numpy's namespace installed as
``treemoduli.moduli.np``, so only the package's own SVD calls are seen.
ProjPoint constructions are counted by wrapping ``ProjPoint.__init__``.
Nothing under the package's source tree is edited; leaving the context
restores every attribute.
"""

from __future__ import annotations

import sys
import time
import types

SPANS = (
    "cli.main",
    "moduli.rank_scan",
    "moduli.albanese_jacobian",
    "moduli.metric_matrix",
    "moduli.curve_length",
    "moduli.albanese",
    "projline.cross_ratio",
    "cover.circle_cover",
    "tangent.stereo_param",
    "tangent.cayley",
    "plots.helix_samples",
    "plots.graph_samples",
    "plots.helix_svg",
    "plots.graph_csv",
)
SVD = "moduli.svd"
PROJPOINT = "projline.ProjPoint"
NAMES = SPANS + (SVD, PROJPOINT)
RECORD_ARGS = "moduli.metric_matrix"  # its charts feed the seam-refusal check

CALLS, RAISED, REFUSED, SELF = range(4)


class Tracer:
    """Context manager that installs the spans and restores the originals on exit.

    stats maps each name to [calls, raised, refused, self seconds]; records
    holds (chart, refused) for every metric_matrix call.
    """

    def __init__(self):
        self.stats = {name: [0, 0, 0, 0.0] for name in NAMES}
        self.records: list[tuple[tuple[float, ...], bool]] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn, refusal):
        rec = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        records = self.records if name == RECORD_ARGS else None

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            refused = False
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[RAISED] += 1
                if isinstance(exc, refusal):
                    rec[REFUSED] += 1
                    refused = True
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                rec[CALLS] += 1
                rec[SELF] += duration - frame[0]
                if records is not None:
                    records.append((args[0].u, refused))

        return span

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self) -> "Tracer":
        import numpy as np

        from treemoduli import moduli, projline

        modules = [m for k, m in sys.modules.items() if k.startswith("treemoduli.")]
        for name in SPANS:
            layer, attr = name.split(".")
            original = getattr(sys.modules[f"treemoduli.{layer}"], attr)
            wrapper = self._span(name, original, moduli.SeamTooClose)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

        linalg = types.ModuleType("numpy.linalg")
        vars(linalg).update(vars(np.linalg))
        linalg.svd = self._span(SVD, np.linalg.svd, moduli.SeamTooClose)
        numpy_view = types.ModuleType("numpy")
        vars(numpy_view).update(vars(np))
        numpy_view.linalg = linalg
        self._set(moduli, "np", numpy_view)

        count = self.stats[PROJPOINT]
        init = projline.ProjPoint.__init__

        def counted_init(self_, *args):
            count[CALLS] += 1
            init(self_, *args)

        self._set(projline.ProjPoint, "__init__", counted_init)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)
