"""treemoduli benchmark: seeded CLI workloads, end-to-end timings and a layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan|exact|path --seed N --seconds S --trace 0|1

With --trace 0 it measures, for S seconds, the set-up time and then
alternating passes of the workload; a pass starts only if it is expected
to end within the S seconds.  A block of warm rounds runs every
invocation through ``treemoduli.cli.main(argv, out=buffer)`` in a fresh
worker process after its imports (worker.py); a cold pass runs every
invocation as its own ``python -m treemoduli`` process.  Every time is
scaled by a reference timed next to it (launcher.py).  It prints setup_s,
wall_s, warm_s, peak_rss_mib and ok_frac.  With --trace 1 it alternates
untraced and traced warm passes, prints the per-layer counts and self
times, and checks that the counts repeat exactly.

The load is a closed loop with one client: one invocation at a time.
Every output is checked; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from launcher import SPAWN_REFERENCE_S, scaled  # noqa: E402

SETUP_SPAWNS = 10
CHILD_TIMEOUT_S = 120.0
MIN_TRACED_PASSES = 2
WARM_BLOCK_S = 1.0  # timed seconds of warm rounds per worker, between cold passes
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "warm_s": "s", "peak_rss_mib": "MiB", "ok_frac": "ratio",
}

# Per-layer metric name -> (tracer span, field); "self_s" fields are medians over passes.
PER_LAYER = {
    "moduli.albanese_jacobian.calls": ("moduli.albanese_jacobian", tracer.CALLS),
    "moduli.albanese_jacobian.self_s": ("moduli.albanese_jacobian", tracer.SELF),
    "moduli.albanese_jacobian.raised": ("moduli.albanese_jacobian", tracer.RAISED),
    "moduli.svd.calls": ("moduli.svd", tracer.CALLS),
    "moduli.svd.self_s": ("moduli.svd", tracer.SELF),
    "moduli.rank_scan.self_s": ("moduli.rank_scan", tracer.SELF),
    "moduli.metric_matrix.calls": ("moduli.metric_matrix", tracer.CALLS),
    "moduli.metric_matrix.refused": ("moduli.metric_matrix", tracer.REFUSED),
    "moduli.metric_matrix.self_s": ("moduli.metric_matrix", tracer.SELF),
    "moduli.curve_length.self_s": ("moduli.curve_length", tracer.SELF),
    "moduli.albanese.self_s": ("moduli.albanese", tracer.SELF),
    "projline.cross_ratio.calls": ("projline.cross_ratio", tracer.CALLS),
    "projline.cross_ratio.self_s": ("projline.cross_ratio", tracer.SELF),
    "projline.ProjPoint.calls": ("projline.ProjPoint", tracer.CALLS),
    "cover.circle_cover.calls": ("cover.circle_cover", tracer.CALLS),
    "cover.circle_cover.self_s": ("cover.circle_cover", tracer.SELF),
    "tangent.stereo_param.self_s": ("tangent.stereo_param", tracer.SELF),
    "tangent.cayley.self_s": ("tangent.cayley", tracer.SELF),
    "plots.helix_samples.self_s": ("plots.helix_samples", tracer.SELF),
    "plots.graph_samples.self_s": ("plots.graph_samples", tracer.SELF),
    "plots.helix_svg.self_s": ("plots.helix_svg", tracer.SELF),
    "plots.graph_csv.self_s": ("plots.graph_csv", tracer.SELF),
    "cli.main.self_s": ("cli.main", tracer.SELF),
}

# Spans that must not run at all on a workload, by name prefix.
PREDICTED_ZERO = {
    "scan": ("projline.", "cover.", "tangent.", "plots."),
    "exact": ("moduli.albanese_jacobian",),
}


class Tally:
    """Operations attempted and failed; every failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Child(NamedTuple):
    seconds: float
    scaled: float | None  # seconds scaled by the reference spawns timed around the child
    code: int
    out: str
    err: str
    rss_mib: float


class Launcher:
    """Starts children through launcher.py, so their max RSS is their own."""

    def __init__(self, work: Path):
        self.work = work
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def spawn(self, argv, reference: bool = True) -> Child:
        """Run one child to completion; without reference spawns, scaled is None."""
        out, err = self.work / "child.out", self.work / "child.err"
        request = {"argv": argv, "cwd": str(ROOT), "stdout": str(out), "stderr": str(err),
                   "timeout": CHILD_TIMEOUT_S, "reference": reference}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        seconds = reply["seconds"]
        return Child(
            seconds,
            scaled(seconds, *reply["reference_s"], SPAWN_REFERENCE_S) if reference else None,
            reply["code"],
            out.read_text(encoding="utf-8", errors="replace"),
            err.read_text(encoding="utf-8", errors="replace"),
            reply["maxrss_kib"] / 1024.0,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)


def measure_setup(launcher: Launcher) -> list[tuple[float, float]]:
    """(seconds, scaled seconds) of each spawn that only imports treemoduli.cli."""
    argv = [sys.executable, "-c", "import treemoduli.cli"]
    times = []
    for _ in range(SETUP_SPAWNS):
        child = launcher.spawn(argv)
        if child.code != 0:
            raise RuntimeError(f"importing treemoduli.cli failed: {child.err.strip()}")
        times.append((child.seconds, child.scaled))
    return times


class Runner:
    """Runs passes of one workload and checks every output.

    The first successful output of each invocation is checked in full and
    becomes its reference; every later output must equal it byte for byte,
    so cold, warm and traced stdout are also held to be identical.
    """

    def __init__(self, wl: workloads.Workload, launcher: Launcher, tally: Tally):
        self.wl = wl
        self.launcher = launcher
        self.work = launcher.work
        self.tally = tally
        self.reference: list[str | None] = [None] * len(wl.invocations)

    def judge(self, i: int, code: int, out: str, how: str) -> None:
        inv = self.wl.invocations[i]
        if code != 0:
            reason = f"exit {code}"
        elif self.reference[i] is None:
            try:
                reason = inv.check(out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output ({exc!r})"
            if reason is None:
                self.reference[i] = out
        elif out != self.reference[i]:
            reason = "stdout differs from the checked output"
        else:
            reason = None
        self.tally.record(reason is None, f"{how} {' '.join(inv.argv)}: {reason}")

    def cold_pass(self) -> tuple[tuple[float, float], float]:
        """One cold pass: ((seconds, scaled seconds), largest child max RSS in MiB)."""
        raw, total, peak = 0.0, 0.0, 0.0
        for i, inv in enumerate(self.wl.invocations):
            child = self.launcher.spawn([sys.executable, "-m", "treemoduli", *inv.argv])
            if child.code != 0:
                print(child.err.strip(), file=sys.stderr)
            raw += child.seconds
            total += child.scaled
            peak = max(peak, child.rss_mib)
            self.judge(i, child.code, child.out, "cold")
        return (raw, total), peak

    def warm_pass(self, trace: bool = False, budget: float = 0.0) -> tuple[list, dict | None]:
        """Warm rounds in one fresh worker until they add up to budget seconds.

        Returns (seconds, scaled seconds) of each round and, when traced,
        the layer stats of its single round with self times scaled alike.
        """
        request, response = self.work / "request.json", self.work / "response.json"
        request.write_text(json.dumps({"argvs": [inv.argv for inv in self.wl.invocations],
                                       "trace": int(trace), "budget": budget}))
        response.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "worker.py"), str(request), str(response)]
        child = self.launcher.spawn(argv, reference=False)
        if child.code != 0 or not response.exists():
            raise RuntimeError(f"warm worker exited {child.code}: {child.err.strip()}")
        r = json.loads(response.read_text(encoding="utf-8"))
        how = "traced" if trace else "warm"
        first = r["rounds"][0]["outputs"]
        for rnd in r["rounds"]:
            for i, out in enumerate(rnd["outputs"]):
                self.judge(i, rnd["codes"][i], first[i] if out is None else out, how)
        if trace:
            for i, inv in enumerate(self.wl.invocations):
                silent = workloads.silent_seam_charts(r["records"][i])
                self.tally.record(
                    not silent,
                    f"{how} {' '.join(inv.argv)}: metric_matrix evaluated {len(silent)} "
                    f"chart(s) within 10 h of a seam, first {silent[:1]}",
                )
        times = [(sum(rnd["seconds"]), sum(rnd["scaled"])) for rnd in r["rounds"]]
        stats = r.get("stats")
        if stats:
            factor = times[0][1] / times[0][0]
            for rec in stats.values():
                rec[tracer.SELF] *= factor
        return times, stats


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Samples of each end-to-end metric, and the unscaled times behind the timings."""
    start, cycle = time.monotonic(), 0.0
    setup = measure_setup(runner.launcher)
    cold, warm, peak = [], [], []
    while not cold or time.monotonic() - start + cycle <= seconds:
        began = time.monotonic()
        warm.extend(runner.warm_pass(budget=WARM_BLOCK_S)[0])
        wall, rss = runner.cold_pass()
        cold.append(wall)
        peak.append(rss)
        cycle = time.monotonic() - began
    tally = runner.tally
    samples = {
        "setup_s": [t for _, t in setup],
        "wall_s": [t for _, t in cold],
        "warm_s": [t for _, t in warm],
        "peak_rss_mib": peak,
        "ok_frac": [1.0 - tally.failed / tally.attempted],
    }
    raw = {"setup_s": [t for t, _ in setup], "wall_s": [t for t, _ in cold],
           "warm_s": [t for t, _ in warm]}
    return samples, raw


def check_counts(workload: str, counts: list[dict], tally: Tally) -> None:
    """Traced counts must repeat exactly across passes, and predicted zeros must hold."""
    first = counts[0]
    for i, other in enumerate(counts[1:], start=2):
        diff = sorted(k for k in first if first[k] != other[k])
        tally.record(not diff, f"traced pass {i} counts differ from pass 1 in {diff}")
    for prefix in PREDICTED_ZERO.get(workload, ()):
        moved = sorted(k for k, c in first.items() if k.startswith(prefix) and c[0] != 0)
        tally.record(not moved, f"predicted zero calls on {workload}, but {moved} ran")


def layer_trace(runner: Runner, seconds: float) -> tuple[dict, dict]:
    plain, traced, counts = [], [], []
    samples = {name: [] for name in PER_LAYER}
    start, cycle = time.monotonic(), 0.0
    while len(traced) < MIN_TRACED_PASSES or time.monotonic() - start + cycle <= seconds:
        began = time.monotonic()
        plain.extend(t for _, t in runner.warm_pass()[0])
        totals, stats = runner.warm_pass(trace=True)
        traced.extend(t for _, t in totals)
        counts.append({name: tuple(rec[: tracer.SELF]) for name, rec in stats.items()})
        for name, (span, field) in PER_LAYER.items():
            samples[name].append(stats[span][field])
        cycle = time.monotonic() - began

    check_counts(runner.wl.name, counts, runner.tally)
    values = {}
    for name, vals in samples.items():
        values[name] = statistics.median(vals) if name.endswith("self_s") else vals[0]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values, {"warm_s untraced": plain, "warm_s traced": traced}


def machine_record(args) -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        why = {w["name"]: w["why"] for w in spec["workloads"]}
    except (OSError, ValueError, KeyError):
        why = {}
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": why.get(args.workload),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "loadavg_at_start": os.getloadavg(),
        "load": "closed loop, one client, one invocation at a time",
    }


def report_line(name: str, unit: str, values) -> str:
    q1, med, q3 = quartiles(list(values))
    return f"{name:34s} {med:.6g} {unit}  (n={len(values)}, q1={q1:.6g}, q3={q3:.6g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treemoduli" / "__init__.py").is_file():
        print(f"perfbench: no treemoduli sources under {SRC}", file=sys.stderr)
        return 2

    print("record " + json.dumps(machine_record(args)))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    launcher = Launcher(work)
    try:
        wl = workloads.build(args.workload, args.seed, work)
        if wl.notes:
            print("inputs " + json.dumps(wl.notes))
        runner = Runner(wl, launcher, Tally())
        if args.trace:
            metrics, spread = layer_trace(runner, args.seconds)
            for name, vals in spread.items():
                print(report_line(name, "s", vals))
            units = {name: ("s" if name.endswith("_s") else "count") for name in metrics}
            for name, value in metrics.items():
                print(f"{name:34s} {value:.6g} {units[name]}")
        else:
            samples, raw = end_to_end(runner, args.seconds)
            metrics, units = {}, END_TO_END_UNITS
            for name, vals in samples.items():
                metrics[name] = statistics.median(vals)
                print(report_line(name, units[name], vals))
            for name, vals in raw.items():
                print(report_line(f"{name} unscaled", "s", vals))
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    tally = runner.tally
    print(f"fail_frac {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
