"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload at a tiny size in both modes and checks that each
metric named in BENCHMARK.json prints with its unit; feeds deliberately
corrupted outputs, a path whose midpoint lands exactly on a seam, and
unequal trace counts to the checks and requires each to count as failed;
and requires the benchmark to refuse to run without the package sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run
import workloads
from run import HERE, ROOT, Runner, Tally

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def metric_names_and_units() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads.FULL.update(workloads.TINY)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", w["name"], "--seed", "5", "--seconds", "0",
                                 "--trace", str(trace)])
            lines = buf.getvalue().splitlines()
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            printed = all(any(ln.split()[:1] == [k] and f" {u}" in ln for ln in lines)
                          for k, u in want.items())
            expect(code == 0 and result["correct"] and got == want and printed,
                   f"{w['name']} --trace {trace}: correct, every {key} metric printed with its unit")


def corrupted_outputs(launcher) -> None:
    for name in ("scan", "exact", "path"):
        wl = workloads.build(name, 3, launcher.work, tiny=True)
        runner = Runner(wl, launcher, Tally())
        runner.warm_pass()
        expect(runner.tally.failed == 0, f"{name}: tiny outputs pass their checks")
        for i, (inv, ref) in enumerate(zip(wl.invocations, runner.reference)):
            bad = corrupt(inv.argv, ref)
            expect(inv.check(bad) is not None, f"{name}: corrupted {inv.argv[:2]} is rejected")
            before = runner.tally.failed
            runner.judge(i, 0, bad, "corrupt")
            expect(runner.tally.failed == before + 1, f"{name}: corrupted output counts as failed")


def corrupt(argv: list[str], out: str) -> str:
    if argv[0] == "albanese":
        r = json.loads(out)
        r["values"][len(r["values"]) // 2] = (r["values"][len(r["values"]) // 2] + 1e-6) % 1.0
        return json.dumps(r)
    if argv[0] == "rank-scan":
        r = json.loads(out)
        r["min_rank"] = r["n"] - 1
        return json.dumps(r)
    if argv[0] == "curve-length":
        r = json.loads(out)
        r["length"] = -r["length"]
        return json.dumps(r)
    lines = out.splitlines(keepends=True)
    if argv[1] == "kappa-graph":
        return "".join(lines[:-1])
    return out.replace('points="', 'points="20,20 ', 1)


def silent_seam(launcher) -> None:
    """Midpoint (1.0, 0.5) puts u_1 on the gauge point 1: the benchmark's seam test must flag it."""
    expect(workloads.seam_margin_ref((1.0, 0.5)) == 0.0, "seam test gives margin 0 on a collision")
    path = launcher.work / "seam.csv"
    path.write_text("0.75,0.5\n1.25,0.5\n")
    inv = workloads.Invocation(["curve-length", "--input", str(path)],
                               lambda out: workloads.check_length(out, 2))
    runner = Runner(workloads.Workload("path", [inv], {}), launcher, Tally())
    runner.warm_pass(trace=True)
    caught = [f for f in runner.tally.failures if "of a seam" in f or "exit 3" in f]
    expect(len(caught) == 1, "a midpoint exactly on a seam counts as failed in the traced run")


def count_checks() -> None:
    tally = Tally()
    run.check_counts("path", [{"moduli.metric_matrix": (3, 1, 1)},
                              {"moduli.metric_matrix": (3, 1, 1)}], tally)
    expect(tally.failed == 0, "equal trace counts pass")
    run.check_counts("path", [{"moduli.metric_matrix": (3, 1, 1)},
                              {"moduli.metric_matrix": (4, 1, 1)}], tally)
    expect(tally.failed == 1, "unequal trace counts count as failed")
    run.check_counts("scan", [{"cover.circle_cover": (1, 0, 0)}], tally)
    expect(tally.failed == 2, "a broken predicted zero counts as failed")


def scaling() -> None:
    """A phase in which the host runs everything twice as slowly leaves a scaled time unchanged."""
    quiet = run.scaled(0.5, 0.040, 0.040, 0.040)
    slow = run.scaled(1.0, 0.080, 0.080, 0.040)
    expect(quiet == 0.5 and slow == quiet, "a uniform slowdown cancels in the scaled time")


def refuses_without_sources(work) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and '"correct"' not in last[0],
           "without the package sources it exits non-zero and prints no result")


def main() -> int:
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        work = run.Path(tmp)
        count_checks()
        scaling()
        launcher = run.Launcher(work)
        try:
            corrupted_outputs(launcher)
            silent_seam(launcher)
        finally:
            launcher.close()
        refuses_without_sources(work)
        metric_names_and_units()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
