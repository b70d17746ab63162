"""Starts benchmark children on request, from a process that stays small.

Linux carries the resident-set high-water mark of the process that forks
into the child's ru_maxrss.  Children are therefore started here, in a
standard-library-only process, rather than from the benchmark process,
which holds numpy and the outputs it checks.

Protocol: one JSON request per line on stdin,
{"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s,
"reference": bool};
one JSON reply per line on stdout,
{"seconds": s, "code": n, "maxrss_kib": n, "reference_s": [before, after]}.
A child that outlives its timeout is killed.

The shared host this benchmark was defined on runs everything up to twice
as slowly for seconds to minutes at a time.  Each timed child is therefore
bracketed by a reference spawn of an interpreter that imports numpy, which
is most of what every child does before its own work, and the benchmark
divides the child's time by the mean of the two (see ``scaled``), which
cancels such a phase.  A reference taken right after one child serves as
the "before" of the next child when that follows at once.  Warm rounds run
in one process, so worker.py brackets them with ``reference_loop`` instead.
"""

import gc
import json
import os
import subprocess
import sys
import threading
import time

# About the times of the two references in a quiet phase of the 2-vCPU Xeon
# host the benchmark was defined on.  A time scaled by one of them over the
# reference measured around it reads as seconds at that host's quiet speed.
SPAWN_REFERENCE_S = 0.150
LOOP_REFERENCE_S = 0.010
REUSE_S = 0.25  # longest gap over which an "after" reference serves as the next "before"


def reference_spawn() -> float:
    """Seconds to start an interpreter that imports numpy and ends."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import numpy"], stdout=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - start


def reference_loop() -> float:
    """Seconds taken by a fixed interpreter-bound loop (dict and str work)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(60000):
            table[i] = str(i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float, nominal: float) -> float:
    """A time measured between two references, scaled to their nominal time."""
    return seconds * nominal / (0.5 * (before + after))


def main() -> int:
    last = None  # (reference seconds, when it ended)
    for line in sys.stdin:
        req = json.loads(line)
        if not req.get("reference", True):
            before = None
        elif last is not None and time.perf_counter() - last[1] < REUSE_S:
            before = last[0]
        else:
            before = reference_spawn()
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        after = None if before is None else reference_spawn()
        last = None if after is None else (after, time.perf_counter())
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss,
                 "reference_s": [before, after]}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
