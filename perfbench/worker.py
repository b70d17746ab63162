"""Warm passes of a workload in a fresh process.

    python3 perfbench/worker.py REQUEST RESPONSE

REQUEST is a JSON file {"argvs": [[...], ...], "trace": 0 or 1,
"budget": seconds}.  The worker imports treemoduli.cli, runs the first
invocation once untimed so that lazy set-up is done, then times rounds of
every invocation through ``treemoduli.cli.main(argv, out=buffer)`` until
the timed rounds add up to the budget; it always runs at least one round.
``launcher.reference_loop`` runs before each invocation and after the
last, and each invocation's time is also given scaled by the two reference
times around it.  The worker writes to the JSON file RESPONSE the raw and
scaled times and the exit codes of every round, the outputs of the first
round, and for each later round only the outputs that differ from the
first (null where they are equal), plus the layer counts and
metric_matrix charts of the single round it runs when tracing.

A fresh process per block of rounds holds only what the program
allocates: the benchmark's own inputs, parsed outputs and numpy arrays
stay out of the measured heap (the cyclic garbage collector walks every
live object).  The heap is collected before each round.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
from pathlib import Path

import tracer
from launcher import LOOP_REFERENCE_S, reference_loop, scaled


def main(request_path: str, response_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    import treemoduli.cli as cli

    src = Path(__file__).resolve().parent.parent / "src" / "treemoduli"
    if Path(cli.__file__).resolve().parent != src:
        print(f"worker: imported treemoduli from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    cli.main(list(request["argvs"][0]), out=io.StringIO())
    trace = tracer.Tracer() if request["trace"] else None
    budget = 0.0 if trace is not None else float(request.get("budget", 0.0))
    rounds, first, records = [], None, []
    with trace or contextlib.nullcontext():
        while not rounds or sum(sum(r["seconds"]) for r in rounds) < budget:
            seconds, scaled_s, codes, outputs = [], [], [], []
            gc.collect()
            before = reference_loop()
            for argv in request["argvs"]:
                buf = io.StringIO()
                start = time.perf_counter()
                codes.append(cli.main(list(argv), out=buf))
                seconds.append(time.perf_counter() - start)
                after = reference_loop()
                scaled_s.append(scaled(seconds[-1], before, after, LOOP_REFERENCE_S))
                before = after
                outputs.append(buf.getvalue())
                if trace is not None:
                    records.append(list(trace.records))
                    trace.records.clear()
            if first is None:
                first = outputs
            else:
                outputs = [None if o == f else o for o, f in zip(outputs, first)]
            rounds.append({"seconds": seconds, "scaled": scaled_s, "codes": codes,
                           "outputs": outputs})
    response = {"rounds": rounds, "records": records}
    if trace is not None:
        response["stats"] = trace.stats
    Path(response_path).write_text(json.dumps(response), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
