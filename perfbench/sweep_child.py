"""One pass of a sweep workload in a fresh interpreter.

Usage: ``python3 perfbench/sweep_child.py WORKLOAD SEED [SPANS_OUT]``

Imports repro, builds the workload's points, then runs them once
through ``run_points`` (no cache, no jobs).  With ``SPANS_OUT`` the
layer wrappers of :mod:`spans` are installed before the pass and the
spans are written there afterwards.  The last stdout line is a JSON
object with the monotonic time setup ended, the pass wall time, each
point's completion time since the pass started, per-point digests and
the process's peak RSS.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def main(argv) -> int:
    sys.path.insert(0, SRC)
    workload, seed = argv[0], int(argv[1])
    spans_out = argv[2] if len(argv) > 2 else None

    from repro.harness.parallel import SweepPoint, run_points

    import oracle
    import workloads

    points, lockstep = workloads.sweep_points(workload, seed)
    points = [SweepPoint(*p) for p in points]
    recorder = None
    if spans_out is not None:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)

    finished = []
    ready = time.monotonic()
    started = time.perf_counter()
    run_points(points, lockstep=lockstep,
               on_result=lambda point, outcome: finished.append(
                   (point, outcome, time.perf_counter() - started)))
    wall = time.perf_counter() - started

    if recorder is not None:
        recorder.dump(spans_out)
    result = {
        "ready_monotonic": ready,
        "wall_s": wall,
        "points": [[list(point), oracle.digest(outcome), done_s]
                   for point, outcome, done_s in finished],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
