"""Output check against the reference interpreter.

Every measured point is compared with a run of the same point and seed
on the reference interpreter (``fast_path=False``), which shares no
execution code with the fast path or the lockstep engine under test.
The comparison covers status, exit reason, cycles, instret and the
SHA-256 of every output array -- the same projection ``repro serve``
puts in its responses.

Run as a script (``python3 oracle.py`` with a JSON list of points on
stdin) this module is a reference worker: it prints ``[[point,
digest], ...]`` as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import IO, Dict, Iterable, List, Tuple

import numpy as np

#: Reference runs are spread over this many worker processes after the
#: measurement ends (never during it).
REFERENCE_PROCESSES = 2
REFERENCE_TIMEOUT_S = 150.0
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def digest(outcome) -> Dict:
    """Status, exit reason, cycles, instret and output SHA-256s."""
    body: Dict = {"status": outcome.status}
    run = outcome.run
    if run is not None:
        body.update(
            exit_reason=run.exit_reason, cycles=run.cycles,
            instret=run.instret,
            outputs={name: hashlib.sha256(
                np.ascontiguousarray(array).tobytes()).hexdigest()
                for name, array in sorted(run.outputs.items())})
    return body


def digest_from_payload(result: Dict) -> Dict:
    """The same projection from a serve ``result`` payload."""
    body: Dict = {"status": result["status"]}
    run = result.get("run")
    if run is not None:
        body.update(
            exit_reason=run["exit_reason"], cycles=run["cycles"],
            instret=run["instret"],
            outputs={name: out["sha256"]
                     for name, out in sorted(run["outputs"].items())})
    return body


def _worker() -> None:
    sys.path.insert(0, SRC)
    from repro.harness.parallel import SweepPoint, run_point

    points = [tuple(p) for p in json.load(sys.stdin)]
    print(json.dumps([[list(p), digest(run_point(SweepPoint(*p),
                                                 fast_path=False))]
                      for p in points]))


def reference_digests(points: Iterable[Tuple]) -> Dict[Tuple, Dict]:
    """Reference digest per distinct point, computed in worker processes.

    Every worker is waited for (and killed first if it overruns or the
    caller is interrupted), so none outlives the call.
    """
    unique = sorted(set(tuple(p) for p in points))
    shares = [unique[i::REFERENCE_PROCESSES]
              for i in range(REFERENCE_PROCESSES)]
    procs: List[Tuple[subprocess.Popen, IO[bytes]]] = []
    results: Dict[Tuple, Dict] = {}
    try:
        for share in filter(None, shares):
            out = tempfile.TemporaryFile()
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)],
                stdin=subprocess.PIPE, stdout=out)
            procs.append((proc, out))
            proc.stdin.write(json.dumps(share).encode())
            proc.stdin.close()
        deadline = time.monotonic() + REFERENCE_TIMEOUT_S
        for proc, out in procs:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise RuntimeError(
                    f"reference worker exited with {proc.returncode}")
            out.seek(0)
            results.update((tuple(p), d) for p, d in json.load(out))
    finally:
        for proc, out in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            out.close()
    return results


def mismatch(got: Dict, want: Dict) -> bool:
    """Whether a measured digest fails the check against the reference
    (which must itself have run ``ok``)."""
    return got != want or want["status"] != "ok"


if __name__ == "__main__":
    _worker()
