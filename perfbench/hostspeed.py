"""Host-speed probes for shared, contended hosts.

On a shared host the same CPU-bound Python work can run up to 1.8x
slower for a fraction of a second to minutes at a time, whatever the
code does, and each CPU flips between fast and slow states on its own.
A probe is a small process pinned to one CPU that times a fixed
pure-Python loop (dict and integer work, no ``repro`` code) every
:data:`PROBE_INTERVAL_S`, about 1% of that CPU.  :meth:`Probes.factor`
turns the samples taken during a measured interval into the factor
that scales the interval's times to the loop's nominal speed.  A
``repro`` change cannot move the loop, so scaled times compare across
runs made while the host was faster or slower.

Run as a script (``python3 hostspeed.py CPU``) this module is the probe:
it samples until SIGTERM, then prints its samples as JSON.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from typing import Iterable, List, Optional

#: Loop iterations per sample.
LOOP_ITERATIONS = 3000
#: Nominal seconds of one loop: its time on an uncontended core of the
#: 2-CPU x86-64 host the benchmark was built on (Python 3.11).
NOMINAL_LOOP_S = 0.0006
PROBE_INTERVAL_S = 0.05


def _loop() -> int:
    table = {}
    acc = 0
    for i in range(LOOP_ITERATIONS):
        table[i & 255] = acc
        acc = (acc + table.get((i * 7) & 255, 1) * 3) & 0xFFFFFF
    return acc


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    stopping: List[int] = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(1))
    samples = []
    while not stopping:
        started = time.perf_counter()
        _loop()
        samples.append((time.monotonic(), time.perf_counter() - started))
        time.sleep(PROBE_INTERVAL_S)
    print(json.dumps(samples))


class Probes:
    """One probe process per CPU in ``cpus``, sampling until :meth:`stop`."""

    def __init__(self, cpus: Iterable[int]):
        self.samples: List[List[float]] = []
        self._times: List[float] = []
        self._cumulative: List[float] = [0.0]
        self._procs = [subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdout=subprocess.PIPE) for cpu in cpus]

    def stop(self) -> None:
        for proc in self._procs:
            proc.send_signal(signal.SIGTERM)
        for proc in self._procs:
            try:
                out, _ = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                continue
            if proc.returncode == 0:
                self.samples += json.loads(out)
        self._procs = []
        self.samples.sort()
        self._times = [t for t, _ in self.samples]
        self._cumulative = [0.0] + list(
            itertools.accumulate(s for _, s in self.samples))

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def factor(self, start: float, end: float,
               default: Optional[float] = None) -> float:
        """Nominal over mean loop time of the samples in [start, end]
        (monotonic seconds): scales measured times to nominal speed.

        ``default`` answers an interval too short to hold a sample.
        """
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        if hi == lo:
            if default is None:
                raise RuntimeError("no host-speed samples in the interval")
            return default
        total = self._cumulative[hi] - self._cumulative[lo]
        return NOMINAL_LOOP_S * (hi - lo) / total


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
