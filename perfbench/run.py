"""The repo benchmark: one command, three workloads, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig1_sweep --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer ones (see perfbench/README.md for what
each means and which end-to-end metric it should move).  Times are
scaled to nominal host speed with the probes of ``hostspeed.py``.
Every point a run produces is compared with the reference interpreter;
the last stdout line is ``{"correct", "attempted", "failed",
"metrics"}`` and the exit code is non-zero when any check fails.

Sweep passes run in fresh interpreters (``sweep_child.py``); serving
runs ``python -m repro serve`` as a subprocess driven over loopback
HTTP.  Scratch files, result rows and Chrome traces go to
``.bench_build/perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import hostspeed
import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: Fewest sweep passes per run, so medians have something to choose.
MIN_PASSES = 3
#: Fewest latency samples per untraced run: at least 10 lie beyond p95.
MIN_LATENCY_SAMPLES = 200
#: Extra server boots per serve run, for the setup_s median.
SERVE_EXTRA_BOOTS = 2
CHILD_TIMEOUT_S = 150.0
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
SWEEP_POLL_S = 0.02
#: Time the host-speed probes get to take their first samples.
PROBE_WARMUP_S = 0.2


class BenchError(RuntimeError):
    """The benchmark could not run (not an output mismatch)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def check(observed: List[Tuple[Tuple, Optional[Dict]]]) -> Tuple[int, int]:
    """``(attempted, failed)`` of (point, digest) pairs vs the reference.

    A ``None`` digest is an operation that produced no result (an HTTP
    error or a missing point); it fails without a reference run.
    """
    reference = oracle.reference_digests(
        point for point, got in observed if got is not None)
    failed = sum(got is None or oracle.mismatch(got, reference[point])
                 for point, got in observed)
    return len(observed), failed


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------
def sweep_pass(workload: str, seed: int, cpu: int,
               spans_out: Optional[str] = None) -> Dict:
    """One fresh-interpreter pass pinned to ``cpu``.

    Adds ``setup_s`` and the monotonic ``spawned`` time to the child's
    report.
    """
    cmd = [sys.executable, os.path.join(HERE, "sweep_child.py"), workload,
           str(seed)] + ([spans_out] if spans_out else [])
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        raise BenchError(f"sweep pass exited with {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result.update(setup_s=result["ready_monotonic"] - spawned,
                  spawned=spawned)
    if spans_out is not None:
        with open(spans_out) as handle:
            result["spans"] = json.load(handle)
        os.remove(spans_out)
    return result


def _sweep_metrics(passes: List[Dict], scaled: bool) -> Dict[str, float]:
    """End-to-end metrics over passes, host-scaled or raw."""
    def scales(result: Dict) -> Dict:
        if scaled:
            return result["scale"]
        return {"setup": 1.0, "pass": 1.0,
                "done": [1.0] * len(result["points"])}

    setups, rates, done_ms = [], [], []
    for result in passes:
        scale = scales(result)
        ok = sum(d["status"] == "ok" for _, d, _ in result["points"])
        setups.append(result["setup_s"] * scale["setup"])
        rates.append(ok / (result["wall_s"] * scale["pass"]))
        done_ms += [done_s * 1e3 * factor for (_, _, done_s), factor
                    in zip(result["points"], scale["done"])]
    return {
        "setup_s": _median(setups),
        "points_per_s": _median(rates),
        "latency_p50_ms": _percentile(done_ms, 50),
        "latency_p95_ms": _percentile(done_ms, 95),
        "peak_rss_mb": _median([r["maxrss_kb"] / 1024 for r in passes]),
    }


def _pass_scales(result: Dict, probes: hostspeed.Probes) -> Dict:
    """Host factors of a pass's setup, its whole run and each point's
    wait (pass start to completion)."""
    ready = result["ready_monotonic"]
    whole = probes.factor(ready, ready + result["wall_s"])
    return {"setup": probes.factor(result["spawned"], ready),
            "pass": whole,
            "done": [probes.factor(ready, ready + done_s, default=whole)
                     for _, _, done_s in result["points"]]}


def run_sweep(workload: str, seed: int, seconds: float,
              trace: bool) -> Dict:
    """Fresh-interpreter passes until ``seconds`` pass (and at least
    :data:`MIN_PASSES` and, untraced, :data:`MIN_LATENCY_SAMPLES`);
    with ``trace``, every other pass is traced."""
    expected = len(workloads.sweep_points(workload, seed)[0])
    cpu = min(os.sched_getaffinity(0))
    passes: List[Tuple[Dict, bool]] = []

    def more() -> bool:
        few_samples = not trace and \
            len(passes) * expected < MIN_LATENCY_SAMPLES
        return (len(passes) < MIN_PASSES or few_samples
                or time.monotonic() - begin < seconds)

    with hostspeed.Probes([cpu]) as probes:
        time.sleep(PROBE_WARMUP_S)
        begin = time.monotonic()
        while more():
            traced = trace and len(passes) % 2 == 1
            spans_out = (os.path.join(
                OUT_DIR, f"spans-{workload}-{seed}-{len(passes)}.json")
                if traced else None)
            passes.append((sweep_pass(workload, seed, cpu, spans_out),
                           traced))
    for result, _ in passes:
        result["scale"] = _pass_scales(result, probes)

    observed: List[Tuple[Tuple, Optional[Dict]]] = []
    for result, _ in passes:
        got = [(tuple(p), d) for p, d, _ in result["points"]]
        observed += got + [((), None)] * (expected - len(got))
    attempted, failed = check(observed)

    plain = [r for r, traced in passes if not traced]
    out = {
        "attempted": attempted, "failed": failed,
        "samples": {"passes": len(plain),
                    "latency": sum(len(r["points"]) for r in plain),
                    "host_speed": len(probes.samples)},
        "host_factor": _median([r["scale"]["pass"] for r in plain]),
        "raw": _sweep_metrics(plain, scaled=False),
        "metrics": _sweep_metrics(plain, scaled=True),
    }
    if trace:
        traced = [r for r, t in passes if t]
        per_pass = [spans.layer_metrics(r["spans"], r["scale"]["pass"])
                    for r in traced]
        layers = {name: _mean([m[name] for m in per_pass])
                  for name in per_pass[0]}
        layers.update(_trace_metrics(
            layers,
            _mean([r["wall_s"] * r["scale"]["pass"] for r in traced]),
            _mean([r["wall_s"] * r["scale"]["pass"] for r in plain]),
            _mean([len(r["spans"]) for r in traced])))
        layers.update({name: 0.0 for name in SERVE_ONLY})
        out["layers"] = layers
        out["trace_file"] = _write_trace(
            workload, seed, [r["spans"] for r in traced])
    return out


def _trace_metrics(layers: Dict[str, float], traced_wall: float,
                   plain_wall: float, span_count: float) -> Dict:
    return {
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.unattributed_s": traced_wall - spans.attributed_seconds(
            layers),
        "trace.spans": span_count,
    }


def _write_trace(workload: str, seed: int, dumps: List[List[Dict]]) -> str:
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(spans.chrome_trace(
            dumps, {"workload": workload, "seed": seed}), handle)
    return os.path.relpath(path, ROOT)


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
SERVE_ONLY = ("serve.cache_hit_rate", "serve.served_cache",
              "serve.served_executed", "serve.served_coalesced",
              "serve.latency_cache_p50_ms", "serve.latency_executed_p50_ms",
              "serve.latency_coalesced_p50_ms", "serve.sweep_job_s_p50",
              "serve.lockstep_batches", "serve.lockstep_mean_width",
              "serve.lockstep_fallbacks", "serve.shed")


def _call(conn: http.client.HTTPConnection, method: str, path: str,
          body: Optional[Dict] = None) -> Tuple[int, Dict]:
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode())


class Server:
    """One ``repro serve`` subprocess with a fresh cache directory."""

    def __init__(self, tag: str, spans_out: Optional[str] = None):
        self.cache_dir = os.path.join(OUT_DIR, f"serve-cache-{tag}")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        flags = ["serve", "--port", "0", "--cache-dir", self.cache_dir]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro"] + flags
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   spans_out] + flags
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     env=_child_env(), cwd=ROOT)
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.ready = time.monotonic()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        found = re.search(r"http://[^:]+:(\d+)", line)
        if found is None:
            raise BenchError(f"repro serve did not start: {line!r}")
        return int(found.group(1))

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                if _call(conn, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise BenchError("repro serve never answered /healthz")

    def metrics(self) -> Dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            return _call(conn, "GET", "/metrics")[1]
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns peak RSS in KiB."""
        maxrss = 0
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    maxrss = usage.ru_maxrss
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    self.proc.wait()
                    break
                time.sleep(0.02)
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return maxrss


def _point_body(point: Tuple) -> Dict:
    return {"kernel": point[0], "ftype": point[1],
            "mode": point[2], "mem_latency": point[3], "seed": point[4],
            "instruction_budget": point[5]}


def _kernel_op(conn, point: Tuple) -> Dict:
    started = time.perf_counter()
    status, payload = _call(conn, "POST", "/v1/kernel",
                            dict(_point_body(point), schema=1))
    latency_ms = (time.perf_counter() - started) * 1e3
    digest = (oracle.digest_from_payload(payload["result"])
              if status == 200 else None)
    return {"kind": "kernel", "latency_ms": latency_ms, "http": status,
            "served_from": payload.get("served_from"),
            "points": [(point, digest)]}


def _sweep_op(conn, points: List[Tuple]) -> Dict:
    started = time.perf_counter()
    status, payload = _call(conn, "POST", "/v1/sweep",
                            {"schema": 1,
                             "points": [_point_body(p) for p in points]})
    digests: List[Optional[Dict]] = [None] * len(points)
    if status == 202:
        poll = f"/v1/jobs/{payload['job_id']}"
        while True:
            status, payload = _call(conn, "GET", poll)
            if status != 200 or payload["status"] == "done":
                break
            time.sleep(SWEEP_POLL_S)
        for index, row in enumerate(payload.get("results", [])):
            if "result" in row:
                digests[index] = oracle.digest_from_payload(row["result"])
    return {"kind": "sweep", "job_s": time.perf_counter() - started,
            "http": status, "points": list(zip(points, digests))}


def drive(port: int, schedule: List[List[Dict]],
          seconds: Optional[float] = None,
          counts: Optional[List[int]] = None,
          ) -> Tuple[List[List[Dict]], float, float]:
    """Closed loop: one connection per client, each waits for replies.

    Clients run for ``seconds`` or, when replaying, through their first
    ``counts`` operations.  Returns every operation record per client
    and the window's monotonic start and end.
    """
    records: List[List[Dict]] = [[] for _ in schedule]
    errors: List[BaseException] = []

    def client(index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=REQUEST_TIMEOUT_S)
        done = records[index]
        limit = len(schedule[index]) if counts is None else counts[index]
        try:
            while len(done) < limit:
                if counts is None and time.monotonic() >= deadline:
                    break
                op = schedule[index][len(done)]
                op_started = time.perf_counter()
                try:
                    if op["kind"] == "kernel":
                        record = _kernel_op(conn, op["point"])
                    else:
                        record = _sweep_op(conn, op["points"])
                except (OSError, http.client.HTTPException, ValueError):
                    conn.close()  # the next request reconnects
                    points = op.get("points") or [op["point"]]
                    elapsed = time.perf_counter() - op_started
                    record = {"kind": op["kind"], "http": 0,
                              "latency_ms": elapsed * 1e3,
                              "job_s": elapsed,
                              "served_from": None,
                              "points": [(p, None) for p in points]}
                done.append(record)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            conn.close()

    started = time.monotonic()
    deadline = started + (seconds or 0.0)
    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(schedule))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.monotonic()
    if errors:
        raise BenchError(f"serve client failed: {errors[0]!r}")
    return records, started, ended


def _flatten(records: List[List[Dict]]) -> List[Dict]:
    return [record for client in records for record in client]


def _serve_metrics(ops: List[Dict], window: float, setups: List[float],
                   maxrss_kb: int, factor: float) -> Dict[str, float]:
    """End-to-end metrics of one window; its times scaled by ``factor``.

    Latencies take the window's factor: a single request is too short
    to hold enough host-speed samples of its own.
    """
    ok_points = sum(d is not None and d["status"] == "ok"
                    for op in ops for _, d in op["points"])
    latency = [op["latency_ms"] * factor for op in ops
               if op["kind"] == "kernel"]
    return {"setup_s": _median(setups),
            "points_per_s": ok_points / (window * factor),
            "latency_p50_ms": _percentile(latency, 50),
            "latency_p95_ms": _percentile(latency, 95),
            "peak_rss_mb": maxrss_kb / 1024}


def _serve_layers(ops: List[Dict], snapshot: Dict, factor: float) -> Dict:
    def p50(source):
        return _percentile([op["latency_ms"] * factor for op in ops
                            if op["kind"] == "kernel"
                            and op["served_from"] == source], 50)

    lockstep = snapshot["lockstep"]
    return {
        "serve.cache_hit_rate": snapshot["cache"]["hit_rate"] or 0.0,
        "serve.served_cache": snapshot["served"].get("cache", 0),
        "serve.served_executed": snapshot["served"].get("executed", 0),
        "serve.served_coalesced": snapshot["served"].get("coalesced", 0),
        "serve.latency_cache_p50_ms": p50("cache"),
        "serve.latency_executed_p50_ms": p50("executed"),
        "serve.latency_coalesced_p50_ms": p50("coalesced"),
        "serve.sweep_job_s_p50": _percentile(
            [op["job_s"] * factor for op in ops if op["kind"] == "sweep"],
            50),
        "serve.lockstep_batches": lockstep["batches"],
        "serve.lockstep_mean_width": lockstep["mean_width"] or 0.0,
        "serve.lockstep_fallbacks": lockstep["fallbacks"],
        "serve.shed": snapshot["shed"],
    }


def run_serve(seed: int, seconds: float, trace: bool) -> Dict:
    schedule = workloads.serve_schedule(seed)
    tag = f"{seed}-{os.getpid()}"
    if trace:
        return _run_serve_traced(seed, seconds, schedule, tag)
    boots: List[Server] = []
    with hostspeed.Probes(sorted(os.sched_getaffinity(0))) as probes:
        time.sleep(PROBE_WARMUP_S)
        for boot in range(SERVE_EXTRA_BOOTS):
            boots.append(Server(f"{tag}-boot{boot}"))
            boots[-1].stop()
        server = Server(tag)
        boots.append(server)
        try:
            records, started, ended = drive(server.port, schedule,
                                            seconds=seconds)
        finally:
            maxrss = server.stop()
    ops = _flatten(records)
    attempted, failed = check([pair for op in ops for pair in op["points"]])
    factor = probes.factor(started, ended)
    setups = [b.ready - b.spawned for b in boots]
    scaled_setups = [(b.ready - b.spawned) * probes.factor(b.spawned, b.ready)
                     for b in boots]
    window = ended - started
    return {"attempted": attempted, "failed": failed,
            "samples": {"kernel_requests": sum(op["kind"] == "kernel"
                                               for op in ops),
                        "operations": len(ops), "boots": len(boots),
                        "host_speed": len(probes.samples)},
            "host_factor": factor,
            "raw": _serve_metrics(ops, window, setups, maxrss, 1.0),
            "metrics": _serve_metrics(ops, window, scaled_setups, maxrss,
                                      factor)}


def _run_serve_traced(seed: int, seconds: float, schedule: List[List[Dict]],
                      tag: str) -> Dict:
    """An untraced window, then the same requests replayed against a
    traced server; the wall difference is the tracing overhead."""
    spans_out = os.path.join(OUT_DIR, f"spans-serve_mixed-{tag}.json")
    with hostspeed.Probes(sorted(os.sched_getaffinity(0))) as probes:
        time.sleep(PROBE_WARMUP_S)
        plain = Server(f"{tag}-plain")
        try:
            plain_records, plain_start, plain_end = drive(
                plain.port, schedule, seconds=seconds / 2)
        finally:
            plain.stop()
        server = Server(f"{tag}-traced", spans_out=spans_out)
        try:
            records, started, ended = drive(
                server.port, schedule,
                counts=[len(c) for c in plain_records])
            snapshot = server.metrics()
        finally:
            server.stop()
    with open(spans_out) as handle:
        rows = json.load(handle)
    os.remove(spans_out)
    ops = _flatten(records)
    attempted, failed = check([pair for op in _flatten(plain_records) + ops
                               for pair in op["points"]])
    factor = probes.factor(started, ended)
    layers = spans.layer_metrics(rows, factor)
    layers.update(_trace_metrics(
        layers, (ended - started) * factor,
        (plain_end - plain_start) * probes.factor(plain_start, plain_end),
        len(rows)))
    layers.update(_serve_layers(ops, snapshot, factor))
    return {"attempted": attempted, "failed": failed,
            "samples": {"operations": len(ops)}, "layers": layers,
            "trace_file": _write_trace("serve_mixed", seed, [rows])}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def host_facts() -> Dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def report(spec: Dict, workload: str, seed: int, seconds: float,
           trace: bool, result: Dict) -> bool:
    """Print the table and the result line; append the result row."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layers"] if trace else result["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    attempted, failed = result["attempted"], result["failed"]
    row = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": int(trace), "host": host_facts(),
           "samples": result["samples"],
           "host_factor": result.get("host_factor"),
           "raw": result.get("raw"),
           "error_rate": {"value": failed / attempted, "unit": "ratio",
                          "failed": failed, "attempted": attempted},
           "metrics": metrics, "trace_file": result.get("trace_file")}
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(row) + "\n")

    print(f"== {workload} seed={seed} trace={int(trace)} "
          f"host={json.dumps(row['host'])}")
    raw = result.get("raw") or {}
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:>14.6g} {entry['unit']}"
              + (f"  (raw {raw[name]:.6g})" if name in raw else ""))
    if result.get("host_factor"):
        print(f"  host factor {result['host_factor']:.4f} "
              f"(nominal / measured host-speed probe loop time)")
    print(f"  {'error_rate':34s} {failed / attempted:>14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(f"  samples: {json.dumps(result['samples'])}")
    if result.get("trace_file"):
        print(f"  chrome trace: {result['trace_file']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return correct


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    chosen = (workloads.WORKLOADS if args.workload == "all"
              else (args.workload,))
    correct = True
    for workload in chosen:
        try:
            if workload in workloads.SWEEPS:
                result = run_sweep(workload, args.seed, args.seconds,
                                   bool(args.trace))
            else:
                result = run_serve(args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        correct &= report(spec, workload, args.seed, args.seconds,
                          bool(args.trace), result)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
