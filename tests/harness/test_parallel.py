"""Parallel sweep execution and the persistent result cache."""

import dataclasses
import os
import pickle

import pytest

from repro import __version__
from repro.harness import parallel
from repro.harness.parallel import (
    RESULT_CACHE_SCHEMA,
    DiskResultCache,
    SweepPoint,
    point_key,
    program_fingerprint,
    resolve_cache,
    run_point,
    run_points,
)
from repro.harness.runner import SafeRunOutcome, run_kernel_safe
from repro.kernels import KERNELS

POINT = SweepPoint("gemm", "float16", "scalar")
SMALL = [
    SweepPoint("gemm", "float16", "scalar"),
    SweepPoint("gemm", "float8", "auto"),
    SweepPoint("atax", "float16", "auto"),
]


def test_fingerprint_distinguishes_programs():
    base = program_fingerprint("gemm", "float16", "scalar")
    assert program_fingerprint("gemm", "float16", "scalar") == base
    assert program_fingerprint("gemm", "float8", "scalar") != base
    assert program_fingerprint("gemm", "float16", "auto") != base
    assert program_fingerprint("atax", "float16", "scalar") != base


def test_point_key_covers_compile_opts(monkeypatch):
    # A spec whose compile options change compiles another program, so
    # its cached points must miss.
    point = SweepPoint("nn_mlp_fwd", "float8", "auto")
    spec = KERNELS[point.name]
    assert spec.compile_opts
    monkeypatch.setattr(parallel, "_FINGERPRINTS", {})
    before = point_key(point)
    monkeypatch.setitem(KERNELS, point.name,
                        dataclasses.replace(spec, compile_opts={}))
    monkeypatch.setattr(parallel, "_FINGERPRINTS", {})
    assert point_key(point) != before


def test_point_key_covers_config():
    assert point_key(POINT) == point_key(SweepPoint(*POINT))
    assert point_key(POINT) != point_key(POINT._replace(mem_latency=3))
    assert point_key(POINT) != point_key(POINT._replace(seed=1))
    assert point_key(POINT) != point_key(
        POINT._replace(instruction_budget=1000))


def test_disk_cache_roundtrip(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    assert cache.get(POINT) is None
    assert cache.misses == 1
    outcome = SafeRunOutcome(status="error", detail="synthetic")
    cache.put(POINT, outcome)
    loaded = cache.get(POINT)
    assert loaded is not None
    assert loaded.status == "error" and loaded.detail == "synthetic"
    assert cache.hits == 1


def test_disk_cache_quarantines_corrupt_entry(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    cache.put(POINT, SafeRunOutcome(status="error", detail="x"))
    path = cache.path_for(POINT)
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    assert cache.get(POINT) is None
    assert not os.path.exists(path)  # never served or re-parsed again
    assert os.path.exists(path + ".corrupt")  # kept for post-mortems
    assert cache.quarantined == 1
    # The quarantined file does not shadow the slot: a fresh write
    # lands on the original path and is served again.
    cache.put(POINT, SafeRunOutcome(status="error", detail="fresh"))
    assert cache.get(POINT).detail == "fresh"


def test_disk_cache_quarantines_truncated_entry(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    cache.put(POINT, SafeRunOutcome(status="error", detail="x"))
    path = cache.path_for(POINT)
    with open(path, "rb") as handle:
        whole = handle.read()
    with open(path, "wb") as handle:
        handle.write(whole[: len(whole) // 2])  # torn mid-pickle
    assert cache.get(POINT) is None
    assert os.path.exists(path + ".corrupt")
    assert cache.quarantined == 1 and cache.misses == 1


def test_disk_cache_rejects_schema_mismatch(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    payload = {"schema": RESULT_CACHE_SCHEMA + 1, "version": __version__,
               "point": tuple(POINT),
               "outcome": SafeRunOutcome(status="error", detail="old")}
    with open(cache.path_for(POINT), "wb") as handle:
        pickle.dump(payload, handle)
    assert cache.get(POINT) is None


def test_disk_cache_schema_1_entry_misses(tmp_path):
    # Schema 1 entries pickled each run with its lint findings; a
    # current reader must recompute rather than load that layout.
    point = SweepPoint("gemm", "float16", "auto")
    cache = DiskResultCache(str(tmp_path))
    payload = {"schema": 1, "version": __version__, "point": tuple(point),
               "outcome": run_kernel_safe(KERNELS["gemm"], "float16",
                                          "auto", params={"n": 4})}
    with open(cache.path_for(point), "wb") as handle:
        pickle.dump(payload, handle)
    assert cache.get(point) is None
    assert cache.misses == 1 and cache.hits == 0


def test_disk_cache_migration_stale_version_misses(tmp_path):
    # Plant a well-formed entry as an older simulator version would
    # have written it (same key path, older version stamp): it must
    # miss, not be served as a current result.
    cache = DiskResultCache(str(tmp_path))
    payload = {"schema": RESULT_CACHE_SCHEMA, "version": "0.0.1",
               "point": tuple(POINT),
               "outcome": SafeRunOutcome(status="error", detail="stale")}
    with open(cache.path_for(POINT), "wb") as handle:
        pickle.dump(payload, handle)
    assert cache.get(POINT) is None
    assert cache.misses == 1 and cache.hits == 0
    # Stale entries are left in place (only *corrupt* files are
    # quarantined) and a recompute overwrites them.
    assert os.path.exists(cache.path_for(POINT))
    cache.put(POINT, SafeRunOutcome(status="error", detail="current"))
    assert cache.get(POINT).detail == "current"


def _hammer_cache(root, writer_index, iterations):
    """Child-process body: concurrent puts/gets against one directory."""
    cache = DiskResultCache(root)
    shared = SweepPoint("gemm", "float16", "scalar")
    private = SweepPoint("gemm", "float16", "scalar", seed=writer_index)
    for i in range(iterations):
        cache.put(shared, SafeRunOutcome(
            status="error", detail=f"w{writer_index}-{i}"))
        cache.put(private, SafeRunOutcome(
            status="error", detail=f"private-{writer_index}"))
        loaded = cache.get(shared)
        # A concurrent reader sees a complete entry or nothing -- a
        # torn read would quarantine and bump this counter.
        if loaded is None or cache.quarantined:
            os._exit(1)
    os._exit(0)


def test_disk_cache_two_writer_processes(tmp_path):
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_hammer_cache,
                         args=(str(tmp_path), index, 40))
             for index in (1, 2)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60.0)
        assert proc.exitcode == 0

    # The directory is clean afterwards: final entries readable, no
    # staging files or quarantined casualties left behind.
    cache = DiskResultCache(str(tmp_path))
    shared = cache.get(SweepPoint("gemm", "float16", "scalar"))
    assert shared is not None and shared.detail.startswith("w")
    for writer_index in (1, 2):
        private = cache.get(SweepPoint("gemm", "float16", "scalar",
                                       seed=writer_index))
        assert private.detail == f"private-{writer_index}"
    assert cache.quarantined == 0
    assert not [name for name in os.listdir(str(tmp_path))
                if name.endswith((".tmp", ".corrupt"))]


def test_disk_cache_reaps_stale_tmp(tmp_path):
    import time

    old = tmp_path / "deadbeef.tmp"
    old.write_bytes(b"orphaned write")
    stale_when = time.time() - 10_000
    os.utime(old, (stale_when, stale_when))
    fresh = tmp_path / "cafef00d.tmp"
    fresh.write_bytes(b"in-flight write")

    cache = DiskResultCache(str(tmp_path))
    assert cache.reaped_stale == 1
    assert not old.exists()       # orphan from a SIGKILL'd writer
    assert fresh.exists()         # racing live writer left alone
    # Final entries are never touched by the reaper.
    cache.put(POINT, SafeRunOutcome(status="error", detail="kept"))
    again = DiskResultCache(str(tmp_path))
    assert again.get(POINT).detail == "kept"


def test_point_key_covers_version_salt(monkeypatch):
    base = point_key(POINT)
    monkeypatch.setattr("repro.harness.parallel.CACHE_VERSION_SALT",
                        "repro-0.0.1/schema-0")
    assert point_key(POINT) != base


def test_run_point_matches_run_points():
    single = run_point(POINT)
    swept = run_points([POINT])[POINT]
    assert single.status == swept.status == "ok"
    assert single.run.trace.cycles == swept.run.trace.cycles
    assert single.run.trace.instret == swept.run.trace.instret


def test_run_point_overrides_budget():
    outcome = run_point(SweepPoint("gemm", "float16", "auto"),
                        max_instructions=100)
    assert outcome.status == "budget_exceeded"


def test_resolve_cache_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    assert resolve_cache(None) is None
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
    cache = resolve_cache(None)
    assert cache is not None and cache.root == str(tmp_path)
    explicit = resolve_cache(str(tmp_path / "sub"))
    assert explicit.root == str(tmp_path / "sub")


def test_run_points_serial_results():
    results = run_points(SMALL, jobs=1)
    assert set(results) == set(SMALL)
    for point, outcome in results.items():
        assert outcome.status == "ok", (point, outcome.detail)
        assert outcome.run is not None


def test_run_points_dedups_and_streams():
    seen = []
    results = run_points(SMALL + SMALL, jobs=1,
                         on_result=lambda p, o: seen.append(p))
    assert len(results) == len(SMALL)
    assert sorted(seen) == sorted(SMALL)  # one callback per unique point


def test_run_points_parallel_matches_serial(tmp_path):
    serial = run_points(SMALL, jobs=1)
    parallel = run_points(SMALL, jobs=2)
    for point in SMALL:
        a, b = serial[point], parallel[point]
        assert a.status == b.status == "ok"
        assert a.run.trace.cycles == b.run.trace.cycles
        assert a.run.trace.instret == b.run.trace.instret
        assert (list(a.run.trace.by_mnemonic.items())
                == list(b.run.trace.by_mnemonic.items()))


def test_run_points_disk_cache_hit(tmp_path):
    cache = DiskResultCache(str(tmp_path))
    first = run_points(SMALL, cache=cache)
    assert cache.hits == 0
    again = run_points(SMALL, cache=cache)
    assert cache.hits == len(SMALL)
    for point in SMALL:
        assert first[point].run.trace.cycles == again[point].run.trace.cycles


def test_prewarm_populates_memo():
    from repro.harness import experiments as E

    E.clear_cache()
    computed = E.prewarm([("gemm", "float16", "scalar", 1, 0, 50_000_000)])
    assert computed == 1
    # A second prewarm finds the memoized row and computes nothing.
    assert E.prewarm([("gemm", "float16", "scalar", 1, 0, 50_000_000)]) == 0
