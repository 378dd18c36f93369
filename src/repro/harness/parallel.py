"""Parallel sweep execution and a persistent per-point result cache.

Every figure and table of the reproduction is a sweep over (benchmark,
FP type, vectorization mode, memory latency, seed, budget) points, and
each point is independent: the drivers in :mod:`repro.harness.experiments`
only combine finished :class:`~repro.harness.runner.SafeRunOutcome`
records.  This module exploits that two ways:

* :func:`run_points` fans a point list out over a
  ``multiprocessing`` pool, worker-per-point.  Crash isolation is
  preserved -- each worker wraps the point in
  :func:`~repro.harness.runner.run_kernel_safe` (and a belt-and-braces
  ``except`` around the whole worker), so a trapping, runaway, or
  host-crashing configuration comes back as a status row, never as a
  dead sweep.

* :class:`DiskResultCache` persists finished outcomes on disk, keyed by
  ``(program hash, config, schema version)``.  The program hash covers
  the generated kernel source (so editing a kernel or the compiler's
  input invalidates its points) and the config covers every knob that
  feeds the run.  Figures, benchmarks and repeated CLI invocations in
  different processes share points through it.

The cache stores pickled outcomes (full traces and output arrays, no
lint findings -- a few kilobytes per point).  Treat a cache directory
like any other local build artifact: it is keyed and validated, but not
tamper-proof, so do not point the harness at an untrusted one.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .. import __version__
from ..kernels import KERNELS
from .runner import (HarnessError, SafeRunOutcome, classify_run,
                     compile_inputs, run_kernel_batch, run_kernel_safe)

#: Bump when the pickled payload layout (or anything it transitively
#: contains) changes shape; old entries then miss instead of
#: deserializing into the wrong schema.  Schema 2: runs carry no lint
#: findings.
RESULT_CACHE_SCHEMA = 2

#: Version salt mixed into every fingerprint, key and payload.  A
#: cached outcome embeds simulator behaviour (timing model, FP
#: rounding, energy constants), not just the program, so entries
#: written by an older package version must miss rather than be served
#: as current results.
CACHE_VERSION_SALT = f"repro-{__version__}/schema-{RESULT_CACHE_SCHEMA}"

#: Environment variable naming a default cache directory; unset means
#: no persistent cache unless one is passed explicitly.
CACHE_DIR_ENV = "REPRO_RESULT_CACHE"

#: A ``*.tmp`` staging file older than this is an orphan -- its writer
#: was killed between ``mkstemp`` and the atomic rename -- and is
#: reaped on cache construction.  Generous: no legitimate write holds
#: a temp file for minutes.
STALE_TMP_SECONDS = 600.0


class SweepPoint(NamedTuple):
    """One sweep configuration (the in-memory memo key, made explicit)."""

    name: str
    ftype: str
    mode: str
    mem_latency: int = 1
    seed: int = 0
    instruction_budget: int = 50_000_000


_FINGERPRINTS: Dict[Tuple[str, str, str], str] = {}


def program_fingerprint(name: str, ftype: str, mode: str) -> str:
    """Hash of the kernel program a point will compile and run.

    Covers the compile inputs the run uses
    (:func:`~repro.harness.runner.compile_inputs`: generated source,
    vectorization and the spec's compile options), the mode and the
    kernel's default parameters -- so a change to a kernel generator,
    its options or its sizing invalidates exactly that kernel's cached
    points.  Memoized: sweeps ask per point but sources only vary per
    (kernel, type, mode).
    """
    key = (name, ftype, mode)
    cached = _FINGERPRINTS.get(key)
    if cached is not None:
        return cached
    spec = KERNELS[name]
    try:
        inputs = compile_inputs(spec, ftype, mode)
    except HarnessError as exc:  # the point's outcome is this error
        inputs = (f"<{exc}>",)
    digest = hashlib.sha256()
    digest.update(f"{CACHE_VERSION_SALT}\n".encode())
    digest.update(inputs[0].encode())
    digest.update(repr(("mode", mode, "params", sorted(spec.params.items()),
                        "opts", inputs[1:])).encode())
    fingerprint = digest.hexdigest()
    _FINGERPRINTS[key] = fingerprint
    return fingerprint


def point_key(point: SweepPoint) -> str:
    """Stable cache key: program hash + config + version/schema salt."""
    digest = hashlib.sha256()
    digest.update(f"salt={CACHE_VERSION_SALT}\n".encode())
    digest.update(program_fingerprint(
        point.name, point.ftype, point.mode).encode())
    digest.update(repr(tuple(point)).encode())
    return digest.hexdigest()


class DiskResultCache:
    """Persistent point store: one pickled outcome file per key.

    Writes are atomic (temp file + ``os.replace``), so concurrent
    sweeps sharing a directory -- including multiple *processes*, e.g.
    the serving fleet's workers and a co-resident CLI sweep -- can only
    ever observe complete entries; the worst case for a racing write of
    the same point is one wasted computation, never a torn file.
    Orphaned staging files left by SIGKILL'd writers are reaped on
    attach (see :meth:`_reap_stale`).  Unreadable entries (truncated or
    corrupt files) are quarantined aside as ``*.corrupt`` -- kept for
    post-mortems, never re-read -- and treated as misses; well-formed
    entries written by a different package version or payload schema
    miss without being touched.
    """

    def __init__(self, root: str, stale_tmp_seconds: float =
                 STALE_TMP_SECONDS):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.reaped_stale = 0
        self._reap_stale(stale_tmp_seconds)

    def _reap_stale(self, max_age_seconds: float) -> None:
        """Remove orphaned write-staging files (killed writers).

        A SIGKILL between ``mkstemp`` and ``os.replace`` leaves a
        ``*.tmp`` behind.  It can never be served (``get`` only reads
        final names), but a fleet of crash-prone writers would slowly
        fill the directory, so each cache attach sweeps temp files
        older than the stale threshold.  Races with a live writer are
        benign: only files comfortably older than any real write are
        touched, and a concurrent reap losing ``os.remove`` is ignored.
        """
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        now = time.time()
        for name in names:
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(self.root, name)
            try:
                if now - os.path.getmtime(path) > max_age_seconds:
                    os.remove(path)
                    self.reaped_stale += 1
            except OSError:
                pass  # already reaped by a sibling, or racing writer won

    def path_for(self, point: SweepPoint) -> str:
        return os.path.join(self.root, point_key(point) + ".pkl")

    def _quarantine(self, path: str) -> None:
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass
        self.quarantined += 1

    def get(self, point: SweepPoint) -> Optional[SafeRunOutcome]:
        path = self.path_for(point)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Torn, truncated, or undeserializable entry: set it aside
            # so it can never be served (or re-parsed) again.
            self._quarantine(path)
            self.misses += 1
            return None
        if (not isinstance(payload, dict)
                or payload.get("schema") != RESULT_CACHE_SCHEMA
                or payload.get("version") != __version__
                or payload.get("point") != tuple(point)):
            # Stale (older simulator version) or mis-keyed entry.  The
            # key already covers the salt, so this is belt and braces
            # for planted/migrated directories.
            self.misses += 1
            return None
        self.hits += 1
        return payload["outcome"]

    def put(self, point: SweepPoint, outcome: SafeRunOutcome) -> None:
        payload = {
            "schema": RESULT_CACHE_SCHEMA,
            "version": __version__,
            "point": tuple(point),
            "outcome": outcome,
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self.path_for(point))
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise


def default_cache_dir() -> Optional[str]:
    """The :data:`CACHE_DIR_ENV` directory, or ``None`` (cache off)."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return value or None


def resolve_cache(cache_dir: Optional[str]) -> Optional[DiskResultCache]:
    """Build the disk cache for an explicit directory or the env default."""
    root = cache_dir if cache_dir is not None else default_cache_dir()
    return DiskResultCache(root) if root else None


# ----------------------------------------------------------------------
# Worker-per-point execution
# ----------------------------------------------------------------------
def run_point(point: SweepPoint, **overrides) -> SafeRunOutcome:
    """Run one sweep point crash-isolated, in the calling process.

    This is the worker body of :func:`run_points`, exposed for callers
    (the serving layer, ad-hoc scripts) that manage their own
    scheduling.  ``overrides`` are passed through to
    :func:`~repro.harness.runner.run_kernel_safe` -- notably
    ``max_instructions`` (a deadline-derived budget cap) and
    ``profile``.
    """
    kwargs = dict(
        mem_latency=point.mem_latency, seed=point.seed,
        max_instructions=point.instruction_budget,
    )
    kwargs.update(overrides)
    return run_kernel_safe(KERNELS[point.name], point.ftype, point.mode,
                           **kwargs)


def _worker(point_tuple: Tuple) -> Tuple[Tuple, SafeRunOutcome]:
    """Pool entry point; must stay module-level (pickled by name)."""
    point = SweepPoint(*point_tuple)
    try:
        return point_tuple, run_point(point)
    except BaseException as exc:  # belt and braces: never kill the sweep
        return point_tuple, SafeRunOutcome(
            status="error", detail=f"worker: {type(exc).__name__}: {exc}")


def lockstep_groups(points: Iterable[SweepPoint],
                    min_width: int = 2) -> List[List[SweepPoint]]:
    """Group points that can share one lockstep instruction stream.

    Compatible points differ only in ``seed``: same kernel, FP type,
    vectorization mode, memory latency and budget all compile to the
    same program and timing model.  Groups narrower than ``min_width``
    are returned as singletons (scalar path).
    """
    by_stream: Dict[Tuple, List[SweepPoint]] = {}
    for point in points:
        key = (point.name, point.ftype, point.mode, point.mem_latency,
               point.instruction_budget)
        by_stream.setdefault(key, []).append(point)
    groups: List[List[SweepPoint]] = []
    for members in by_stream.values():
        if len(members) >= min_width:
            groups.append(members)
        else:
            groups.extend([m] for m in members)
    return groups


def run_group_lockstep(group: List[SweepPoint],
                       **overrides) -> Dict[SweepPoint, SafeRunOutcome]:
    """Run one compatible group batched, crash-isolated.

    Returns an outcome per point; a host-side error in the batched
    engine is folded into per-point ``error`` outcomes the same way
    :func:`run_point` folds scalar ones (callers may then retry the
    points individually on the scalar path).
    """
    head = group[0]
    kwargs = dict(mem_latency=head.mem_latency,
                  max_instructions=head.instruction_budget,
                  seeds=[p.seed for p in group], trap_ok=True)
    kwargs.update(overrides)
    try:
        runs = run_kernel_batch(KERNELS[head.name], head.ftype, head.mode,
                                **kwargs)
        return {p: classify_run(run) for p, run in zip(group, runs)}
    except BaseException as exc:
        detail = f"lockstep: {type(exc).__name__}: {exc}"
        return {p: SafeRunOutcome(status="error", detail=detail)
                for p in group}


def run_points(
    points: Iterable[SweepPoint],
    jobs: int = 1,
    cache: Optional[DiskResultCache] = None,
    on_result: Optional[Callable[[SweepPoint, SafeRunOutcome], None]] = None,
    lockstep: int = 0,
) -> Dict[SweepPoint, SafeRunOutcome]:
    """Compute every point, in parallel when ``jobs > 1``.

    Duplicate points are collapsed; disk-cached points are served
    without spawning a worker.  ``on_result`` fires once per unique
    point as its outcome lands (cached points first), letting callers
    stream progress.  The returned dict covers every requested point.

    ``lockstep >= 2`` turns on batched execution: uncached points that
    differ only in seed share one lockstep run of up to ``lockstep``
    lanes (bit-identical per point to the scalar path).  Points whose
    batch errors out host-side fall back to the scalar path, and
    left-over singleton points use the normal worker pool.
    """
    unique: List[SweepPoint] = []
    seen = set()
    for point in points:
        point = SweepPoint(*point)
        if point not in seen:
            seen.add(point)
            unique.append(point)

    results: Dict[SweepPoint, SafeRunOutcome] = {}
    pending: List[SweepPoint] = []
    for point in unique:
        cached = cache.get(point) if cache is not None else None
        if cached is not None:
            results[point] = cached
            if on_result is not None:
                on_result(point, cached)
        else:
            pending.append(point)

    def finish(point: SweepPoint, outcome: SafeRunOutcome) -> None:
        results[point] = outcome
        if cache is not None:
            cache.put(point, outcome)
        if on_result is not None:
            on_result(point, outcome)

    if lockstep >= 2 and len(pending) > 1:
        leftover: List[SweepPoint] = []
        for group in lockstep_groups(pending):
            if len(group) < 2:
                leftover.extend(group)
                continue
            for chunk_at in range(0, len(group), lockstep):
                chunk = group[chunk_at:chunk_at + lockstep]
                if len(chunk) < 2:
                    leftover.extend(chunk)
                    continue
                for point, outcome in run_group_lockstep(chunk).items():
                    if outcome.status == "error":
                        leftover.append(point)  # scalar-path retry
                    else:
                        finish(point, outcome)
        pending = leftover

    if jobs <= 1 or len(pending) <= 1:
        for point in pending:
            finish(point, run_point(point))
        return results

    import multiprocessing

    jobs = min(jobs, len(pending))
    # Fork keeps warm imports; repro.harness.experiments registers an
    # at-fork hook that clears its in-process memo in the child, so
    # workers never serve (or mutate) rows owned by the parent.
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    with ctx.Pool(processes=jobs) as pool:
        for point_tuple, outcome in pool.imap_unordered(
                _worker, [tuple(p) for p in pending]):
            finish(SweepPoint(*point_tuple), outcome)
    return results
