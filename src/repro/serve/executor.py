"""Bounded worker pool that drains the job queue.

Each worker thread pops the best ready job, enforces its deadline, and
runs the point crash-isolated via
:func:`repro.harness.parallel.run_point` (the same worker body the
parallel sweep harness uses), so a trapping or runaway guest comes
back as a status row -- never a dead server.

**Deadlines cancel via the instruction budget.**  The simulator's only
preemption mechanism is ``max_instructions``, so a wall-clock deadline
is translated into an instruction cap using a calibrated
guest-MIPS estimate (an EWMA over observed runs, seeded
conservatively).  When a run stops on a deadline-derived cap -- or its
deadline already passed while it sat in the queue -- the job resolves
as a structured timeout rather than a normal ``budget_exceeded``
outcome, and the result is *not* cached (it was produced under a
tighter budget than the request asked for).  :func:`settle` holds
these rules for both executors: the thread pool here and the fleet in
:mod:`repro.serve.fleet`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

from ..harness.parallel import (DiskResultCache, SweepPoint,
                                run_group_lockstep, run_point)
from ..harness.runner import SafeRunOutcome
from .jobs import Job, JobQueue
from .metrics import ServeMetrics

#: Guest-MIPS estimate before any run has been observed.  Deliberately
#: low: a pessimistic estimate under-caps the budget, which errs toward
#: honouring the wall-clock deadline.
DEFAULT_MIPS_ESTIMATE = 1.0

#: EWMA weight of the newest observation.
MIPS_EWMA_ALPHA = 0.25

#: Never cap a deadline budget below this many instructions -- enough
#: for the harness to produce a well-formed partial outcome.
MIN_DEADLINE_BUDGET = 1_000

#: Worker poll interval while idle (also the drain latency floor).
_POLL_SECONDS = 0.05


class MipsEstimator:
    """Shared EWMA of observed guest MIPS, for deadline -> budget maps.

    Both executors (the in-process thread pool here and the
    multi-process fleet in :mod:`repro.serve.fleet`) translate
    wall-clock deadlines into instruction caps through one of these.
    """

    def __init__(self, initial: float = DEFAULT_MIPS_ESTIMATE,
                 alpha: float = MIPS_EWMA_ALPHA):
        self._lock = threading.Lock()
        self._mips = initial
        self._alpha = alpha

    def estimate(self) -> float:
        with self._lock:
            return self._mips

    def observe(self, observed: float) -> None:
        if observed <= 0.0:
            return
        with self._lock:
            self._mips += self._alpha * (observed - self._mips)

    def budget_for(self, point: SweepPoint,
                   deadline_remaining_s: Optional[float]) -> int:
        """The effective ``max_instructions`` for one execution."""
        if deadline_remaining_s is None:
            return point.instruction_budget
        cap = int(deadline_remaining_s * self.estimate() * 1e6)
        cap = max(MIN_DEADLINE_BUDGET, cap)
        return min(point.instruction_budget, cap)


#: What :func:`settle`'s ``execute`` returns: the outcome and, for a
#: profiled run, its JSON profile payload.
Reply = Tuple[SafeRunOutcome, Optional[dict]]


def run_job_point(runner: Callable[..., SafeRunOutcome], point: SweepPoint,
                  budget: int, profile: bool, where: str) -> Reply:
    """Run one job's point under ``budget``; never raises.

    A profiled run's :class:`~repro.profile.Profile` is replaced by its
    JSON projection, returned beside the outcome.
    """
    try:
        if profile:
            outcome = runner(point, max_instructions=budget, profile=True)
        else:
            outcome = runner(point, max_instructions=budget)
    except BaseException as exc:  # belt and braces (runner is safe)
        outcome = SafeRunOutcome(
            status="error", detail=f"{where}: {type(exc).__name__}: {exc}")
    profile_payload = None
    if profile and outcome.run is not None \
            and outcome.run.profile is not None:
        profile_payload = outcome.run.profile.to_payload()
        outcome.run.profile = None
    return outcome, profile_payload


def _time_out(job: Job, metrics: Optional[ServeMetrics], detail: str) -> None:
    if metrics is not None:
        metrics.count_timeout()
    job.resolve_timeout(detail)


def settle(job: Job,
           execute: Callable[[int, Optional[float]], Optional[Reply]],
           estimator: MipsEstimator, cache: Optional[DiskResultCache],
           metrics: Optional[ServeMetrics], lanes: int = 1) -> bool:
    """Run one job under its deadline and answer it.

    A deadline that passed while the job sat queued answers a timeout
    without running.  Otherwise the remaining time becomes an
    instruction cap and ``execute(budget, remaining_s)`` runs the
    point.  ``budget_exceeded`` under that cap -- not the request's
    own budget -- is a deadline cancellation and answers a timeout;
    any other outcome answers the job and is cached unless it was
    profiled or capped.  ``lanes`` divides the observed guest MIPS of
    a lockstep lane, whose rate is the whole batch's.

    Returns ``False`` with the job unanswered when ``execute`` returns
    ``None`` (a failed fleet dispatch, which the fleet settles).
    """
    now = time.monotonic()
    remaining = None
    if job.deadline_at is not None:
        remaining = job.deadline_at - now
        if remaining <= 0.0:
            _time_out(job, metrics,
                      "deadline expired while queued "
                      f"({(now - job.admitted_at) * 1e3:.0f} ms waiting)")
            return True
    budget = estimator.budget_for(job.point, remaining)
    deadline_limited = budget < job.point.instruction_budget
    reply = execute(budget, remaining)
    if reply is None:
        return False
    outcome, profile_payload = reply
    if outcome.run is not None:
        estimator.observe(outcome.run.guest_mips / lanes)
    if outcome.status == "budget_exceeded" and deadline_limited:
        _time_out(job, metrics,
                  f"execution cancelled at {budget} instructions "
                  f"(deadline-derived cap; estimate "
                  f"{estimator.estimate():.2f} MIPS)")
        return True
    if cache is not None and not job.profile and not deadline_limited:
        try:
            cache.put(job.point, outcome)
        except Exception:
            pass  # cache is an optimisation, never a failure source
    job.resolve(outcome, profile_payload)
    return True


class KernelExecutor:
    """N worker threads over one :class:`JobQueue`."""

    def __init__(
        self,
        queue: JobQueue,
        workers: int = 2,
        cache: Optional[DiskResultCache] = None,
        metrics: Optional[ServeMetrics] = None,
        runner: Callable[..., SafeRunOutcome] = run_point,
        lockstep: int = 0,
    ):
        self.queue = queue
        self.cache = cache
        self.metrics = metrics
        self._runner = runner
        # Batched execution goes through the lockstep engine directly,
        # not through ``runner``; a caller that injects its own runner
        # gets purely scalar semantics.
        self._lockstep = lockstep if runner is run_point else 0
        self._estimator = MipsEstimator()
        self._stop = threading.Event()
        self._busy = 0
        self._busy_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        for index in range(max(1, workers)):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}",
                daemon=True)
            thread.start()
            self._threads.append(thread)

    @property
    def workers(self) -> int:
        return len(self._threads)

    @property
    def busy(self) -> int:
        with self._busy_lock:
            return self._busy

    # ------------------------------------------------------------------
    # Deadline -> instruction budget
    # ------------------------------------------------------------------
    def budget_for(self, point: SweepPoint,
                   deadline_remaining_s: Optional[float]) -> int:
        """The effective ``max_instructions`` for one execution."""
        return self._estimator.budget_for(point, deadline_remaining_s)

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.pop(timeout=_POLL_SECONDS)
            if job is None:
                continue
            peers: List[Job] = []
            if self._lockstep >= 2:
                peers = self.queue.pop_compatible(job, self._lockstep - 1)
            with self._busy_lock:
                self._busy += 1
            try:
                if peers:
                    self._execute_lockstep([job] + peers)
                else:
                    self._execute(job)
            finally:
                self.queue.finish(job)
                for peer in peers:
                    self.queue.finish(peer)
                with self._busy_lock:
                    self._busy -= 1

    def _execute_lockstep(self, jobs: List[Job]) -> None:
        """Run a batch of compatible jobs as one lockstep stream.

        Each job resolves with the exact outcome its scalar execution
        would have produced (the engine is bit-identical per lane).
        None of the jobs carries a deadline or a profile request
        (:meth:`JobQueue.pop_compatible` guarantees it), so the budget
        is each point's own and results are cacheable.  A host-side
        batch failure falls back to per-job scalar execution, so
        batching can never lose work.
        """
        width = len(jobs)
        outcomes = run_group_lockstep([job.point for job in jobs])
        fallbacks = 0
        for job in jobs:
            outcome = outcomes[job.point]
            if outcome.status == "error":
                fallbacks += 1
                self._execute(job)
            else:
                settle(job, lambda budget, remaining: (outcome, None),
                       self._estimator, self.cache, self.metrics,
                       lanes=width)
        if self.metrics is not None:
            self.metrics.count_lockstep_batch(width, fallbacks)

    def _execute(self, job: Job) -> None:
        settle(job, lambda budget, remaining: run_job_point(
                   self._runner, job.point, budget, job.profile, "executor"),
               self._estimator, self.cache, self.metrics)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> bool:
        """Finish all admitted work, then stop the workers.

        Call :meth:`JobQueue.close` first so nothing new is admitted.
        Returns ``True`` when the queue emptied in time.
        """
        deadline = time.monotonic() + timeout
        drained = False
        while time.monotonic() < deadline:
            if self.queue.depth == 0 and self.busy == 0:
                drained = True
                break
            time.sleep(_POLL_SECONDS)
        self._stop.set()
        self.queue.wake_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        return drained
