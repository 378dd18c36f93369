"""One driver per paper table/figure (the reproduction's entry points).

Each function returns plain data (lists of dicts) so the benchmark
suite, the examples and EXPERIMENTS.md all consume the same numbers.
Results are memoized per configuration: several figures share runs.

Sweeps are crash-isolated: every driver computes its points up front
through :func:`prewarm`, and every point runs through
:func:`~repro.harness.parallel.run_point` under an instruction budget,
so a single trapping or runaway configuration cannot abort a
figure.  Each row carries ``status`` ('ok', 'trap', 'budget_exceeded'
or 'error') and ``detail``; failed points keep their metric fields as
``None`` and are skipped by the per-figure averages.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from ..fp.formats import supported_vector_formats
from ..kernels import BENCHMARK_NAMES, KERNELS, KernelSpec
from ..sim.memory import LATENCY_LEVELS
from .parallel import SweepPoint, resolve_cache, run_point, run_points
from .runner import KernelExecutionError, KernelRun, SafeRunOutcome, run_kernel

#: Lane counts per C type keyword at FLEN = 32.
_LANES = {"float16": 2, "float16alt": 2, "float8": 4}

#: Default per-point watchdog for figure sweeps.
DEFAULT_POINT_BUDGET = 50_000_000

_CACHE: Dict[Tuple, SafeRunOutcome] = {}
_CACHE_LOCK = threading.Lock()


def _reset_cache_in_child() -> None:
    """Give forked children a private, empty memo and a fresh lock.

    A child inheriting the parent's memo could serve rows the parent is
    concurrently inserting (a fork can land mid-update), and a lock
    held at fork time would deadlock the child forever.  Parallel
    sweep workers therefore always start clean; shared points come from
    the keyed disk cache instead.
    """
    global _CACHE_LOCK
    _CACHE_LOCK = threading.Lock()
    _CACHE.clear()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_cache_in_child)


def safe_cached_run(
    name: str, ftype: str, mode: str, mem_latency: int = 1, seed: int = 0,
    instruction_budget: int = DEFAULT_POINT_BUDGET,
) -> SafeRunOutcome:
    """Memoized, crash-isolated :func:`run_kernel` for sweep points."""
    key = (name, ftype, mode, mem_latency, seed, instruction_budget)
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
    if cached is not None:
        return cached
    outcome = run_point(SweepPoint(*key))
    # setdefault keeps the first writer's row, so concurrent callers of
    # the same point always observe one identical object.
    with _CACHE_LOCK:
        return _CACHE.setdefault(key, outcome)


def prewarm(
    points: Iterable[Tuple], jobs: int = 1,
    cache_dir: Optional[str] = None, lockstep: int = 0,
) -> int:
    """Compute sweep points up front and seed the in-process memo.

    ``points`` are ``(name, ftype, mode, mem_latency, seed, budget)``
    tuples -- exactly the :func:`safe_cached_run` key.  With
    ``jobs > 1`` the missing points fan out worker-per-point over a
    process pool; with a cache directory (or ``REPRO_RESULT_CACHE``
    set) finished points persist across processes.  Returns the number
    of points that were actually computed (as opposed to served from
    either cache).  ``lockstep >= 2`` batches seed-varied points into
    shared lockstep runs (see :func:`repro.harness.parallel.run_points`).
    """
    cache = resolve_cache(cache_dir)
    with _CACHE_LOCK:
        missing = [SweepPoint(*p) for p in dict.fromkeys(points)
                   if tuple(p) not in _CACHE]
    before = cache.hits if cache is not None else 0
    results = run_points(missing, jobs=jobs, cache=cache,
                         lockstep=lockstep)
    with _CACHE_LOCK:
        for point, outcome in results.items():
            _CACHE.setdefault(tuple(point), outcome)
    served = cache.hits - before if cache is not None else 0
    return len(results) - served


def cached_run(name: str, ftype: str, mode: str, mem_latency: int = 1,
               seed: int = 0) -> KernelRun:
    """Memoized :func:`run_kernel` (figures share configurations).

    Raises :class:`KernelExecutionError` if the point did not complete;
    sweep drivers use :func:`safe_cached_run` instead.
    """
    outcome = safe_cached_run(name, ftype, mode, mem_latency, seed)
    if not outcome.ok:
        raise KernelExecutionError(
            f"{name} [{ftype}, {mode}, latency={mem_latency}] ended with "
            f"{outcome.status}: {outcome.detail}",
            exit_reason=outcome.status, trap=outcome.trap,
        )
    return outcome.run


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


def _point_row(outcome: SafeRunOutcome) -> Dict:
    """The status fields every sweep row carries."""
    return {"status": outcome.status,
            "detail": outcome.detail if not outcome.ok else ""}


# ----------------------------------------------------------------------
# Fig. 1 -- speedup of smallFloat types vs float (auto vs manual + ideal)
# ----------------------------------------------------------------------
def ideal_speedup(baseline: KernelRun, lanes: int) -> float:
    """Analytic best case (the dashed bar segment of Fig. 1).

    In the limit, vectorization runs every data-loop instruction --
    FP work, memory accesses, address arithmetic and loop control --
    ``lanes`` elements at a time with no prologue/epilogue remainder.
    Only genuinely serial work (calls/returns, CSR accesses, iterative
    divides) stays scalar.  Measured speedups fall short of this bound
    through epilogue loops, non-vectorizable statements and per-lane
    reduction unpacking.
    """
    breakdown = baseline.trace.by_category
    serial = (
        breakdown.get("jump", 0)
        + breakdown.get("csr", 0)
        + breakdown.get("div", 0)
    )
    vectorizable = baseline.trace.instret - serial
    ideal_instr = serial + vectorizable / lanes
    # Scale cycles proportionally to the instruction reduction.
    return baseline.trace.instret / ideal_instr


def fig1_points(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float16alt", "float8"),
    seed: int = 0,
    instruction_budget: int = DEFAULT_POINT_BUDGET,
) -> List[Tuple]:
    """The exact point set :func:`fig1_speedup` will request."""
    benchmarks = benchmarks or list(BENCHMARK_NAMES)
    points: List[Tuple] = []
    for bench in benchmarks:
        spec = KERNELS[bench]
        points.append((bench, "float", "scalar", 1, seed,
                       instruction_budget))
        for ftype in ftypes:
            points.append((bench, ftype, "auto", 1, seed,
                           instruction_budget))
            if spec.manual_source_fn is not None:
                points.append((bench, ftype, "manual", 1, seed,
                               instruction_budget))
    return points


def fig1_speedup(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float16alt", "float8"),
    seed: int = 0,
    instruction_budget: int = DEFAULT_POINT_BUDGET,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    lockstep: int = 0,
) -> List[Dict]:
    """Speedup of each smallFloat type over float, auto vs manual.

    Returns one row per (benchmark, type, mode) with measured and ideal
    speedups, plus per-type/mode averages under benchmark ``"average"``.
    Points that trap or exceed the instruction budget stay in the output
    with their ``status``/``detail`` set and ``None`` metrics; the sweep
    itself always completes.

    ``jobs`` computes the points worker-per-point in parallel first;
    ``cache_dir`` additionally persists them for other processes.
    """
    benchmarks = benchmarks or list(BENCHMARK_NAMES)
    prewarm(fig1_points(benchmarks, ftypes, seed, instruction_budget),
            jobs, cache_dir, lockstep)
    rows: List[Dict] = []
    sums: Dict[Tuple[str, str], List[float]] = {}
    for bench in benchmarks:
        spec = KERNELS[bench]
        base_outcome = safe_cached_run(bench, "float", "scalar", seed=seed,
                                       instruction_budget=instruction_budget)
        base = base_outcome.run if base_outcome.ok else None
        for ftype in ftypes:
            modes = ["auto"]
            if spec.manual_source_fn is not None:
                modes.append("manual")
            for mode in modes:
                row = {"benchmark": bench, "ftype": ftype, "mode": mode,
                       "cycles": None, "base_cycles": None,
                       "speedup": None, "ideal": None}
                if base is None:
                    row.update(status=base_outcome.status,
                               detail=f"baseline: {base_outcome.detail}")
                    rows.append(row)
                    continue
                outcome = safe_cached_run(
                    bench, ftype, mode, seed=seed,
                    instruction_budget=instruction_budget)
                row.update(_point_row(outcome))
                if outcome.ok:
                    speedup = base.cycles / outcome.run.cycles
                    row.update({
                        "cycles": outcome.run.cycles,
                        "base_cycles": base.cycles,
                        "speedup": speedup,
                        "ideal": ideal_speedup(base, _LANES[ftype]),
                    })
                    sums.setdefault((ftype, mode), []).append(speedup)
                rows.append(row)
    for (ftype, mode), values in sorted(sums.items()):
        rows.append({
            "benchmark": "average",
            "ftype": ftype,
            "mode": mode,
            "speedup": sum(values) / len(values),
            "ideal": None,
            "cycles": None,
            "base_cycles": None,
            "status": "ok",
            "detail": "",
        })
    return rows


# ----------------------------------------------------------------------
# Fig. 2 -- speedup for increasing memory latencies (manual builds)
# ----------------------------------------------------------------------
def fig23_points(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float8"),
    seed: int = 0,
) -> List[Tuple]:
    """The latency-sweep point set shared by Figs. 2 and 3."""
    benchmarks = benchmarks or [
        b for b in BENCHMARK_NAMES if KERNELS[b].manual_source_fn
    ]
    points: List[Tuple] = []
    for bench in benchmarks:
        for latency in LATENCY_LEVELS.values():
            points.append((bench, "float", "scalar", latency, seed,
                           DEFAULT_POINT_BUDGET))
            for ftype in ftypes:
                points.append((bench, ftype, "manual", latency, seed,
                               DEFAULT_POINT_BUDGET))
    return points


def fig2_latency_speedup(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float8"),
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    lockstep: int = 0,
) -> List[Dict]:
    """Speedup vs the float baseline *at the same latency level*.

    Only manually vectorized builds, only float16 (float16alt behaves
    identically) -- exactly the paper's protocol from Fig. 2 on.
    """
    benchmarks = benchmarks or [
        b for b in BENCHMARK_NAMES if KERNELS[b].manual_source_fn
    ]
    prewarm(fig23_points(benchmarks, ftypes, seed), jobs, cache_dir,
            lockstep)
    rows: List[Dict] = []
    for bench in benchmarks:
        for level, latency in LATENCY_LEVELS.items():
            base_outcome = safe_cached_run(bench, "float", "scalar",
                                           latency, seed)
            for ftype in ftypes:
                row = {"benchmark": bench, "ftype": ftype, "level": level,
                       "latency": latency, "speedup": None}
                if not base_outcome.ok:
                    row.update(status=base_outcome.status,
                               detail=f"baseline: {base_outcome.detail}")
                    rows.append(row)
                    continue
                outcome = safe_cached_run(bench, ftype, "manual",
                                          latency, seed)
                row.update(_point_row(outcome))
                if outcome.ok:
                    row["speedup"] = (base_outcome.run.cycles
                                      / outcome.run.cycles)
                rows.append(row)
    return rows


def fig2_latency_gains(rows: Optional[List[Dict]] = None) -> Dict[str, Dict[str, float]]:
    """Average relative speedup gain of L2/L3 over L1 per type.

    The paper reports +7.4 % (L2) and +10.65 % (L3) for float16, and
    +4.75 % / +8.01 % for float8.
    """
    rows = rows if rows is not None else fig2_latency_speedup()
    gains: Dict[str, Dict[str, float]] = {}
    ftypes = sorted({r["ftype"] for r in rows})
    for ftype in ftypes:
        per_level: Dict[str, List[float]] = {}
        for row in rows:
            if row["ftype"] == ftype and row["speedup"] is not None:
                per_level.setdefault(row["level"], []).append(row["speedup"])
        avg = {lvl: sum(v) / len(v) for lvl, v in per_level.items()}
        gains[ftype] = {
            "L2_vs_L1": avg["L2"] / avg["L1"] - 1.0,
            "L3_vs_L1": avg["L3"] / avg["L1"] - 1.0,
        }
    return gains


# ----------------------------------------------------------------------
# Fig. 3 -- energy normalized to float, for increasing latencies
# ----------------------------------------------------------------------
def fig3_energy(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float8"),
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    lockstep: int = 0,
) -> List[Dict]:
    """Energy of the manual smallFloat builds normalized to float."""
    benchmarks = benchmarks or [
        b for b in BENCHMARK_NAMES if KERNELS[b].manual_source_fn
    ]
    prewarm(fig23_points(benchmarks, ftypes, seed), jobs, cache_dir,
            lockstep)
    rows: List[Dict] = []
    for bench in benchmarks:
        for level, latency in LATENCY_LEVELS.items():
            base_outcome = safe_cached_run(bench, "float", "scalar",
                                           latency, seed)
            for ftype in ftypes:
                row = {"benchmark": bench, "ftype": ftype, "level": level,
                       "latency": latency, "energy_pj": None,
                       "normalized": None}
                if not base_outcome.ok:
                    row.update(status=base_outcome.status,
                               detail=f"baseline: {base_outcome.detail}")
                    rows.append(row)
                    continue
                outcome = safe_cached_run(bench, ftype, "manual",
                                          latency, seed)
                row.update(_point_row(outcome))
                if outcome.ok:
                    run = outcome.run
                    row["energy_pj"] = run.energy.total
                    row["normalized"] = (run.energy.total
                                         / base_outcome.run.energy.total)
                rows.append(row)
    return rows


def fig3_average_savings(rows: Optional[List[Dict]] = None) -> Dict[str, Dict[str, float]]:
    """Average energy saving vs float per type per latency level.

    The paper's headline: ~30 % for the 16-bit types and ~50 % for
    binary8 with data in L1.
    """
    rows = rows if rows is not None else fig3_energy()
    out: Dict[str, Dict[str, float]] = {}
    for ftype in sorted({r["ftype"] for r in rows}):
        out[ftype] = {}
        for level in ("L1", "L2", "L3"):
            values = [
                1.0 - r["normalized"]
                for r in rows
                if r["ftype"] == ftype and r["level"] == level
                and r["normalized"] is not None
            ]
            out[ftype][level] = sum(values) / len(values)
    return out


# ----------------------------------------------------------------------
# Table II -- supported vector formats per FLEN
# ----------------------------------------------------------------------
def table2_vector_formats() -> Dict[int, Dict[str, Optional[int]]]:
    """The full Table II matrix (FLEN in {16, 32, 64})."""
    return {flen: supported_vector_formats(flen) for flen in (64, 32, 16)}


# ----------------------------------------------------------------------
# Table III -- SQNR per benchmark per type
# ----------------------------------------------------------------------
def table3_sqnr(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float16alt", "float8"),
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    lockstep: int = 0,
) -> List[Dict]:
    """SQNR (dB) of program outputs vs the binary64 reference."""
    benchmarks = benchmarks or list(BENCHMARK_NAMES)
    prewarm(
        [(bench, ftype, "scalar", 1, seed, DEFAULT_POINT_BUDGET)
         for bench in benchmarks for ftype in ftypes],
        jobs, cache_dir, lockstep)
    rows: List[Dict] = []
    for bench in benchmarks:
        for ftype in ftypes:
            outcome = safe_cached_run(bench, ftype, "scalar", seed=seed)
            row = {"benchmark": bench, "ftype": ftype, "sqnr_db": None}
            row.update(_point_row(outcome))
            if outcome.ok:
                row["sqnr_db"] = outcome.run.sqnr_db()
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Format shootout -- QoR/energy across registered storage formats
# ----------------------------------------------------------------------
def format_shootout(
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float8", "posit8", "mx8"),
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    lockstep: int = 0,
) -> List[Dict]:
    """Accuracy vs energy for competing storage formats, per kernel.

    Every format is driven through the identical scalar pipeline --
    compile, simulate, score against the binary64 reference, price with
    the energy model -- so the comparison has no per-format special
    cases: any name in :func:`repro.fp.registry.kernel_ftypes` works.
    ``energy_vs_float`` normalizes to the binary32 build of the same
    kernel (< 1.0 means the narrow format saves energy).
    """
    benchmarks = benchmarks or list(BENCHMARK_NAMES)
    prewarm(
        [(bench, ftype, "scalar", 1, seed, DEFAULT_POINT_BUDGET)
         for bench in benchmarks for ftype in ("float",) + tuple(ftypes)],
        jobs, cache_dir, lockstep)
    rows: List[Dict] = []
    for bench in benchmarks:
        base = safe_cached_run(bench, "float", "scalar", seed=seed)
        for ftype in ftypes:
            outcome = safe_cached_run(bench, ftype, "scalar", seed=seed)
            row = {"benchmark": bench, "ftype": ftype, "sqnr_db": None,
                   "cycles": None, "energy_pj": None,
                   "energy_vs_float": None}
            row.update(_point_row(outcome))
            if outcome.ok:
                run = outcome.run
                row["sqnr_db"] = run.sqnr_db()
                row["cycles"] = run.trace.cycles
                row["energy_pj"] = run.energy.total
                if base.ok:
                    row["energy_vs_float"] = (run.energy.total
                                              / base.run.energy.total)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Fig. 4 -- SVM instruction-count breakdown under mixed precision
# ----------------------------------------------------------------------
def fig4_breakdown(seed: int = 0, jobs: int = 1,
                   cache_dir: Optional[str] = None,
                   lockstep: int = 0) -> Dict[str, Dict[str, int]]:
    """Instruction mixes: original float vs auto vs manual mixed SVM."""
    prewarm(
        [("svm", "float", "scalar", 1, seed, DEFAULT_POINT_BUDGET),
         ("svm_mixed", "float16", "auto", 1, seed, DEFAULT_POINT_BUDGET),
         ("svm_mixed", "float16", "manual", 1, seed, DEFAULT_POINT_BUDGET)],
        jobs, cache_dir, lockstep)
    original = cached_run("svm", "float", "scalar", seed=seed)
    auto = cached_run("svm_mixed", "float16", "auto", seed=seed)
    manual = cached_run("svm_mixed", "float16", "manual", seed=seed)
    return {
        "original": dict(original.trace.merged_breakdown()),
        "auto": dict(auto.trace.merged_breakdown()),
        "manual": dict(manual.trace.merged_breakdown()),
    }


# ----------------------------------------------------------------------
# Fig. 5 -- auto vs manual vectorization of the dot-product loop
# ----------------------------------------------------------------------
_FIG5_AUTO_SRC = """
float dot(float16 *a, float16 *b, int n) {
    float sum = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        sum = sum + a[i] * b[i];
    }
    return sum;
}
"""

_FIG5_MANUAL_SRC = """
float dot(float16v *a, float16v *b, int n2) {
    float sum = 0.0;
    for (int i = 0; i < n2; i = i + 1) {
        sum = __dotpex_f16(sum, a[i], b[i]);
    }
    return sum;
}
"""


def fig5_codegen() -> Dict[str, object]:
    """The Fig. 5 comparison: auto-vectorized vs manually vectorized
    dot product.  Returns both assembly listings and the inner-loop
    instruction counts (the paper reports a 25 % reduction)."""
    from ..compiler import compile_source

    auto = compile_source(_FIG5_AUTO_SRC, vectorize_loops=True)
    manual = compile_source(_FIG5_MANUAL_SRC)

    def loop_body_len(asm: str, label_hint: str) -> int:
        lines = [line.strip() for line in asm.splitlines()]
        start = next(i for i, l in enumerate(lines)
                     if l.startswith(f"L_dot_{label_hint}"))
        end = next(i for i, l in enumerate(lines[start + 1:], start + 1)
                   if l.endswith(":"))
        return sum(1 for l in lines[start + 1:end] if l and not l.endswith(":"))

    auto_count = loop_body_len(auto.asm, "for_1")
    manual_count = loop_body_len(manual.asm, "for_1")
    return {
        "auto_asm": auto.asm,
        "manual_asm": manual.asm,
        "auto_loop_instructions": auto_count,
        "manual_loop_instructions": manual_count,
        "reduction": 1.0 - manual_count / auto_count,
    }


# ----------------------------------------------------------------------
# Fig. 6 -- mixed-precision case study: speedup, energy, accuracy
# ----------------------------------------------------------------------
def fig6_mixed_precision(seed: int = 0, jobs: int = 1,
                         cache_dir: Optional[str] = None,
                         lockstep: int = 0) -> List[Dict]:
    """Speedup/energy/accuracy of SVM precision schemes vs float.

    Rows: float (baseline), uniform float16, uniform float8, and the
    tuned mixed scheme (auto + manual).  The paper's claim: mixed
    precision matches float16's speedup and energy at float's accuracy.
    """
    prewarm(
        [("svm", "float", "scalar", 1, seed, DEFAULT_POINT_BUDGET),
         ("svm", "float16", "auto", 1, seed, DEFAULT_POINT_BUDGET),
         ("svm", "float8", "auto", 1, seed, DEFAULT_POINT_BUDGET),
         ("svm_mixed", "float16", "auto", 1, seed, DEFAULT_POINT_BUDGET),
         ("svm_mixed", "float16", "manual", 1, seed, DEFAULT_POINT_BUDGET)],
        jobs, cache_dir, lockstep)
    base = cached_run("svm", "float", "scalar", seed=seed)
    rows: List[Dict] = []

    def add(label: str, run: KernelRun) -> None:
        rows.append({
            "scheme": label,
            "cycles": run.cycles,
            "speedup": base.cycles / run.cycles,
            "energy_normalized": run.energy.total / base.energy.total,
            "classification_error": run.classification_error(),
            "sqnr_db": run.sqnr_db("scores"),
        })

    add("float", base)
    add("float16", cached_run("svm", "float16", "auto", seed=seed))
    add("float8", cached_run("svm", "float8", "auto", seed=seed))
    add("mixed(auto)", cached_run("svm_mixed", "float16", "auto", seed=seed))
    add("mixed(manual)",
        cached_run("svm_mixed", "float16", "manual", seed=seed))
    return rows


# ----------------------------------------------------------------------
# Profiled sweeps -- one cycle-attribution payload per sweep point
# ----------------------------------------------------------------------
def profile_sweep(
    out_dir: str,
    benchmarks: Optional[List[str]] = None,
    ftypes: Tuple[str, ...] = ("float16", "float8"),
    modes: Tuple[str, ...] = ("scalar", "auto"),
    mem_latency: int = 1,
    seed: int = 0,
) -> List[Dict]:
    """Profile a sweep matrix, one JSON payload per point.

    Writes ``<bench>_<ftype>_<mode>.profile.json`` (the schema of
    ``repro profile --json``; see ``docs/profiling.md``) plus an
    ``index.json`` of summary rows into ``out_dir``, and returns the
    rows.  Points that fail keep their ``status``/``detail`` and write
    no payload -- the sweep itself always completes.
    """
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    benchmarks = benchmarks or list(BENCHMARK_NAMES)
    rows: List[Dict] = []
    for bench in benchmarks:
        for ftype in ftypes:
            for mode in modes:
                row = {"benchmark": bench, "ftype": ftype, "mode": mode,
                       "mem_latency": mem_latency, "cycles": None,
                       "file": None, "status": "ok", "detail": ""}
                try:
                    run = run_kernel(KERNELS[bench], ftype, mode,
                                     mem_latency=mem_latency, seed=seed,
                                     profile=True)
                except KernelExecutionError as exc:
                    row.update(status=exc.exit_reason, detail=str(exc))
                    rows.append(row)
                    continue
                payload = run.profile.to_payload()
                name = f"{bench}_{ftype}_{mode}.profile.json"
                with open(os.path.join(out_dir, name), "w") as handle:
                    json.dump(payload, handle, indent=2)
                row.update(cycles=run.cycles, file=name)
                rows.append(row)
    with open(os.path.join(out_dir, "index.json"), "w") as handle:
        json.dump(rows, handle, indent=2)
    return rows
