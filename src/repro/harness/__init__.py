"""Experiment harness: per-figure/table drivers over the full stack."""

from . import experiments
from .parallel import (
    CACHE_VERSION_SALT,
    DiskResultCache,
    SweepPoint,
    point_key,
    program_fingerprint,
    resolve_cache,
    run_point,
    run_points,
)
from .runner import (
    ARRAY_BASE,
    MODES,
    POINT_STATUSES,
    HarnessError,
    KernelExecutionError,
    KernelRun,
    SafeRunOutcome,
    compile_point,
    run_kernel,
    run_kernel_safe,
)

__all__ = [
    "experiments",
    "CACHE_VERSION_SALT",
    "DiskResultCache",
    "SweepPoint",
    "point_key",
    "program_fingerprint",
    "resolve_cache",
    "run_point",
    "run_points",
    "ARRAY_BASE",
    "MODES",
    "POINT_STATUSES",
    "HarnessError",
    "KernelExecutionError",
    "KernelRun",
    "SafeRunOutcome",
    "compile_point",
    "run_kernel",
    "run_kernel_safe",
]
