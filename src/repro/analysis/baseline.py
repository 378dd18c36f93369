"""Lint baseline over every built-in kernel build configuration.

``compute_baseline`` compiles each benchmark kernel in every valid
(type x vectorization) configuration, runs the full lint pass over the
assembled output and returns a deterministic summary: per-configuration
finding counts by check and severity, plus each finding's identity
(check, line, suggestion).  The committed snapshot lives at
``benchmarks/results/lint_baseline.json``; CI regenerates it and the
regression test in ``tests/analysis/test_baseline.py`` diffs the two,
so any codegen change that alters what the analyzer sees shows up as a
reviewable baseline diff rather than silent drift.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

#: The (ftype, mode) build matrix; invalid combinations are skipped.
FTYPES = ("float", "float16", "float16alt", "float8")
MODES = ("scalar", "auto", "manual")


def _config_key(kernel: str, ftype: str, mode: str) -> str:
    return f"{kernel}/{ftype}/{mode}"


def build_matrix(
    kernels: Optional[List[str]] = None,
    ftypes: Optional[List[str]] = None,
    modes: Optional[List[str]] = None,
) -> Iterator[Tuple[str, object]]:
    """``(config key, compiled kernel)`` over every valid requested build.

    Each kernel is the program the harness runs for that configuration
    (:func:`repro.harness.runner.compile_point`).
    """
    from ..harness.runner import compile_point
    from ..kernels import KERNELS

    for name in sorted(kernels or KERNELS):
        spec = KERNELS[name]
        for ftype in ftypes or FTYPES:
            for mode in modes or MODES:
                if mode == "manual" and (spec.manual_source_fn is None
                                         or ftype == "float"):
                    continue
                yield (_config_key(name, ftype, mode),
                       compile_point(spec, ftype, mode))


def compute_baseline(
    kernels: Optional[List[str]] = None,
    ftypes: Optional[List[str]] = None,
    modes: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Lint every requested configuration; returns the baseline payload."""
    from .lints import lint_program

    configs: Dict[str, object] = {}
    totals: Dict[str, int] = {}
    severity_totals: Dict[str, int] = {}
    for key, kernel in build_matrix(kernels, ftypes, modes):
        result = lint_program(kernel.program,
                              vector_report=kernel.vector_report,
                              source=kernel.asm)
        by_check: Dict[str, int] = {}
        by_severity: Dict[str, int] = {}
        findings = []
        for finding in result.findings:
            by_check[finding.check] = by_check.get(finding.check, 0) + 1
            by_severity[finding.severity] = \
                by_severity.get(finding.severity, 0) + 1
            entry = {"check": finding.check,
                     "severity": finding.severity,
                     "line": finding.line}
            if finding.suggestion is not None:
                entry["suggestion"] = finding.suggestion
            findings.append(entry)
        configs[key] = {
            "findings": findings,
            "by_check": dict(sorted(by_check.items())),
            "by_severity": dict(sorted(by_severity.items())),
            "blocks": len(result.cfg.blocks),
        }
        for check, count in by_check.items():
            totals[check] = totals.get(check, 0) + count
        for severity, count in by_severity.items():
            severity_totals[severity] = \
                severity_totals.get(severity, 0) + count
    return {
        "configs": configs,
        "totals_by_check": dict(sorted(totals.items())),
        "totals_by_severity": dict(sorted(severity_totals.items())),
        "config_count": len(configs),
    }
