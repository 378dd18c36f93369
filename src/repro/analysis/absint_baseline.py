"""Abstract-interpretation baseline over every kernel configuration.

``compute_absint_baseline`` runs :func:`repro.analysis.absint.
analyze_program` over the same kernel x ftype x mode build matrix the
lint baseline covers and snapshots, per configuration, the analysis
summary (site counts, widened headers, the largest finite error bound)
plus every risk's identity.  The committed snapshot lives at
``benchmarks/results/absint_baseline.json``; the drift test in
``tests/analysis/test_absint_baseline.py`` recomputes and diffs it, so
a transfer-function or widening change shows up as a reviewable
baseline diff rather than silent drift.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .baseline import build_matrix


def compute_absint_baseline(
    kernels: Optional[List[str]] = None,
    ftypes: Optional[List[str]] = None,
    modes: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Analyze every requested configuration; returns the payload."""
    from .absint import analyze_program, collect_risks

    configs: Dict[str, object] = {}
    kind_totals: Dict[str, int] = {}
    for key, kernel in build_matrix(kernels, ftypes, modes):
        result = analyze_program(kernel.program)
        risks = collect_risks(result)
        by_kind: Dict[str, int] = {}
        entries = []
        for risk in risks:
            by_kind[risk.kind] = by_kind.get(risk.kind, 0) + 1
            entry: Dict[str, object] = {"kind": risk.kind,
                                        "line": risk.site.line,
                                        "mnemonic": risk.site.mnemonic}
            if risk.fmt is not None:
                entry["fmt"] = risk.fmt
            if risk.suggestion is not None:
                entry["suggestion"] = risk.suggestion
            entries.append(entry)
        configs[key] = {
            "risks": entries,
            "by_kind": dict(sorted(by_kind.items())),
            "summary": result.summary(),
        }
        for kind, count in by_kind.items():
            kind_totals[kind] = kind_totals.get(kind, 0) + count
    return {
        "configs": configs,
        "totals_by_kind": dict(sorted(kind_totals.items())),
        "config_count": len(configs),
    }
