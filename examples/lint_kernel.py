#!/usr/bin/env python3
"""Static analysis walkthrough: CFG, lints and trace validation.

Run:  python examples/lint_kernel.py
"""

from repro.analysis import build_cfg, lint_program, validate_findings
from repro.compiler import compile_source
from repro.harness import compile_point, run_kernel
from repro.isa import assemble
from repro.kernels import KERNELS


def broken_assembly_demo() -> None:
    print("== Linting hand-written assembly ==")
    source = """\
dot:
    li t0, 0
loop:
    lbu t3, 0(a0)
    lbu t4, 0(a1)
    fmul.b t5, t3, t4
    fadd.b t2, t2, t5        # accumulates in binary8!
    addi a0, a0, 1
    addi a1, a1, 1
    addi t0, t0, 1
    blt t0, a2, loop
    fcvt.h.b a0, t2
    fadd.ah a0, a0, a3       # .h value consumed as .ah
    ret
"""
    result = lint_program(assemble(source), source=source)
    print(result.render_text())
    print(f"-- {len(result.errors())} error(s), "
          f"{len(result.warnings())} warning(s)\n")


def cfg_demo() -> None:
    print("== The CFG under the lints ==")
    kernel = compile_source(KERNELS["gemm"].source_fn("float16"))
    cfg = build_cfg(kernel.program)
    loops = cfg.natural_loops()
    print(f"  gemm/float16: {len(cfg.blocks)} basic blocks, "
          f"{len(loops)} natural loops, entries "
          f"{[hex(e) for e in cfg.entries]}")
    deepest = max(loops, key=lambda l: len(l.body))
    print(f"  largest loop body: {len(deepest.body)} blocks, "
          f"header {deepest.header:#x}\n")


def compiled_kernel_demo() -> None:
    print("== Compiled kernels lint themselves ==")
    kernel = compile_source(KERNELS["atax"].source_fn("float8"),
                            vectorize_loops=True)
    for finding in kernel.lint_findings:
        print(f"  line {finding.line}: [{finding.check}] "
              f"suggest {finding.suggestion}")
    print()


def validation_demo() -> None:
    print("== Replaying static findings against a real run ==")
    run = run_kernel(KERNELS["atax"], "float8", "auto")
    lint = compile_point(KERNELS["atax"], "float8", "auto").lint_result
    report = validate_findings(lint.findings, run.trace)
    for item in report.results:
        print(f"  [{item.verdict}] (executed {item.executions}x) "
              f"line {item.finding.line}: {item.finding.check}")
    counts = report.counts()
    print(f"-- confirmed {counts['confirmed']}, "
          f"not-executed {counts['not-executed']}")


if __name__ == "__main__":
    broken_assembly_demo()
    cfg_demo()
    compiled_kernel_demo()
    validation_demo()
