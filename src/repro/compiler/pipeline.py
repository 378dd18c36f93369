"""The compile() driver: source text -> assembled Program.

Mirrors the paper's three build configurations:

* ``vectorize=False`` -- scalar code (possibly using smallFloat scalar
  instructions, depending on the source's types);
* ``vectorize=True``  -- the auto-vectorizer pass rewrites eligible
  loops (Section IV);
* manual vectorization needs no flag: the programmer writes vector
  types and intrinsics directly (Fig. 5 right).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..isa.assembler import DATA_BASE, TEXT_BASE, Program, assemble
from .astnodes import Module
from .codegen import generate
from .optimize import fold_constants
from .parser import parse
from .semantic import analyze
from .vectorize import VectorizeReport, vectorize


@dataclass
class CompiledKernel:
    """The result of compiling one translation unit."""

    asm: str
    program: Program
    module: Module
    vector_report: Optional[VectorizeReport] = None
    _lint_result: Optional[object] = field(default=None, init=False,
                                           repr=False, compare=False)

    def entry(self, name: str) -> int:
        """Address of a compiled function."""
        return self.program.address_of(name)

    @property
    def lint_result(self) -> object:
        """Static-analysis result over the assembled output.

        Computed on first read and kept on the kernel.  Typed loosely
        to keep the compiler importable without the analysis package.
        No lock: threads racing on a fresh kernel may each lint, and
        one of the identical results is kept.
        """
        if self._lint_result is None:
            from ..analysis.lints import lint_program

            self._lint_result = lint_program(
                self.program, vector_report=self.vector_report,
                source=self.asm)
        return self._lint_result

    @property
    def lint_findings(self) -> list:
        """Lint findings of :attr:`lint_result`."""
        return list(self.lint_result.findings)


def compile_source(
    source: str,
    vectorize_loops: bool = False,
    text_base: int = TEXT_BASE,
    data_base: int = DATA_BASE,
    expanding_reductions: bool = False,
) -> CompiledKernel:
    """Compile kernel source down to an assembled program.

    The static analyzer runs over the assembled output the first time
    :attr:`CompiledKernel.lint_result` is read, not here; compiled code
    should be clean, so anything it reports points at a codegen
    regression.

    ``expanding_reductions`` upgrades the auto-vectorizer's reduction
    strategy from multiply-then-unpack to the Xfaux expanding dot
    product for binary32 accumulators (only meaningful together with
    ``vectorize_loops``; the default keeps the paper's GCC behaviour).
    """
    module = parse(source)
    analyze(module)
    fold_constants(module)
    report = None
    if vectorize_loops:
        report = vectorize(module, expanding=expanding_reductions)
    asm = "\n".join(generate(fn) for fn in module.functions)
    program = assemble(asm, text_base=text_base, data_base=data_base)
    return CompiledKernel(asm=asm, program=program, module=module,
                          vector_report=report)
