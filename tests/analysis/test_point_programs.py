"""Static tools analyze the program the harness runs.

The lint and absint baselines, ``repro lint|analyze --kernel`` and the
serve ``?verify=1`` gate all compile through
:func:`repro.harness.runner.compile_point`, so a spec's
``compile_opts`` reach them too.  The NN specs are where this matters:
in auto mode their ``expanding_reductions`` option emits ``vfdotpex``,
and a program compiled without it is one that never runs.
"""

import argparse

import pytest

from repro.analysis.baseline import build_matrix
from repro.cli import _compile_kernel_arg
from repro.harness import SweepPoint, run_kernel
from repro.harness.runner import compile_point
from repro.kernels import KERNELS
from repro.serve import verify

NN_AUTO = [(name, ftype) for name in sorted(KERNELS) if name.startswith("nn_")
           for ftype in ("float16", "float16alt", "float8")]


@pytest.mark.parametrize("name,ftype", NN_AUTO,
                         ids=[f"{n}-{t}" for n, t in NN_AUTO])
def test_static_consumers_see_the_executed_program(name, ftype):
    executed = run_kernel(KERNELS[name], ftype, "auto").asm
    assert compile_point(KERNELS[name], ftype, "auto").asm == executed
    (_, baseline_kernel), = build_matrix([name], [ftype], ["auto"])
    assert baseline_kernel.asm == executed
    cli_kernel = _compile_kernel_arg(
        argparse.Namespace(kernel=name, ftype=ftype, mode="auto"))
    assert cli_kernel.asm == executed


def test_verifier_lints_the_expanding_dot_product(monkeypatch):
    linted = []
    real = verify.lint_program

    def recording(program, **kwargs):
        linted.append(kwargs["source"])
        return real(program, **kwargs)

    monkeypatch.setattr(verify, "lint_program", recording)
    verdict, cached = verify.StaticVerifier().verify(
        SweepPoint("nn_mlp_fwd", "float16", "auto"))
    assert not cached and verdict.ok
    assert len(linted) == 1 and "vfdotpex" in linted[0]
