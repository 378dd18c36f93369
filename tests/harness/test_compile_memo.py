"""The per-process compile memo behind ``compile_point``.

Every run path (``run_kernel``, ``run_kernel_batch``, fault campaigns)
compiles through :func:`repro.harness.runner.compile_point`, which
keeps compiled programs keyed on the exact compile inputs.  These tests
pin what that sharing may and may not change: a memo hit must be
indistinguishable from a fresh compile, spec variants that reuse a name
must not collide, failures must not be remembered, and no run may
mutate the program it shares.
"""

import copy
import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro import ReproError
from repro.faults import TARGETS, run_campaign
from repro.harness import runner
from repro.harness.runner import compile_point, run_kernel, run_kernel_batch
from repro.kernels import KERNELS
from repro.nn import sources

GEMM = KERNELS["gemm"]
SMALL = {"n": 6}


@pytest.fixture(autouse=True)
def cold_memo():
    runner._compile_memo.cache_clear()
    yield
    runner._compile_memo.cache_clear()


@pytest.fixture
def compiles(monkeypatch):
    """Sources actually compiled (memo misses) during the test."""
    calls = []
    real = runner.compile_source

    def counting(source, **kwargs):
        calls.append(source)
        return real(source, **kwargs)

    monkeypatch.setattr(runner, "compile_source", counting)
    return calls


def assert_same_run(a, b):
    assert a.trace == b.trace
    assert a.outputs.keys() == b.outputs.keys()
    for name in a.outputs:
        np.testing.assert_array_equal(a.outputs[name], b.outputs[name])
    assert a.asm == b.asm


def test_repeated_run_kernel_compiles_once(compiles):
    run_kernel(GEMM, "float16", "auto", params=SMALL)
    warm = run_kernel(GEMM, "float16", "auto", params=SMALL)
    warm_kernel = compile_point(GEMM, "float16", "auto")
    assert len(compiles) == 1
    runner._compile_memo.cache_clear()
    cold = run_kernel(GEMM, "float16", "auto", params=SMALL)
    cold_kernel = compile_point(GEMM, "float16", "auto")
    assert len(compiles) == 2
    assert_same_run(warm, cold)
    assert ([f.to_dict() for f in warm_kernel.lint_findings]
            == [f.to_dict() for f in cold_kernel.lint_findings])


def test_repeated_batch_compiles_once(compiles):
    seeds = [0, 1, 2]
    run_kernel_batch(GEMM, "float8", "manual", params=SMALL, seeds=seeds)
    warm = run_kernel_batch(GEMM, "float8", "manual", params=SMALL,
                            seeds=seeds)
    # A solo run of the same point shares the batch's program.
    solo = run_kernel(GEMM, "float8", "manual", params=SMALL, seed=2)
    assert len(compiles) == 1
    runner._compile_memo.cache_clear()
    cold = run_kernel_batch(GEMM, "float8", "manual", params=SMALL,
                            seeds=seeds)
    assert len(compiles) == 2
    for a, b in zip(warm, cold):
        assert_same_run(a, b)
    assert_same_run(warm[2], solo)


@pytest.mark.parametrize("mode", ["scalar", "auto"])
def test_same_name_other_source_or_options_is_its_own_program(compiles,
                                                              mode):
    # The narrow-accumulation variant nn/suite.py builds keeps the name.
    wide_spec = KERNELS["nn_mlp_fwd"]
    narrow_spec = dataclasses.replace(
        wide_spec,
        source_fn=lambda t: sources.narrow_source("nn_mlp_fwd", t),
        manual_source_fn=None, compile_opts={})
    plain_spec = dataclasses.replace(wide_spec, compile_opts={})
    wide = compile_point(wide_spec, "float8", mode)
    narrow = compile_point(narrow_spec, "float8", mode)
    plain = compile_point(plain_spec, "float8", mode)
    assert len(compiles) == 3
    assert wide.asm != narrow.asm
    assert ("vfdotpex" in wide.asm) == (mode == "auto")
    assert "vfdotpex" not in plain.asm
    assert compile_point(narrow_spec, "float8", mode) is narrow
    assert compile_point(plain_spec, "float8", mode) is plain
    assert compile_point(wide_spec, "float8", mode) is wide
    assert len(compiles) == 3


def test_compile_error_raises_on_every_call(compiles):
    broken = dataclasses.replace(GEMM, source_fn=lambda t: "void gemm( {")
    for _ in range(2):
        with pytest.raises(ReproError):
            run_kernel(broken, "float16", "scalar")
    assert len(compiles) == 2


def test_runs_batches_and_faults_leave_the_shared_program_intact():
    kernel = compile_point(GEMM, "float16", "auto")
    program = kernel.program

    def snapshot():
        return copy.deepcopy((program.words, bytes(program.data),
                              program.symbols, program.lines,
                              program.reserved, kernel.asm))

    before = snapshot()
    run_kernel(GEMM, "float16", "auto", params=SMALL)
    run_kernel_batch(GEMM, "float16", "auto", params=SMALL, seeds=[0, 1])
    run_campaign(GEMM, "float16", "auto", runs=1, flips_per_run=4,
                 targets=TARGETS, params=SMALL, seed=3)
    assert compile_point(GEMM, "float16", "auto") is kernel
    assert snapshot() == before


def test_threads_racing_on_a_cold_point(compiles):
    # More threads than CPUs and a short switch interval make the cold
    # miss race; a torn memo entry would show as a wrong or failed run.
    workers = 4
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def work(index):
        barrier.wait()
        try:
            results[index] = run_kernel(GEMM, "float16alt", "auto",
                                        params=SMALL, seed=index % 2)
        except Exception as exc:  # surfaced by the assertions below
            results[index] = exc

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert 1 <= len(compiles) <= workers  # racing misses may each compile
    runner._compile_memo.cache_clear()
    expected = [run_kernel(GEMM, "float16alt", "auto", params=SMALL,
                           seed=seed) for seed in (0, 1)]
    for index, got in enumerate(results):
        assert not isinstance(got, Exception), got
        assert_same_run(got, expected[index % 2])
