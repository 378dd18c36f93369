"""Lint runs when its result is read, not at every compile.

``compile_source`` leaves :attr:`CompiledKernel.lint_result` to be
computed on first read and kept on the kernel, which ``compile_point``
shares through its memo.  Runs carry no findings: a reader asks
``compile_point(spec, ftype, mode).lint_result``.  These tests pin that
sweeps and cache writes never lint, that every reader gets exactly the
findings an eager lint gives, and that a cached run holds only its
measured fields.
"""

import pickle
import sys
import threading

import pytest

from repro.analysis import lints
from repro.analysis.lints import lint_program as eager_lint
from repro.compiler import compile_source
from repro.faults import TARGETS, run_campaign
from repro.harness import runner
from repro.harness.experiments import fig1_points
from repro.harness.parallel import DiskResultCache, SweepPoint, run_points
from repro.harness.runner import (compile_point, run_kernel,
                                  run_kernel_batch, run_kernel_safe)
from repro.kernels import KERNELS

GEMM = KERNELS["gemm"]
SMALL = {"n": 6}

#: A pickled ``KernelRun``'s state keys: every field, and no findings.
PICKLED_FIELDS = {
    "spec_name", "ftype", "mode", "mem_latency", "trace", "energy",
    "outputs", "golden", "asm", "exit_reason", "trap", "arrays",
    "text_range", "profile", "sim_seconds",
}


@pytest.fixture(autouse=True)
def cold_memo():
    runner._compile_memo.cache_clear()
    yield
    runner._compile_memo.cache_clear()


@pytest.fixture
def lint_calls(monkeypatch):
    """Programs linted during the test."""
    calls = []

    def counting(program, **kwargs):
        calls.append(program)
        return eager_lint(program, **kwargs)

    monkeypatch.setattr(lints, "lint_program", counting)
    return calls


def eager_findings(spec, ftype, mode):
    """Findings of an eager lint over a fresh compile of the point."""
    manual = mode == "manual"
    source = (spec.manual_source_fn if manual else spec.source_fn)(ftype)
    kernel = compile_source(source, vectorize_loops=mode == "auto",
                            **spec.compile_opts)
    result = eager_lint(kernel.program, vector_report=kernel.vector_report,
                        source=kernel.asm)
    return [f.to_dict() for f in result.findings]


def findings(kernel):
    return [f.to_dict() for f in kernel.lint_result.findings]


def test_fig1_sweep_never_lints(lint_calls):
    points = fig1_points(benchmarks=["atax"], ftypes=("float8",))
    outcomes = run_points(points)
    assert len(outcomes) == 3
    assert all(outcome.ok for outcome in outcomes.values())
    assert lint_calls == []


@pytest.mark.parametrize("name,ftype,mode", [
    ("gemm", "float16", "auto"),
    ("gemm", "float8", "manual"),
    ("atax", "float8", "auto"),
])
def test_reading_lint_lints_once_per_program(lint_calls, name, ftype, mode):
    spec = KERNELS[name]
    solo = run_kernel(spec, ftype, mode, params=SMALL)
    batch = run_kernel_batch(spec, ftype, mode, params=SMALL,
                             seeds=[0, 1, 2])
    # Read only after the shared program has run solo, batched and
    # under a fault campaign.
    run_campaign(spec, ftype, mode, runs=1, flips_per_run=4,
                 targets=TARGETS, params=SMALL, seed=3)
    assert lint_calls == []
    expected = eager_findings(spec, ftype, mode)
    assert expected
    kernel = compile_point(spec, ftype, mode)
    assert all(run.asm == kernel.asm for run in [solo, *batch])
    assert findings(kernel) == expected
    assert findings(compile_point(spec, ftype, mode)) == expected
    assert len(lint_calls) == 1


def test_cache_put_never_lints(tmp_path, lint_calls):
    point = SweepPoint("gemm", "float16", "auto")
    outcome = run_kernel_safe(GEMM, "float16", "auto", params=SMALL)
    assert outcome.ok
    cache = DiskResultCache(str(tmp_path))
    cache.put(point, outcome)
    back = cache.get(point)
    assert lint_calls == []
    assert set(back.run.__dict__) == PICKLED_FIELDS
    assert set(pickle.loads(pickle.dumps(back.run)).__dict__) \
        == PICKLED_FIELDS
    assert back.run.trace == outcome.run.trace
    # The findings stay one read away, on the program that ran.
    assert findings(compile_point(GEMM, "float16", "auto")) \
        == eager_findings(GEMM, "float16", "auto")
    assert len(lint_calls) == 1


def test_threads_reading_lint_of_a_fresh_kernel(lint_calls):
    run_kernel(GEMM, "float16alt", "auto", params=SMALL)
    kernel = compile_point(GEMM, "float16alt", "auto")
    workers = 4
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def work(index):
        barrier.wait()
        try:
            results[index] = findings(kernel)
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
    assert 1 <= len(lint_calls) <= workers  # racing reads may each lint
    expected = eager_findings(GEMM, "float16alt", "auto")
    for got in results:
        assert got == expected
    assert kernel.lint_result is kernel.lint_result
