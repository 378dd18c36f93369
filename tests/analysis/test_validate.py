"""Trace validation: replaying static verdicts against dynamic runs."""

from repro.analysis import lint_program, validate_findings, validate_result
from repro.analysis.lints import LintFinding
from repro.harness import compile_point, run_kernel
from repro.isa.assembler import assemble
from repro.kernels import KERNELS
from repro.sim import Simulator
from repro.sim.tracer import Trace


def test_trace_records_pc_counts():
    program = assemble("""\
main:
    li t0, 0
loop:
    addi t0, t0, 1
    blt t0, a0, loop
    ret
""")
    sim = Simulator(program)
    result = sim.run("main", args={10: 5})
    loop_addr = program.address_of("loop")
    assert result.trace.executed(loop_addr) == 5
    assert result.trace.executed(program.text_base) == 1
    assert result.trace.executed(0xDEAD0000) == 0


def test_confirmed_and_not_executed_verdicts():
    source = """\
main:
    beq a0, zero, cold
    fadd.b t1, t2, t2
    ret
cold:
    fadd.b t3, t4, t4
    ret
"""
    program = assemble(source)
    lint = lint_program(program, source=source)
    flagged_lines = {f.line for f in lint.by_check("use-before-def")}
    assert {3, 6} <= flagged_lines

    sim = Simulator(program)
    run = sim.run("main", args={10: 1})  # takes the hot path only
    report = validate_findings(lint.findings, run.trace)
    by_line = {r.finding.line: r.verdict for r in report.results
               if r.finding.check == "use-before-def"}
    assert by_line[3] == "confirmed"
    assert by_line[6] == "not-executed"
    assert report.counts()["confirmed"] >= 1


def test_unreachable_claim_vindicated_by_trace():
    source = """\
main:
    ret
    addi t0, t0, 1
    ret
"""
    program = assemble(source)
    lint = lint_program(program, source=source)
    sim = Simulator(program)
    run = sim.run("main")
    report = validate_findings(lint.findings, run.trace)
    unreachable = [r for r in report.results
                   if r.finding.check == "unreachable-code"]
    assert unreachable and unreachable[0].verdict == "vindicated"
    assert unreachable[0] in report.confirmed()


def test_program_level_findings_have_no_location():
    finding = LintFinding(check="missed-vectorization", severity="note",
                          message="summary")
    report = validate_findings([finding], Trace())
    assert report.results[0].verdict == "no-location"


def test_validate_result_severity_filter():
    source = """\
main:
    add a0, t3, t3
    li t1, 9
    ret
"""
    program = assemble(source)
    lint = lint_program(program, source=source)
    sim = Simulator(program)
    run = sim.run("main")
    report = validate_result(lint, run.trace, min_severity="error")
    assert all(r.finding.severity == "error" for r in report.results)
    assert report.results  # the use-before-def error is in there


def test_kernel_narrow_accumulation_confirmed_dynamically():
    """The acceptance path: a static finding on a real kernel build is
    confirmed by the execution trace of the very same program."""
    run = run_kernel(KERNELS["atax"], "float8", "auto")
    lint = compile_point(KERNELS["atax"], "float8", "auto").lint_result
    report = validate_findings(lint.findings, run.trace)
    confirmed = [r for r in report.confirmed()
                 if r.finding.check == "narrow-accumulation"]
    assert confirmed, "no narrow-accumulation finding executed"
    assert all(r.executions > 0 for r in confirmed)
    suggestions = {r.finding.suggestion for r in confirmed}
    assert "vfdotpex.s.b" in suggestions


def test_validation_payload_and_text():
    source = "main:\n    add a0, t3, t3\n    ret\n"
    program = assemble(source)
    lint = lint_program(program, source=source)
    sim = Simulator(program)
    run = sim.run("main")
    report = validate_findings(lint.findings, run.trace)
    payload = report.to_payload()
    assert payload["counts"]["confirmed"] >= 1
    assert all("verdict" in r and "executions" in r
               for r in payload["results"])
    text = report.render_text()
    assert "[confirmed]" in text
