"""The lint checks, their severities, line numbers and suppressions."""

import pytest

from repro.analysis import LintConfig, lint_program
from repro.compiler import compile_source
from repro.isa.assembler import assemble
from repro.kernels import KERNELS


def lint_text(source, **kwargs):
    return lint_program(assemble(source), source=source, **kwargs)


def checks_of(result):
    return [f.check for f in result.findings]


# ----------------------------------------------------------------------
# use-before-def
# ----------------------------------------------------------------------
def test_use_before_def_flags_unwritten_temporary():
    result = lint_text("""\
kernel:
    add a0, t3, t4
    ret
""")
    found = result.by_check("use-before-def")
    assert len(found) == 2
    assert all(f.severity == "error" for f in found)
    assert found[0].line == 2
    messages = " ".join(f.message for f in found)
    assert "t3" in messages and "t4" in messages


def test_use_before_def_accepts_abi_arguments():
    result = lint_text("""\
kernel:
    add a0, a1, a2
    ret
""")
    assert result.by_check("use-before-def") == []


def test_use_before_def_one_path_only():
    result = lint_text("""\
kernel:
    beq a0, zero, skip
    li t0, 1
skip:
    mv a1, t0
    ret
""")
    found = result.by_check("use-before-def")
    assert len(found) == 1
    assert found[0].line == 5


def test_prologue_spill_of_callee_saved_not_flagged():
    result = lint_text("""\
kernel:
    addi sp, sp, -8
    sw s0, 0(sp)
    sw s1, 4(sp)
    li s0, 1
    li s1, 2
    add a0, s0, s1
    lw s0, 0(sp)
    lw s1, 4(sp)
    addi sp, sp, 8
    ret
""")
    assert result.by_check("use-before-def") == []


# ----------------------------------------------------------------------
# format-mismatch
# ----------------------------------------------------------------------
def test_format_mismatch_between_smallfloat_formats():
    result = lint_text("""\
kernel:
    fcvt.b.s t1, a0
    fadd.h t2, t1, t1
    ret
""")
    found = result.by_check("format-mismatch")
    assert len(found) >= 1
    assert found[0].severity == "error"
    assert found[0].line == 3
    assert ".b" in found[0].message and "fadd.h" in found[0].message
    assert found[0].suggestion.startswith("fcvt.h.b")


def test_no_mismatch_after_conversion():
    result = lint_text("""\
kernel:
    fcvt.b.s t1, a0
    fcvt.h.b t1, t1
    fadd.h t2, t1, t1
    ret
""")
    assert result.by_check("format-mismatch") == []


def test_binary16_vs_binary16alt_mismatch_detected():
    # Same width, different exponent split: invisible at run time,
    # which is exactly why the static check exists.
    result = lint_text("""\
kernel:
    fcvt.ah.s t1, a0
    fadd.h t2, t1, t1
    ret
""")
    found = result.by_check("format-mismatch")
    assert len(found) >= 1
    assert "binary16alt" in found[0].message


def test_loads_carry_no_format_evidence():
    # In the merged register file, lw legitimately loads packed
    # smallFloat data; the checker must stay silent.
    result = lint_text("""\
kernel:
    lw t1, 0(a0)
    vfadd.b t2, t1, t1
    ret
""")
    assert result.by_check("format-mismatch") == []


# ----------------------------------------------------------------------
# narrow-accumulation
# ----------------------------------------------------------------------
DOT_PRODUCT_SCALAR = """\
dot:
    li t0, 0
    fcvt.b.s t2, zero
loop:
    lbu t3, 0(a0)
    lbu t4, 0(a1)
    fmul.b t5, t3, t4
    fadd.b t2, t2, t5
    addi a0, a0, 1
    addi a1, a1, 1
    addi t0, t0, 1
    blt t0, a2, loop
    mv a0, t2
    ret
"""


def test_narrow_accumulation_scalar_suggests_fmacex():
    result = lint_text(DOT_PRODUCT_SCALAR)
    found = result.by_check("narrow-accumulation")
    assert len(found) == 1
    assert found[0].suggestion == "fmacex.s.b"
    assert found[0].line == 8
    assert "binary32" in found[0].message


def test_narrow_accumulation_vector_product_suggests_vfdotpex():
    result = lint_text("""\
dot:
    li t0, 0
loop:
    lw t3, 0(a0)
    lw t4, 0(a1)
    vfmul.b t5, t3, t4
    fadd.b t2, t2, t5
    addi t0, t0, 1
    blt t0, a2, loop
    ret
""")
    found = result.by_check("narrow-accumulation")
    assert len(found) == 1
    assert found[0].suggestion == "vfdotpex.s.b"


def test_expanding_accumulation_is_clean():
    result = lint_text("""\
dot:
    li t0, 0
    fcvt.s.w t2, zero
loop:
    lw t3, 0(a0)
    lw t4, 0(a1)
    vfdotpex.s.b t2, t3, t4
    addi t0, t0, 1
    blt t0, a2, loop
    mv a0, t2
    ret
""")
    assert result.by_check("narrow-accumulation") == []


def test_accumulation_outside_loop_not_flagged():
    result = lint_text("""\
kernel:
    fadd.b t2, t2, t3
    ret
""")
    assert result.by_check("narrow-accumulation") == []


# ----------------------------------------------------------------------
# dead-write / redundant-convert / uninitialized-load
# ----------------------------------------------------------------------
def test_dead_write_detected():
    result = lint_text("""\
kernel:
    li t0, 7
    li a0, 1
    ret
""")
    found = result.by_check("dead-write")
    assert len(found) == 1
    assert found[0].line == 2
    assert "t0" in found[0].message


def test_stored_and_returned_values_are_not_dead():
    result = lint_text("""\
kernel:
    li t0, 7
    sw t0, 0(a0)
    li a0, 1
    ret
""")
    assert result.by_check("dead-write") == []


def test_redundant_convert_round_trips():
    result = lint_text("""\
kernel:
    fcvt.b.s t1, a0
    fcvt.s.b t2, t1
    fcvt.b.s t3, t2
    sw t3, 0(a1)
    ret
""")
    found = result.by_check("redundant-convert")
    # Two chained round trips: .s -> .b -> .s (the original binary32
    # value was rounded to binary8 in the middle: lossy) and
    # .b -> .s -> .b (widening intermediate: lossless).
    assert [("LOSSY" in f.message, f.line) for f in found] == \
        [(True, 3), (False, 4)]


def test_lossy_round_trip_called_out():
    result = lint_text("""\
kernel:
    fcvt.b.h t1, a0
    fcvt.h.b t2, t1
    sw t2, 0(a1)
    ret
""")
    found = result.by_check("redundant-convert")
    assert len(found) == 1
    assert "LOSSY" in found[0].message


def test_uninitialized_load_from_reserved_space():
    result = lint_text("""\
    .data
buf:
    .space 16
    .text
kernel:
    la t0, buf
    lw a0, 0(t0)
    ret
""")
    found = result.by_check("uninitialized-load")
    assert len(found) == 1
    assert "buf" in found[0].message


def test_reserved_space_with_store_is_clean():
    result = lint_text("""\
    .data
buf:
    .space 16
    .text
kernel:
    la t0, buf
    sw a1, 0(t0)
    lw a0, 0(t0)
    ret
""")
    assert result.by_check("uninitialized-load") == []


# ----------------------------------------------------------------------
# missed-vectorization / unreachable-code
# ----------------------------------------------------------------------
def test_missed_vectorization_hint_on_scalar_loop():
    result = lint_text(DOT_PRODUCT_SCALAR)
    found = result.by_check("missed-vectorization")
    assert len(found) == 1
    assert found[0].severity == "note"
    assert "4 .b elements" in found[0].message


def test_vectorized_loop_not_hinted():
    result = lint_text("""\
kernel:
    li t0, 0
loop:
    lw t3, 0(a0)
    vfadd.b t4, t4, t3
    addi t0, t0, 1
    blt t0, a1, loop
    ret
""")
    assert result.by_check("missed-vectorization") == []


def test_unreachable_code_reported_as_note():
    result = lint_text("""\
kernel:
    ret
    addi t0, t0, 1
    ret
""")
    found = result.by_check("unreachable-code")
    assert len(found) == 1
    assert found[0].severity == "note"


# ----------------------------------------------------------------------
# Config, suppression, output
# ----------------------------------------------------------------------
def test_suppression_comment_by_check_name():
    source = """\
kernel:
    add a0, t3, t3  # lint: ignore[use-before-def]
    ret
"""
    result = lint_text(source)
    assert result.by_check("use-before-def") == []


def test_suppression_comment_bare_suppresses_all():
    source = """\
kernel:
    add a0, t3, t3  # lint: ignore
    ret
"""
    assert lint_text(source).findings == []


def test_suppression_of_other_check_does_not_hide():
    source = """\
kernel:
    add a0, t3, t3  # lint: ignore[dead-write]
    ret
"""
    assert lint_text(source).by_check("use-before-def") != []


def test_disabled_check_does_not_run():
    config = LintConfig(disabled={"use-before-def"})
    result = lint_text("kernel:\n    add a0, t3, t3\n    ret\n",
                       config=config)
    assert result.by_check("use-before-def") == []


def test_min_severity_filter():
    config = LintConfig(min_severity="error")
    result = lint_text(DOT_PRODUCT_SCALAR, config=config)
    assert result.findings == []  # only warnings/notes in this program


def test_findings_sorted_most_severe_first():
    result = lint_text("""\
kernel:
    li t6, 1
    add a0, t3, t3
    ret
""")
    severities = [f.severity for f in result.findings]
    assert severities == sorted(
        severities, key=["error", "warning", "note"].index)


def test_payload_and_render():
    result = lint_text(DOT_PRODUCT_SCALAR)
    payload = result.to_payload()
    assert payload["counts"]["narrow-accumulation"] == 1
    assert all("check" in f and "severity" in f
               for f in payload["findings"])
    text = result.render_text()
    assert "narrow-accumulation" in text
    assert "line 8" in text


def test_clean_program_has_no_findings():
    result = lint_text("""\
kernel:
    add a0, a0, a1
    ret
""")
    assert result.findings == []
    assert result.max_severity() is None
    assert result.render_text() == "no findings"


# ----------------------------------------------------------------------
# Compiler integration
# ----------------------------------------------------------------------
def test_compile_source_attaches_lint_result():
    source = KERNELS["atax"].source_fn("float8")
    kernel = compile_source(source, vectorize_loops=True)
    assert kernel.lint_result is not None
    suggestions = {f.suggestion for f in kernel.lint_findings}
    assert "vfdotpex.s.b" in suggestions


def test_compile_source_lints_on_first_read(monkeypatch):
    from repro.analysis import lints

    calls = []
    real = lints.lint_program

    def counting(program, **kwargs):
        calls.append(program)
        return real(program, **kwargs)

    monkeypatch.setattr(lints, "lint_program", counting)
    kernel = compile_source(KERNELS["atax"].source_fn("float8"))
    assert calls == []
    with pytest.raises(TypeError):
        compile_source(KERNELS["atax"].source_fn("float8"), lint=False)
    first = kernel.lint_result
    assert kernel.lint_result is first
    assert calls == [kernel.program]


def test_compiled_kernels_have_no_lint_errors():
    for name in ("gemm", "svm"):
        source = KERNELS[name].source_fn("float16")
        kernel = compile_source(source)
        assert kernel.lint_result.errors() == [], name


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_all_kernels_lint_fast(name):
    source = KERNELS[name].source_fn("float8")
    kernel = compile_source(source)
    result = lint_program(kernel.program, source=kernel.asm)
    assert result.elapsed < 1.0  # whole-suite budget is 10 s


# ----------------------------------------------------------------------
# NN idiom recognition (multiply-widen-accumulate reductions)
# ----------------------------------------------------------------------
class TestNNIdiomRecognition:
    """The NN kernels accumulate widened narrow products in binary32;
    the lints must point at the expanding ops that fuse the chain."""

    def _findings(self, check, **compile_kwargs):
        source = KERNELS["nn_mlp_fwd"].source_fn("float8")
        kernel = compile_source(source, **compile_kwargs)
        return [f for f in kernel.lint_findings if f.check == check]

    def test_scalar_idiom_suggests_fmacex(self):
        notes = self._findings("narrow-accumulation")
        assert notes, "scalar multiply-widen-add must be recognized"
        assert all(f.severity == "note" for f in notes)
        assert {f.suggestion for f in notes} == {"fmacex.s.b"}
        assert "fcvt.s.b" in notes[0].message

    def test_scalar_reduction_suggests_vfdotpex(self):
        notes = self._findings("missed-vectorization")
        dotp = [f for f in notes if "vfdotpex.s.b" in (f.suggestion or "")]
        assert dotp, "reduction loops must get the vfdotpex suggestion"
        assert "expanding_reductions=True" in dotp[0].suggestion
        # A block format is registered, so the fused-block op is named.
        assert any("vfdotpmx.s.mx" in f.message for f in dotp)

    def test_unpacked_vector_idiom_suggests_vfdotpex(self):
        notes = self._findings("narrow-accumulation",
                               vectorize_loops=True)
        vec = [f for f in notes if f.suggestion == "vfdotpex.s.b"]
        assert vec, "lane-unpack accumulation must be recognized"
        assert "unpacked" in vec[0].message
        assert any("vfdotpmx.s.mx" in f.message for f in vec)

    def test_expanding_compile_quiets_vector_notes(self):
        spec = KERNELS["nn_mlp_fwd"]
        kernel = compile_source(spec.source_fn("float8"),
                                vectorize_loops=True, **spec.compile_opts)
        vec = [f for f in kernel.lint_findings
               if f.check == "narrow-accumulation"
               and f.suggestion == "vfdotpex.s.b"]
        assert vec == [], "vfdotpex loops must not re-trigger the note"

    def test_wide_elements_not_flagged(self):
        source = KERNELS["nn_mlp_fwd"].source_fn("float")
        kernel = compile_source(source)
        assert [f for f in kernel.lint_findings
                if f.check == "narrow-accumulation"] == []
