"""The vectorized FP core against the exact oracle.

:mod:`repro.fp.batch` runs every lockstep lane of an add, sub, mul,
FMA, conversion or expanding dot product in one numpy call.  The
engine differential tests compare it with the scalar engines; this file
compares it with the ``fractions.Fraction`` oracle of
``test_exact_oracle.py``, which shares no code with :mod:`repro.fp`.

Each batched call returns ``(bits, flags, fallback)``.  Lanes outside
``fallback`` must equal the oracle bit for bit, flags included.  For
add/sub/mul/FMA the fallback lanes must be exactly those with a NaN or
infinite operand, so nothing finite escapes the check.  binary8
add/sub/mul run every operand pair as one 65,536-lane call.  The wider
formats draw whole batches from the biased strategies of the scalar
oracle tests (subnormals, ties, the overflow bound, the tininess
threshold, wide exponent gaps).  The round-up threshold tables that
encode binary16alt and binary8 are checked on every midpoint.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fp import BINARY8, BINARY16, BINARY16ALT, BINARY32
from repro.fp import batch as fpbatch

from .test_exact_oracle import (
    GEOMETRY, NV, decode, fma_triple, mul_pair, operand, oracle,
    round_rne, sum_pair)

FORMATS = [BINARY16, BINARY16ALT, BINARY32]
IDS = [f.name for f in FORMATS]
ALL_FORMATS = [BINARY8] + FORMATS
ALL_IDS = [f.name for f in ALL_FORMATS]

#: Each example is a whole batch of up to 48 lanes.
SAMPLES = settings(max_examples=100, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large])


def _arr(values):
    return np.array(values, dtype=np.uint32)


def _special(g, bits):
    return decode(g, bits)[0] != "num"


def check_batch(fmt, name, result, operands, extra=()):
    """Compare one batched result with the oracle, lane by lane.

    ``operands`` holds one sequence of bit patterns per operand;
    ``extra`` are per-call arguments passed on to the oracle."""
    g = GEOMETRY[fmt.name]
    bits, flags, fallback = result
    assert bits.dtype == np.uint32 and flags.dtype == np.uint8
    lanes = list(zip(*operands))
    assert bits.shape == flags.shape == fallback.shape == (len(lanes),)
    for lane, ops in enumerate(lanes):
        special = any(_special(g, x) for x in ops)
        assert bool(fallback[lane]) == special, (
            f"{fmt.name} {name}{ops}: fallback {bool(fallback[lane])}")
        if special:
            continue
        want = oracle(name, g, *ops, *extra)
        got = (int(bits[lane]), int(flags[lane]))
        assert got == want, f"{fmt.name} {name}{ops}{extra}: {got} != {want}"


# ----------------------------------------------------------------------
# binary8: every operand pair, as one call
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["add", "sub", "mul"])
def test_binary8_exhaustive_one_call(name):
    a, b = np.meshgrid(np.arange(256, dtype=np.uint32),
                       np.arange(256, dtype=np.uint32))
    a, b = a.ravel(), b.ravel()
    if name == "mul":
        result = fpbatch.mul(BINARY8, a, b)
    else:
        result = fpbatch.add(BINARY8, a, b, sub=name == "sub")
    check_batch(BINARY8, name, result, (a.tolist(), b.tolist()))


# ----------------------------------------------------------------------
# 16/32-bit formats: hypothesis-biased batches
# ----------------------------------------------------------------------
def batches(strategy):
    return st.lists(strategy, min_size=1, max_size=48)


@pytest.mark.parametrize("fmt", FORMATS, ids=IDS)
@pytest.mark.parametrize("name", ["add", "sub"])
@given(data=st.data())
@SAMPLES
def test_sum_batch_against_oracle(fmt, name, data):
    a, b = zip(*data.draw(batches(sum_pair(fmt))))
    result = fpbatch.add(fmt, _arr(a), _arr(b), sub=name == "sub")
    check_batch(fmt, name, result, (a, b))


@pytest.mark.parametrize("fmt", FORMATS, ids=IDS)
@given(data=st.data())
@SAMPLES
def test_mul_batch_against_oracle(fmt, data):
    a, b = zip(*data.draw(batches(mul_pair(fmt))))
    check_batch(fmt, "mul", fpbatch.mul(fmt, _arr(a), _arr(b)), (a, b))


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=ALL_IDS)
@given(data=st.data())
@SAMPLES
def test_fma_batch_against_oracle(fmt, data):
    a, b, c = zip(*data.draw(batches(fma_triple(fmt))))
    negate_product = data.draw(st.booleans())
    negate_addend = data.draw(st.booleans())
    result = fpbatch.fma(fmt, _arr(a), _arr(b), _arr(c),
                         negate_product=negate_product,
                         negate_addend=negate_addend)
    check_batch(fmt, "fma", result, (a, b, c),
                (negate_product, negate_addend))


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------
def oracle_cvt(src, dst, bits):
    u = decode(src, bits)
    if u[0] == "nan":
        return dst.qnan, NV if u[1] else 0
    if u[0] == "inf":
        return dst.inf(u[1]), 0
    if u[2] == 0:
        return dst.zero(u[1]), 0
    return round_rne(dst, -u[2] if u[1] else u[2])


def check_cvt(src, dst, a):
    gs, gd = GEOMETRY[src.name], GEOMETRY[dst.name]
    bits, flags, fallback = fpbatch.cvt(src, dst, _arr(a))
    for lane, x in enumerate(a):
        # A table-driven (8-bit) source covers NaN and infinity itself.
        assert bool(fallback[lane]) == (
            src.width > 8 and _special(gs, x)), (src.name, dst.name, x)
        if not fallback[lane]:
            got = (int(bits[lane]), int(flags[lane]))
            assert got == oracle_cvt(gs, gd, x), (src.name, dst.name, x)


PAIRS = [(s, d) for s in ALL_FORMATS for d in ALL_FORMATS if s is not d]
PAIR_IDS = [f"{s.name}-{d.name}" for s, d in PAIRS]


@pytest.mark.parametrize("dst", FORMATS, ids=IDS)
def test_cvt_from_binary8_exhaustive(dst):
    check_cvt(BINARY8, dst, list(range(256)))


@pytest.mark.parametrize("src,dst", PAIRS, ids=PAIR_IDS)
@given(data=st.data())
@SAMPLES
def test_cvt_batch_against_oracle(src, dst, data):
    check_cvt(src, dst, data.draw(batches(operand(src))))


# ----------------------------------------------------------------------
# Expanding dot products over (nl, n) sub-lane arrays
# ----------------------------------------------------------------------
def oracle_dotp(src, dst, acc, a_col, b_col):
    """``acc + sum(a * b)`` rounded once into ``dst``; ``None`` for the
    cases the batch core must leave to the scalar core (a NaN or
    infinity anywhere, or an exactly zero sum)."""
    ops = [decode(dst, acc)] + [decode(src, x) for x in a_col + b_col]
    if any(u[0] != "num" for u in ops):
        return None
    exact = -ops[0][2] if ops[0][1] else ops[0][2]
    for x, y in zip(a_col, b_col):
        ux, uy = decode(src, x), decode(src, y)
        p = ux[2] * uy[2]
        exact += -p if ux[1] ^ uy[1] else p
    if exact == 0:
        return None
    return round_rne(dst, exact)


@st.composite
def dotp_lane(draw, fmt, nl):
    """One lane: a binary32 accumulator and ``nl`` operand pairs, often
    cancelling so the sum lands near zero, a tie or the tiny range."""
    g32 = GEOMETRY["binary32"]
    pairs = [draw(mul_pair(fmt)) for _ in range(nl)]
    kind = draw(st.sampled_from(["free", "cancel", "zero"]))
    if kind == "free":
        acc = draw(operand(BINARY32))
    elif kind == "zero":
        acc = g32.zero(draw(st.integers(0, 1)))
    else:
        # acc = -RN32(first product): the rest of the sum decides.
        g = GEOMETRY[fmt.name]
        ua, ub = decode(g, pairs[0][0]), decode(g, pairs[0][1])
        if ua[0] == "num" and ub[0] == "num" and ua[2] and ub[2]:
            p = ua[2] * ub[2]
            acc, _ = round_rne(g32, p if ua[1] ^ ub[1] else -p)
        else:
            acc = draw(operand(BINARY32))
    return acc, [p[0] for p in pairs], [p[1] for p in pairs]


@pytest.mark.parametrize("fmt", [BINARY8, BINARY16, BINARY16ALT],
                         ids=["binary8", "binary16", "binary16alt"])
@given(data=st.data())
@SAMPLES
def test_dotp_batch_against_oracle(fmt, data):
    nl = 32 // fmt.width
    lanes = data.draw(batches(dotp_lane(fmt, nl)))
    acc = _arr([lane[0] for lane in lanes])
    a = _arr([lane[1] for lane in lanes]).T  # (nl, n)
    b = _arr([lane[2] for lane in lanes]).T
    assert a.shape == (nl, len(lanes))
    bits, flags, fallback = fpbatch.dotp(fmt, BINARY32, acc, a, b)
    gs, g32 = GEOMETRY[fmt.name], GEOMETRY["binary32"]
    for lane, (c, a_col, b_col) in enumerate(lanes):
        want = oracle_dotp(gs, g32, c, a_col, b_col)
        if want is None:
            assert fallback[lane], (fmt.name, c, a_col, b_col)
        elif not fallback[lane]:  # else: past the double-double window
            got = (int(bits[lane]), int(flags[lane]))
            assert got == want, (fmt.name, c, a_col, b_col, got, want)


def test_dotp_batch_finite_lanes_stay_batched():
    # Short binary16 dot products always fit the double-double window:
    # only the non-finite and the exactly-zero lanes fall back.
    one, two, inf, nan = 0x3C00, 0x4000, 0x7C00, 0x7E00
    a = _arr([[one, one, inf, one, two], [two, one, one, nan, two]])
    b = _arr([[one, 0xBC00, one, one, 0x0001], [one, one, one, one, 0x8001]])
    acc = _arr([0x3F800000, 0, 0, 0, 0x3F800000])
    bits, flags, fallback = fpbatch.dotp(BINARY16, BINARY32, acc, a, b)
    assert fallback.tolist() == [False, True, True, True, False]
    assert int(bits[0]) == 0x40800000 and int(flags[0]) == 0  # 1+1+2
    assert int(bits[4]) == 0x3F800000 and int(flags[4]) == 0  # exact


# ----------------------------------------------------------------------
# The round-up threshold tables (binary16alt and binary8 encoding)
# ----------------------------------------------------------------------
def _probe_values(fmt):
    """Every non-zero finite magnitude, every midpoint between
    neighbours and one binary64 ulp either side of it, and the overflow
    bound; both signs."""
    g = GEOMETRY[fmt.name]
    mags = [float(decode(g, k)[2]) for k in range(fmt.max_finite + 1)]
    mids = [(lo + hi) / 2 for lo, hi in zip(mags, mags[1:])]
    probes = [m for mid in mids
              for m in (math.nextafter(mid, -math.inf), mid,
                        math.nextafter(mid, math.inf))]
    bound = fpbatch._overflow_bound(fmt)
    probes += mags[1:] + [math.nextafter(bound, 0.0), bound]
    return probes + [-p for p in probes]


@pytest.mark.parametrize("fmt", [BINARY8, BINARY16ALT],
                         ids=["binary8", "binary16alt"])
def test_round_up_thresholds_against_oracle(fmt):
    g = GEOMETRY[fmt.name]
    probes = _probe_values(fmt)
    want = [round_rne(g, Fraction(v))[0] for v in probes]
    # The lockstep encoder: one searchsorted over the whole array.
    bits, _ = fpbatch._encode_by_table(fmt, np.array(probes))
    mismatches = [(v, int(x), w) for v, x, w in zip(probes, bits, want)
                  if int(x) != w]
    assert not mismatches, mismatches[:10]
    # The fast-path encoder: bisect, below the overflow bound.
    _, encode = fpbatch._decoder_encoder(fmt)
    bound = fpbatch._overflow_bound(fmt)
    mismatches = [(v, encode(v)[0], w) for v, w in zip(probes, want)
                  if abs(v) < bound and encode(v)[0] != w]
    assert not mismatches, mismatches[:10]
    # Zeros keep their sign.
    zeros = fpbatch._encode_by_table(fmt, np.array([0.0, -0.0]))[0]
    assert zeros.tolist() == [0, fmt.sign_mask]
    assert [encode(0.0)[0], encode(-0.0)[0]] == [0, fmt.sign_mask]


def test_round_up_thresholds_shape():
    for fmt, size in ((BINARY8, 124), (BINARY16ALT, 32640)):
        t = fpbatch._round_up_thresholds(fmt)
        assert t.size == size == fmt.max_finite + 1
        assert (np.diff(t) > 0).all()
        assert t[-1] == fpbatch._overflow_bound(fmt)


def test_exact_sum_rule_from_format_parameters():
    # binary16 sums span 41 bits and binary8 sums 33, so both fit in
    # binary64; binary16alt and binary32 sums can span hundreds.
    assert fpbatch._sum_is_exact(BINARY16)
    assert fpbatch._sum_is_exact(BINARY8)
    assert not fpbatch._sum_is_exact(BINARY16ALT)
    assert not fpbatch._sum_is_exact(BINARY32)
