"""Batch-axis vectorized smallFloat arithmetic with exact IEEE flags.

The lockstep engine (:mod:`repro.sim.lockstep`) executes one guest
instruction for N sweep points at once.  For the IEEE formats under
round-to-nearest-even -- the overwhelmingly dominant configuration of
every paper sweep -- this module computes the whole batch with a few
numpy operations while staying *bit-identical* to the softfloat core
(:mod:`repro.fp.arith`), flags included.

Correctness sketch (all arrays are binary64):

* Operands decode exactly: every smallFloat value is a binary64 value
  (p <= 24 << 53).  Products of two p-bit values are exact in binary64
  (2p <= 48).  Sums are captured exactly as a TwoSum pair ``(s, e)``
  with ``s = RN(a + b)`` and ``a + b = s + e``.
* The final rounding must be a *single* rounding of the exact value
  ``s + e`` to the target format.  Rounding s directly would double
  round, so ``s`` is first adjusted to *round-to-odd* (if ``e != 0``
  and s's last bit is even, nudge s one ulp toward e).  By the standard
  round-to-odd theorem, RNE_p(odd_q(x)) == RNE_p(x) for q >= p + 2;
  binary64 (53 bits) qualifies for every target here.  Where every sum
  of two finite values fits in 53 bits (binary16, binary8) an add needs
  no TwoSum at all: ``s`` is already exact.
* The one rounding is numpy's ``astype`` for binary32 and binary16.
  binary16alt and binary8 have no numpy dtype; they search a table of
  round-up thresholds (:func:`_round_up_thresholds`) whose ties already
  go to even and whose last entry is the overflow bound.
* Flags: after the nudge ``v`` is either exact or has an odd 53rd bit,
  so NX iff ``decode(result) != v``.  OF iff the rounded result is
  infinite while the exact value is finite.  UF follows the RISC-V
  tininess-after-rounding rule: tiny iff |exact| < 2^emin *
  (1 - 2^-(p+1)) (the point below which unbounded-range rounding stays
  under 2^emin); that threshold has at most p + 1 bits and an even
  53rd bit, so ``|v|`` decides it like the exact value.  UF is raised
  only together with NX.
* Anything this module cannot prove exact falls back: operations on
  NaN/infinity operands, non-RNE rounding, non-IEEE guest formats, and
  dot products whose accumulation leaves the double-double window.
  Callers re-run those lanes through the scalar core.

The same argument, one value at a time, gives the fast-path engine
(:mod:`repro.sim.blocks`) its FP core: :func:`scalar_ops` returns
add/sub/mul/fma over Python floats (which are binary64) that decode
exactly through ``struct``, take the exact value as ``s`` plus a TwoSum
residual, nudge ``s`` to round-to-odd and round once: a ``struct``
pack for binary32/binary16, a bisection of the same threshold table
for binary16alt/binary8.  Two facts make the scalar flags cheap: the overflow bound
``2^emax * (2 - 2^-p)`` and the tininess threshold both carry at most
``p + 1`` significand bits, so they are binary64 values with an even
last bit, and comparing the round-to-odd value against them decides
the comparison for the exact value.  The softfloat stays the oracle:
the tests compare both cores against it and against an independent
``fractions.Fraction`` model.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from typing import Callable, Dict, NamedTuple, Tuple

import numpy as np

from . import arith
from .convert import fcvt_f2f
from .flags import NV, OF, UF, NX
from .formats import FloatFormat
from .numpy_backend import from_bits
from .rounding import RoundingMode

#: Formats with a vectorized batch path (IEEE layouts only; guest
#: formats such as posit/MX always take the per-element codec path).
_SUPPORTED = ("binary32", "binary16", "binary16alt", "binary8")

_U32 = np.uint32
_U64 = np.uint64
_U8 = np.uint8


_suppressed = 0


class quiet_errors:
    """Silence invalid/overflow FP warnings for a whole region.

    The lockstep engine enters this once per run so the per-op
    ``np.errstate`` context (a measurable per-call cost at batch sizes
    of a few dozen) collapses to a no-op flag check."""

    def __enter__(self):
        global _suppressed
        if _suppressed == 0:
            self._old = np.seterr(invalid="ignore", over="ignore")
        else:
            self._old = None
        _suppressed += 1
        return self

    def __exit__(self, *exc):
        global _suppressed
        _suppressed -= 1
        if self._old is not None:
            np.seterr(**self._old)
        return False


def _quiet(fn):
    """Silence invalid/overflow warnings: NaN and infinity lanes flow
    through the vector arithmetic as placeholders before the fallback
    mask routes them to the scalar core."""

    def wrapper(*args, **kwargs):
        if _suppressed:
            return fn(*args, **kwargs)
        with np.errstate(invalid="ignore", over="ignore"):
            return fn(*args, **kwargs)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def batchable(fmt: FloatFormat) -> bool:
    """True when ``fmt`` has a vectorized RNE fast path."""
    return getattr(fmt, "ieee", True) and fmt.name in _SUPPORTED


# ----------------------------------------------------------------------
# Exact decode
# ----------------------------------------------------------------------
_TABLES: Dict[str, np.ndarray] = {}


def _table(fmt: FloatFormat) -> np.ndarray:
    """Bit pattern -> exact binary64 value, for widths <= 16."""
    table = _TABLES.get(fmt.name)
    if table is None:
        table = from_bits(np.arange(1 << fmt.width, dtype=np.uint64), fmt)
        table.setflags(write=False)
        _TABLES[fmt.name] = table
    return table


@_quiet
def decode(fmt: FloatFormat, bits: np.ndarray) -> np.ndarray:
    """Exact binary64 values of packed ``fmt`` bit patterns."""
    if fmt.width == 32:
        if bits.dtype != np.uint32 or not bits.flags.c_contiguous:
            bits = np.ascontiguousarray(bits, dtype=np.uint32)
        return bits.view(np.float32).astype(np.float64)
    return _table(fmt)[bits]


# ----------------------------------------------------------------------
# Rounding: binary64 (already round-to-odd adjusted) -> (bits, value)
# ----------------------------------------------------------------------
def _cast(v: np.ndarray, dtype) -> np.ndarray:
    """``astype`` with overflow warnings silenced (cheap when a
    :class:`quiet_errors` region is already active)."""
    if _suppressed:
        return v.astype(dtype)
    with np.errstate(over="ignore"):
        return v.astype(dtype)


def _odd_fix64(s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Adjust ``s = RN(x)`` so RNE-rounding it equals RNE-rounding x.

    ``x = s + e`` exactly.  Where the residual is non-zero and s's last
    significand bit is even, nudge s one binary64 ulp toward the
    residual (round-to-odd).
    """
    fix = (e != 0) & ((s.view(_U64) & _U64(1)) == 0)
    if not np.count_nonzero(fix):
        return s
    return np.where(fix, np.nextafter(s, np.copysign(np.inf, e)), s)


_MAGNITUDES: Dict[str, np.ndarray] = {}


def _magnitudes(fmt: FloatFormat) -> np.ndarray:
    """Exact values of the codes 0 .. ``max_finite``, ascending.

    Built in int32 rather than through ``from_bits``, whose int64
    temporaries would add ~1 MB to the peak RSS of a process that only
    ever runs the fast path."""
    mags = _MAGNITUDES.get(fmt.name)
    if mags is None:
        code = np.arange(fmt.max_finite + 1, dtype=np.int32)
        exp = np.maximum(code >> fmt.man_bits, 1)  # subnormals: as 1
        code -= (exp - 1) << fmt.man_bits  # significand with hidden bit
        exp += fmt.emin - 1 - fmt.man_bits
        mags = np.ldexp(code.astype(np.float64), exp)
        mags.setflags(write=False)
        _MAGNITUDES[fmt.name] = mags
    return mags


_THRESHOLDS: Dict[str, np.ndarray] = {}


def _round_up_thresholds(fmt: FloatFormat) -> np.ndarray:
    """Ascending binary64 array: ``t[k]`` is the smallest magnitude that
    RNE rounds above magnitude code ``k``.

    Neighbouring values of a format with at most 16 bits have an exact
    binary64 midpoint.  A midpoint goes to the even code, so above an
    even ``k`` the threshold is the next binary64 value.  The last entry
    is the overflow bound, so ``searchsorted(t, |v|, 'right')`` is the
    RNE magnitude code of ``v``, infinity included.
    """
    t = _THRESHOLDS.get(fmt.name)
    if t is None:
        mags = _magnitudes(fmt)
        t = np.empty_like(mags)
        np.add(mags[:-1], mags[1:], out=t[:-1])
        t[:-1] /= 2  # exact midpoints
        t[:-1:2] = np.nextafter(t[:-1:2], np.inf)  # even k: ties go down
        t[-1] = _overflow_bound(fmt)
        t.setflags(write=False)
        _THRESHOLDS[fmt.name] = t
    return t


def _encode_b32(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    f = _cast(v, np.float32)
    return f.view(_U32), f.astype(np.float64)


def _encode_b16(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    f = _cast(v, np.float16)
    return f.view(np.uint16).astype(_U32), f.astype(np.float64)


def _encode_by_table(fmt: FloatFormat,
                     v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """binary16alt/binary8: magnitude code from the threshold table,
    sign bit from binary64's."""
    code = np.searchsorted(_round_up_thresholds(fmt), np.abs(v), "right")
    bits = code.astype(_U32) | ((v.view(_U64) >> _U64(63)).astype(_U32)
                                << _U32(fmt.width - 1))
    return bits, _table(fmt)[bits]


_ENCODERS = {"binary32": _encode_b32, "binary16": _encode_b16}

#: Underflow-tininess thresholds: |exact| < 2^emin * (1 - 2^-(p+1))
#: means unbounded-range RNE stays below the smallest normal.
_TINY: Dict[str, float] = {}


def _tiny_threshold(fmt: FloatFormat) -> float:
    t = _TINY.get(fmt.name)
    if t is None:
        t = float(np.ldexp(1.0 - 2.0 ** -(fmt.precision + 1), fmt.emin))
        _TINY[fmt.name] = t
    return t


def _sum_is_exact(fmt: FloatFormat) -> bool:
    """True when the sum of any two finite ``fmt`` values is a binary64
    value: every bit from 2^(emax+1) down to the smallest subnormal's
    2^(emin-p+1) fits in 53 (binary16: 41, binary8: 33)."""
    return fmt.emax + 2 - (fmt.emin - fmt.precision + 1) <= 53


def _finish(fmt: FloatFormat, s: np.ndarray, e) -> Tuple[np.ndarray, np.ndarray]:
    """Round the exact value ``s + e`` into ``fmt`` with exact flags.

    ``s`` must be the binary64 RN of the exact value and ``e`` the exact
    residual (``None`` means exact-in-binary64, e.g. products).  Inputs
    must be finite; non-finite lanes are the caller's fallback problem.
    After the round-to-odd nudge ``v`` is exact or has an odd 53rd bit,
    so ``q != v`` is NX and ``|v|`` decides tininess like the exact
    value would.  Returns ``(bits, flags)`` as uint32/uint8 arrays.
    """
    v = s if e is None else _odd_fix64(s, e)
    encode = _ENCODERS.get(fmt.name)
    bits, q = encode(v) if encode else _encode_by_table(fmt, v)
    inexact = q != v
    flags = inexact.view(_U8)  # NX is bit 0
    overflow = np.isinf(q)
    if np.count_nonzero(overflow):
        flags = flags | overflow.view(_U8) * _U8(OF)
    underflow = inexact & (np.abs(v) < _tiny_threshold(fmt))
    if np.count_nonzero(underflow):
        flags = flags | underflow.view(_U8) * _U8(UF)
    return bits, flags


def _two_sum(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Knuth's exact TwoSum: a + b == s + e with s = RN(a + b)."""
    s = a + b
    bv = s - a
    e = (a - (s - bv)) + (b - bv)
    return s, e


def _round_finite(fmt: FloatFormat, s: np.ndarray, e
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_finish` with the non-finite lanes of ``s`` marked fallback.

    Every finite operand is at most 2^128 and every product of two at
    most 2^256, so a non-finite binary64 ``s`` means exactly that some
    operand was a NaN or an infinity."""
    fallback = ~np.isfinite(s)
    if np.count_nonzero(fallback):  # keep the finisher warning-free
        s = np.where(fallback, 0.0, s)
        if e is not None:
            e = np.where(fallback, 0.0, e)
    bits, flags = _finish(fmt, s, e)
    return bits, flags, fallback


# ----------------------------------------------------------------------
# Batched operations.  All take/return uint32 bit-pattern arrays and
# return ``(bits, flags, fallback)``: lanes in ``fallback`` must be
# recomputed through the scalar core (the vector results there are
# placeholders).
# ----------------------------------------------------------------------
@_quiet
def add(fmt: FloatFormat, a: np.ndarray, b: np.ndarray,
        sub: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    a64 = decode(fmt, a)
    b64 = decode(fmt, b)
    if sub:
        b64 = -b64
    if _sum_is_exact(fmt):
        return _round_finite(fmt, a64 + b64, None)
    return _round_finite(fmt, *_two_sum(a64, b64))


@_quiet
def mul(fmt: FloatFormat, a: np.ndarray, b: np.ndarray,
        src: FloatFormat = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a * b`` rounded into ``fmt``; ``src`` (default ``fmt``) is the
    operand format -- a narrower ``src`` models fmulex."""
    opfmt = src or fmt
    # exact: 2p <= 48 bits
    return _round_finite(fmt, decode(opfmt, a) * decode(opfmt, b), None)


@_quiet
def fma(fmt: FloatFormat, a: np.ndarray, b: np.ndarray, c: np.ndarray,
        negate_product: bool = False, negate_addend: bool = False,
        src: FloatFormat = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused multiply-add ``(-1)^np * a*b + (-1)^na * c`` (one rounding).

    ``src`` (default ``fmt``) is the format of ``a``/``b``; a narrower
    ``src`` models the expanding fmacex, whose product stays exact in
    binary64 just the same (2 * p_src <= 48)."""
    opfmt = src or fmt
    prod = decode(opfmt, a) * decode(opfmt, b)  # exact
    c64 = decode(fmt, c)
    if negate_product:
        prod = -prod
    if negate_addend:
        c64 = -c64
    return _round_finite(fmt, *_two_sum(prod, c64))


_CVT_TABLES: Dict[Tuple[str, str], Tuple[np.ndarray, np.ndarray]] = {}


def _cvt_table(src: FloatFormat, dst: FloatFormat):
    """``(bits, flags)`` of every ``src`` code converted to ``dst`` at
    RNE, from the scalar conversion itself."""
    table = _CVT_TABLES.get((src.name, dst.name))
    if table is None:
        rows = [fcvt_f2f(src, dst, code, _RNE)
                for code in range(1 << src.width)]
        table = (np.array([b for b, _ in rows], dtype=_U32),
                 np.array([f for _, f in rows], dtype=np.uint8))
        _CVT_TABLES[(src.name, dst.name)] = table
    return table


@_quiet
def cvt(src: FloatFormat, dst: FloatFormat,
        a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Format conversion (fcvt.f2f): exact value, one rounding.  An
    8-bit source reads its 256-entry table and never falls back."""
    if src.width == 8:
        bits, flags = _cvt_table(src, dst)
        return bits[a], flags[a], np.zeros(a.shape, dtype=bool)
    return _round_finite(dst, decode(src, a), None)


def _signaling(fmt: FloatFormat, bits: np.ndarray,
               nan: np.ndarray) -> np.ndarray:
    quiet_bit = _U32(1 << (fmt.man_bits - 1))
    return nan & ((bits.astype(_U32) & quiet_bit) == 0)


@_quiet
def cmp(fmt: FloatFormat, op: str, a: np.ndarray,
        b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """feq/flt/fle across the batch.  No fallback lanes: NaN semantics
    are computed exactly (quiet compare for eq, signaling for lt/le)."""
    a64 = decode(fmt, a)
    b64 = decode(fmt, b)
    a_nan = np.isnan(a64)
    b_nan = np.isnan(b64)
    if op == "eq":
        result = a64 == b64
        invalid = _signaling(fmt, a, a_nan) | _signaling(fmt, b, b_nan)
    elif op == "lt":
        result = a64 < b64
        invalid = a_nan | b_nan
    else:  # "le"
        result = a64 <= b64
        invalid = a_nan | b_nan
    return result.astype(_U32), invalid.view(np.uint8) * np.uint8(NV)


@_quiet
def dotp(src: FloatFormat, dst: FloatFormat, acc: np.ndarray,
         a: np.ndarray, b: np.ndarray,
         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """vfdotpex.s.*: exact expanding dot product with one dst rounding.

    ``a`` and ``b`` are ``(nl, n)`` arrays of ``src`` bit patterns, one
    row per sub-lane; all products are formed at once.  The exact
    accumulation is tracked as a double-double ``(hi, lo)`` grown with
    TwoSum; any lane whose accumulation sheds a bit past the 106-bit
    window (or touches a non-finite value, or sums to exactly zero,
    whose sign needs the scalar core's rule) is marked fallback.
    """
    hi = decode(dst, acc)
    terms = decode(src, a) * decode(src, b)  # exact: 2p <= 22 bits
    lo = np.zeros_like(hi)
    exact = np.ones(hi.shape, dtype=bool)
    for term in terms:
        sh, eh = _two_sum(hi, term)
        sl, el = _two_sum(lo, eh)
        exact &= el == 0
        hi, lo = _two_sum(sh, sl)  # renormalize, exactly
    # A NaN or infinity anywhere leaves hi non-finite.
    fallback = ~(np.isfinite(hi) & exact) | (hi == 0.0)
    if np.count_nonzero(fallback):
        hi = np.where(fallback, 0.0, hi)
        lo = np.where(fallback, 0.0, lo)
    bits, flags = _finish(dst, hi, lo)
    return bits, flags, fallback


# ----------------------------------------------------------------------
# Scalar counterparts for the fast-path engine: Python floats instead of
# arrays, same exact-then-round-once argument, same flags.  Only RNE is
# covered; the binders route every other mode to the softfloat.
# ----------------------------------------------------------------------
_F32 = struct.Struct("<f")
_F16 = struct.Struct("<e")
_U32S = struct.Struct("<I")
_U16S = struct.Struct("<H")
_F64 = struct.Struct("<d")
_U64S = struct.Struct("<Q")

_RNE = RoundingMode.RNE


def _overflow_bound(fmt: FloatFormat) -> float:
    """Smallest magnitude RNE rounds to infinity: the midpoint between
    the largest finite value and 2^(emax+1), which rounds up because the
    largest finite significand is odd."""
    return math.ldexp(2.0 - 2.0 ** -fmt.precision, fmt.emax)


def _decoder_encoder(fmt: FloatFormat):
    """``(decode, encode)`` for one format.

    ``decode(bits)`` is the exact value; ``encode(v)`` rounds a finite,
    non-overflowing binary64 value (already round-to-odd adjusted) to
    ``(bits, value)``.  binary32 and binary16 round with a ``struct``
    pack; binary16alt and binary8 have no struct code and bisect the
    magnitude in :func:`_round_up_thresholds`.
    """
    f32_pack, f32_unpack = _F32.pack, _F32.unpack
    u32_pack, u32_unpack = _U32S.pack, _U32S.unpack
    f16_pack, f16_unpack = _F16.pack, _F16.unpack
    u16_pack, u16_unpack = _U16S.pack, _U16S.unpack

    if fmt.name == "binary32":
        def decode(bits):
            return f32_unpack(u32_pack(bits))[0]

        def encode(v):
            raw = f32_pack(v)
            return u32_unpack(raw)[0], f32_unpack(raw)[0]
        return decode, encode
    if fmt.name == "binary16":
        def decode(bits):
            return f16_unpack(u16_pack(bits))[0]

        def encode(v):
            raw = f16_pack(v)
            return u16_unpack(raw)[0], f16_unpack(raw)[0]
        return decode, encode

    if fmt.name == "binary16alt":
        def decode(bits):
            return f32_unpack(u32_pack(bits << 16))[0]
    else:  # binary8
        decode = _table(fmt).tolist().__getitem__
    # Views of the numpy tables, not lists: a list of binary16alt's
    # 32,640 floats would take ~1 MB per table.
    thresholds = memoryview(_round_up_thresholds(fmt))
    mags = memoryview(_magnitudes(fmt))
    sign = fmt.sign_mask
    copysign = math.copysign

    def encode(v):
        if v > 0:
            code = bisect_right(thresholds, v)
            return code, mags[code]
        if v < 0:
            code = bisect_right(thresholds, -v)
            return code | sign, -mags[code]
        return (sign if copysign(1.0, v) < 0 else 0), v
    return decode, encode


class ScalarOps(NamedTuple):
    """RNE arithmetic on packed bit patterns of one IEEE format.

    Every function returns ``(bits, fflags)`` bit-identical to the
    matching :mod:`repro.fp.arith` call at ``RoundingMode.RNE``; NaN and
    infinity operands are passed to that call.
    """

    add: Callable[[int, int], Tuple[int, int]]
    sub: Callable[[int, int], Tuple[int, int]]
    mul: Callable[[int, int], Tuple[int, int]]
    #: ``fma(a, b, c, negate_product=False, negate_addend=False)``.
    fma: Callable[..., Tuple[int, int]]


_SCALAR: Dict[str, ScalarOps] = {}


def scalar_ops(fmt: FloatFormat) -> ScalarOps:
    """The scalar RNE core for a :func:`batchable` format."""
    ops = _SCALAR.get(fmt.name)
    if ops is None:
        ops = _SCALAR[fmt.name] = _build_scalar_ops(fmt)
    return ops


def _build_scalar_ops(fmt: FloatFormat) -> ScalarOps:
    if not batchable(fmt):
        raise ValueError(f"{fmt.name} has no exact binary64 core")
    decode, encode = _decoder_encoder(fmt)
    special = fmt.exp_mask << fmt.man_bits  # exponent all ones: NaN/inf
    ovf = _overflow_bound(fmt)
    tiny = _tiny_threshold(fmt)
    pos_inf, neg_inf = fmt.pos_inf, fmt.neg_inf
    f64_pack, u64_unpack = _F64.pack, _U64S.unpack
    nextafter, inf = math.nextafter, math.inf

    def round_sum(x, y):
        # TwoSum: x + y == s + e exactly, s = RN64(x + y).  Round-to-odd
        # first, so the format rounding below is the single rounding of
        # the exact sum.
        s = x + y
        t = s - x
        e = (x - (s - t)) + (y - t)
        v = s
        if e and not u64_unpack(f64_pack(s))[0] & 1:
            v = nextafter(s, inf if e > 0 else -inf)
        mag = abs(v)
        if mag >= ovf:
            return (neg_inf if v < 0 else pos_inf), OF | NX
        bits, q = encode(v)
        if q == v:  # never when e != 0: v then has an odd 53rd bit
            return bits, 0
        return bits, (UF | NX) if mag < tiny else NX

    def add(a, b):
        if (a & special) == special or (b & special) == special:
            return arith.fadd(fmt, a, b, _RNE)
        return round_sum(decode(a), decode(b))

    def sub(a, b):
        if (a & special) == special or (b & special) == special:
            return arith.fsub(fmt, a, b, _RNE)
        return round_sum(decode(a), -decode(b))

    def mul(a, b):
        if (a & special) == special or (b & special) == special:
            return arith.fmul(fmt, a, b, _RNE)
        # The product is exact (2p <= 48 bits); adding -0.0 keeps every
        # value, the sign of zero included.
        return round_sum(decode(a) * decode(b), -0.0)

    def fma(a, b, c, negate_product=False, negate_addend=False):
        if ((a & special) == special or (b & special) == special
                or (c & special) == special):
            return arith.ffma(fmt, a, b, c, _RNE, negate_product,
                              negate_addend)
        p = decode(a) * decode(b)
        z = decode(c)
        return round_sum(-p if negate_product else p,
                         -z if negate_addend else z)

    return ScalarOps(add, sub, mul, fma)
