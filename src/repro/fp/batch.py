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
  round-to-odd theorem, RNE_p(odd_q(x)) == RNE_p(x) for q >= 2p + 2;
  binary64 (53 bits) qualifies for every target here.  The two formats
  numpy cannot cast to directly (binary16alt, binary8) chain through an
  intermediate round-to-odd at binary32/binary16 -- legal because the
  intermediate keeps >= p + 2 bits and shares the target's emin, so
  subnormal grids align.
* Flags: NX  iff the exact value was not representable, i.e.
  ``e != 0 or decode(result) != s``.  OF iff the rounded result is
  infinite while the exact value is finite.  UF follows the RISC-V
  tininess-after-rounding rule: tiny iff |exact| < 2^emin *
  (1 - 2^-(p+1)) (the point below which unbounded-range rounding stays
  under 2^emin), decided exactly from ``(s, e)``; UF is raised only
  together with NX.
* Anything this module cannot prove exact falls back: operations on
  NaN/infinity operands, non-RNE rounding, non-IEEE guest formats, and
  dot products whose accumulation leaves the double-double window.
  Callers re-run those lanes through the scalar core.

The same argument, one value at a time, gives the fast-path engine
(:mod:`repro.sim.blocks`) its FP core: :func:`scalar_ops` returns
add/sub/mul/fma over Python floats (which are binary64) that decode
exactly through ``struct``, take the exact value as ``s`` plus a TwoSum
residual, nudge ``s`` to round-to-odd and round once with a ``struct``
pack.  Two facts make the scalar flags cheap: the overflow bound
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
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from . import arith
from .flags import NV, OF, UF, NX
from .formats import FloatFormat
from .numpy_backend import from_bits
from .rounding import RoundingMode

#: Formats with a vectorized batch path (IEEE layouts only; guest
#: formats such as posit/MX always take the per-element codec path).
_SUPPORTED = ("binary32", "binary16", "binary16alt", "binary8")

_U32 = np.uint32
_U64 = np.uint64


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
# Round-to-odd helpers
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
    if not fix.any():
        return s
    direction = np.where(e > 0, np.inf, -np.inf)
    return np.where(fix, np.nextafter(s, direction), s)


def _odd_cast(v: np.ndarray, dtype) -> np.ndarray:
    """Round-to-odd cast of finite binary64 values to f32/f16.

    Never yields an infinity for finite input: an overflowing cast is
    pulled back to the (odd-mantissa) largest finite value, preserving
    every downstream RNE decision including overflow-to-infinity.
    """
    f = _cast(v, dtype)
    back = f.astype(np.float64)
    inexact = back != v
    if inexact.any():
        u = f.view({np.dtype(np.float32): _U32,
                    np.dtype(np.float16): np.uint16}[f.dtype])
        fix = inexact & ((u & type(u[0])(1)) == 0)
        if fix.any():
            direction = np.where(v > back, dtype(np.inf), dtype(-np.inf))
            f = np.where(fix, np.nextafter(f, direction), f)
    return f


# ----------------------------------------------------------------------
# Encoders: binary64 (already round-to-odd adjusted) -> (bits, value)
# ----------------------------------------------------------------------
def _encode_b32(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    f = _cast(v, np.float32)
    return f.view(_U32).astype(_U32), f.astype(np.float64)


def _encode_b16(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    f = _cast(v, np.float16)
    return f.view(np.uint16).astype(_U32), f.astype(np.float64)


def _encode_b16alt(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # Through round-to-odd binary32 (same emin; 24 >= 8 + 2 bits), then
    # the classic carry-propagating RNE truncation of the low 16 bits.
    b = _odd_cast(v, np.float32).view(_U32)
    r = (b + _U32(0x7FFF) + ((b >> _U32(16)) & _U32(1))) >> _U32(16)
    return r, (r << _U32(16)).view(np.float32).astype(np.float64)


def _encode_b8(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # Through round-to-odd binary16 (same emin; 11 >= 3 + 2 bits).
    b = _odd_cast(v, np.float16).view(np.uint16).astype(_U32)
    r = (b + _U32(0x7F) + ((b >> _U32(8)) & _U32(1))) >> _U32(8)
    return r, _TABLES["binary8"][r]


_ENCODERS = {
    "binary32": _encode_b32,
    "binary16": _encode_b16,
    "binary16alt": _encode_b16alt,
    "binary8": _encode_b8,
}

#: Underflow-tininess thresholds: |exact| < 2^emin * (1 - 2^-(p+1))
#: means unbounded-range RNE stays below the smallest normal.
_TINY: Dict[str, float] = {}


def _tiny_threshold(fmt: FloatFormat) -> float:
    t = _TINY.get(fmt.name)
    if t is None:
        t = float(np.ldexp(1.0 - 2.0 ** -(fmt.precision + 1), fmt.emin))
        _TINY[fmt.name] = t
    return t


def _finish(fmt: FloatFormat, s: np.ndarray, e) -> Tuple[np.ndarray, np.ndarray]:
    """Round the exact value ``s + e`` into ``fmt`` with exact flags.

    ``s`` must be the binary64 RN of the exact value and ``e`` the exact
    residual (``None`` means exact-in-binary64, e.g. products).  Inputs
    must be finite; non-finite lanes are the caller's fallback problem.
    Returns ``(bits, flags)`` as uint32/uint8 arrays.
    """
    if fmt.width == 8:
        _table(fmt)  # _encode_b8 indexes the table directly
    v = s if e is None else _odd_fix64(s, e)
    bits, q = _ENCODERS[fmt.name](v)
    inexact = q != s
    if e is not None:
        inexact = inexact | (e != 0)
    flags = inexact.astype(np.uint8) * np.uint8(NX)
    overflow = np.isinf(q)
    if overflow.any():
        flags = flags | overflow.astype(np.uint8) * np.uint8(OF)
    mag = np.abs(s)
    tiny = mag < _tiny_threshold(fmt)
    if e is not None:
        tiny = tiny | ((mag == _tiny_threshold(fmt)) & (e != 0)
                       & (np.signbit(e) != np.signbit(s)))
    underflow = inexact & tiny
    if underflow.any():
        flags = flags | underflow.astype(np.uint8) * np.uint8(UF)
    return bits, flags


def _two_sum(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Knuth's exact TwoSum: a + b == s + e with s = RN(a + b)."""
    s = a + b
    bv = s - a
    e = (a - (s - bv)) + (b - bv)
    return s, e


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
    fallback = ~(np.isfinite(a64) & np.isfinite(b64))
    s, e = _two_sum(a64, b64)
    if fallback.any():  # keep the finisher warning-free
        s = np.where(fallback, 0.0, s)
        e = np.where(fallback, 0.0, e)
    bits, flags = _finish(fmt, s, e)
    return bits, flags, fallback


@_quiet
def mul(fmt: FloatFormat, a: np.ndarray, b: np.ndarray,
        src: FloatFormat = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a * b`` rounded into ``fmt``; ``src`` (default ``fmt``) is the
    operand format -- a narrower ``src`` models fmulex."""
    opfmt = src or fmt
    a64 = decode(opfmt, a)
    b64 = decode(opfmt, b)
    fallback = ~(np.isfinite(a64) & np.isfinite(b64))
    s = a64 * b64  # exact: 2p <= 48 bits
    if fallback.any():
        s = np.where(fallback, 0.0, s)
    bits, flags = _finish(fmt, s, None)
    return bits, flags, fallback


@_quiet
def fma(fmt: FloatFormat, a: np.ndarray, b: np.ndarray, c: np.ndarray,
        negate_product: bool = False, negate_addend: bool = False,
        src: FloatFormat = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused multiply-add ``(-1)^np * a*b + (-1)^na * c`` (one rounding).

    ``src`` (default ``fmt``) is the format of ``a``/``b``; a narrower
    ``src`` models the expanding fmacex, whose product stays exact in
    binary64 just the same (2 * p_src <= 48)."""
    opfmt = src or fmt
    a64 = decode(opfmt, a)
    b64 = decode(opfmt, b)
    c64 = decode(fmt, c)
    fallback = ~(np.isfinite(a64) & np.isfinite(b64) & np.isfinite(c64))
    prod = a64 * b64  # exact
    if negate_product:
        prod = -prod
    if negate_addend:
        c64 = -c64
    s, e = _two_sum(prod, c64)
    if fallback.any():
        s = np.where(fallback, 0.0, s)
        e = np.where(fallback, 0.0, e)
    bits, flags = _finish(fmt, s, e)
    return bits, flags, fallback


@_quiet
def cvt(src: FloatFormat, dst: FloatFormat,
        a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Format conversion (fcvt.f2f): exact value, one rounding."""
    a64 = decode(src, a)
    fallback = ~np.isfinite(a64)
    s = a64
    if fallback.any():
        s = np.where(fallback, 0.0, s)
    bits, flags = _finish(dst, s, None)
    return bits, flags, fallback


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
    return result.astype(_U32), invalid.astype(np.uint8) * np.uint8(NV)


@_quiet
def dotp(src: FloatFormat, dst: FloatFormat, acc: np.ndarray,
         a_lanes: List[np.ndarray], b_lanes: List[np.ndarray],
         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """vfdotpex.s.*: exact expanding dot product with one dst rounding.

    The exact accumulation is tracked as a double-double ``(hi, lo)``
    grown with TwoSum; any lane whose accumulation sheds a bit past the
    106-bit window (or touches a non-finite value, or sums to exactly
    zero, whose sign needs the scalar core's rule) is marked fallback.
    """
    hi = decode(dst, acc)
    ok = np.isfinite(hi)
    lo = np.zeros_like(hi)
    exact = np.ones(hi.shape, dtype=bool)
    for a_bits, b_bits in zip(a_lanes, b_lanes):
        a64 = decode(src, a_bits)
        b64 = decode(src, b_bits)
        ok &= np.isfinite(a64) & np.isfinite(b64)
        term = a64 * b64  # exact: 2p <= 22 bits
        sh, eh = _two_sum(hi, term)
        sl, el = _two_sum(lo, eh)
        exact &= el == 0
        hi, lo = _two_sum(sh, sl)  # renormalize, exactly
    fallback = ~ok | ~exact | (hi == 0.0)
    if fallback.any():
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
    ``(bits, value)``.  binary16alt and binary8 have no struct code:
    they round to odd at binary32/binary16 (same emin, >= p + 2 bits)
    and finish with the carry truncation of ``_encode_b16alt`` and
    ``_encode_b8``.
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
    elif fmt.name == "binary16":
        def decode(bits):
            return f16_unpack(u16_pack(bits))[0]

        def encode(v):
            raw = f16_pack(v)
            return u16_unpack(raw)[0], f16_unpack(raw)[0]
    elif fmt.name == "binary16alt":
        def decode(bits):
            return f32_unpack(u32_pack(bits << 16))[0]

        def encode(v):
            raw = f32_pack(v)
            b = u32_unpack(raw)[0]
            if not b & 1:
                f = f32_unpack(raw)[0]
                if f != v:  # round to odd, away from or toward zero
                    b += 1 if abs(v) > abs(f) else -1
            r = (b + 0x7FFF + ((b >> 16) & 1)) >> 16
            return r, f32_unpack(u32_pack(r << 16))[0]
    else:  # binary8
        values = _table(fmt).tolist()

        def decode(bits):
            return values[bits]

        def encode(v):
            raw = f16_pack(v)
            h = u16_unpack(raw)[0]
            if not h & 1:
                f = f16_unpack(raw)[0]
                if f != v:
                    h += 1 if abs(v) > abs(f) else -1
            r = (h + 0x7F + ((h >> 8) & 1)) >> 8
            return r, values[r]
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
