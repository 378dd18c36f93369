"""An exact oracle for add/sub/mul/fma under round-to-nearest-even.

Everything on the oracle side of this file is written from the IEEE 754
and RISC-V rules alone and shares no code with :mod:`repro.fp`: a format
is just ``(exp_bits, man_bits)``, values decode to
:class:`fractions.Fraction`, the operations are exact rational
arithmetic, and one rounding step produces the bits and the fflags
(NX, OF, UF with tininess detected after rounding, NV for invalid
operations and signaling NaNs).

Two implementations are checked against it: the integer softfloat
(:mod:`repro.fp.arith`) and the exact-then-round-once binary64 core the
fast-path engine runs (:func:`repro.fp.batch.scalar_ops`).  binary8 is
checked exhaustively for add/sub/mul; binary16, binary16alt and binary32
are sampled with hypothesis, biased toward the places where a single
rounding is easiest to get wrong: subnormals, exact ties, the overflow
boundary, the tininess threshold and sums whose exponent gap exceeds
binary64's 53 bits.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fp import BINARY8, BINARY16, BINARY16ALT, BINARY32, RoundingMode
from repro.fp import arith
from repro.fp.batch import scalar_ops

NV, OF, UF, NX = 0b10000, 0b00100, 0b00010, 0b00001

FORMATS = [BINARY16, BINARY16ALT, BINARY32]
IDS = [f.name for f in FORMATS]


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
class Geometry:
    def __init__(self, exp_bits, man_bits):
        self.m = man_bits
        self.width = 1 + exp_bits + man_bits
        self.bias = (1 << (exp_bits - 1)) - 1
        self.emin = 1 - self.bias
        self.emax = self.bias
        self.exp_all = (1 << exp_bits) - 1
        self.qnan = (self.exp_all << man_bits) | (1 << (man_bits - 1))

    def inf(self, sign):
        return (sign << (self.width - 1)) | (self.exp_all << self.m)

    def zero(self, sign):
        return sign << (self.width - 1)


#: Every format under test, by name, as (exp_bits, man_bits).
GEOMETRY = {
    "binary8": Geometry(5, 2),
    "binary16": Geometry(5, 10),
    "binary16alt": Geometry(8, 7),
    "binary32": Geometry(8, 23),
}


@functools.lru_cache(maxsize=None)
def decode(g, bits):
    """``("nan", signaling)``, ``("inf", sign)`` or ``("num", sign, q)``
    with ``q`` the exact magnitude."""
    sign = bits >> (g.width - 1)
    exp = (bits >> g.m) & g.exp_all
    man = bits & ((1 << g.m) - 1)
    if exp == g.exp_all:
        if man:
            return ("nan", not man >> (g.m - 1))
        return ("inf", sign)
    if exp == 0:
        return ("num", sign, Fraction(man) / 2 ** (g.bias - 1 + g.m))
    return ("num", sign, Fraction((1 << g.m) | man, 1)
            * Fraction(2) ** (exp - g.bias - g.m))


def _floor_log2(num, den):
    """``floor(log2(num / den))`` for positive integers."""
    e = num.bit_length() - den.bit_length()
    if (num << max(0, -e)) < (den << max(0, e)):
        e -= 1
    return e


def _rne_scaled(num, den, k):
    """``num / den / 2^k`` rounded to an integer, ties to even; returns
    ``(n, exact)``."""
    if k >= 0:
        den <<= k
    else:
        num <<= -k
    n, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and n & 1):
        n += 1
    return n, r == 0


def round_rne(g, x):
    """Round a non-zero exact value into the format; ``(bits, flags)``."""
    sign = 1 if x < 0 else 0
    num, den = abs(x.numerator), x.denominator
    e = _floor_log2(num, den)
    q = max(e, g.emin) - g.m  # exponent of the last significand bit
    n, exact = _rne_scaled(num, den, q)
    flags = 0 if exact else NX
    if n == 1 << (g.m + 1):  # the rounding carried into a new binade
        n, q = n >> 1, q + 1
    if q + g.m > g.emax:
        return g.inf(sign), OF | NX
    # Tininess after rounding: round again with an unbounded exponent
    # range; tiny when that result is still below 2^emin.
    if not exact and e < g.emin:
        unbounded, _ = _rne_scaled(num, den, e - g.m)
        if unbounded < 1 << (g.emin - e + g.m):
            flags |= UF
    if n < 1 << g.m:  # subnormal or zero
        return g.zero(sign) | n, flags
    return (g.zero(sign) | ((q + g.m + g.bias) << g.m)
            | (n - (1 << g.m))), flags


def _nan(g, *operands):
    signaling = any(op[0] == "nan" and op[1] for op in operands)
    return g.qnan, NV if signaling else 0


def _signed(op):
    return -op[2] if op[1] else op[2]


def oracle_fma(g, a, b, c, negate_product=False, negate_addend=False):
    """``(-1)^np * a * b + (-1)^na * c`` with one rounding."""
    ua, ub, uc = decode(g, a), decode(g, b), decode(g, c)
    if "nan" in (ua[0], ub[0], uc[0]):
        return _nan(g, ua, ub, uc)
    psign = ua[1] ^ ub[1] ^ negate_product
    csign = uc[1] ^ negate_addend
    a_zero = ua[0] == "num" and ua[2] == 0
    b_zero = ub[0] == "num" and ub[2] == 0
    p_inf = ua[0] == "inf" or ub[0] == "inf"
    if p_inf and (a_zero or b_zero):
        return g.qnan, NV
    if p_inf and uc[0] == "inf":
        return (g.inf(psign), 0) if psign == csign else (g.qnan, NV)
    if p_inf:
        return g.inf(psign), 0
    if uc[0] == "inf":
        return g.inf(csign), 0
    p = ua[2] * ub[2]
    exact = (-p if psign else p) + (-uc[2] if csign else uc[2])
    if exact == 0:
        if p == 0 and uc[2] == 0 and psign == csign:
            return g.zero(psign), 0
        return g.zero(0), 0  # RNE: exact cancellation is +0
    return round_rne(g, exact)


def oracle_add(g, a, b, negate=False):
    ua, ub = decode(g, a), decode(g, b)
    if ua[0] == "nan" or ub[0] == "nan":
        return _nan(g, ua, ub)
    bsign = ub[1] ^ negate
    if ua[0] == "inf" and ub[0] == "inf":
        return (g.inf(ua[1]), 0) if ua[1] == bsign else (g.qnan, NV)
    if ua[0] == "inf":
        return g.inf(ua[1]), 0
    if ub[0] == "inf":
        return g.inf(bsign), 0
    exact = _signed(ua) + (-ub[2] if bsign else ub[2])
    if exact == 0:
        if ua[2] == 0 and ub[2] == 0 and ua[1] == bsign:
            return g.zero(bsign), 0
        return g.zero(0), 0
    return round_rne(g, exact)


def oracle_mul(g, a, b):
    ua, ub = decode(g, a), decode(g, b)
    if ua[0] == "nan" or ub[0] == "nan":
        return _nan(g, ua, ub)
    sign = ua[1] ^ ub[1]
    zero = any(u[0] == "num" and u[2] == 0 for u in (ua, ub))
    if ua[0] == "inf" or ub[0] == "inf":
        return (g.qnan, NV) if zero else (g.inf(sign), 0)
    if zero:
        return g.zero(sign), 0
    return round_rne(g, _signed(ua) * _signed(ub))


def oracle(name, g, *operands):
    if name == "add":
        return oracle_add(g, *operands)
    if name == "sub":
        return oracle_add(g, *operands, negate=True)
    if name == "mul":
        return oracle_mul(g, *operands)
    return oracle_fma(g, *operands)


# ----------------------------------------------------------------------
# The implementations under test
# ----------------------------------------------------------------------
RNE = RoundingMode.RNE
SOFT = {"add": arith.fadd, "sub": arith.fsub, "mul": arith.fmul}


def implementations(fmt, name):
    core = getattr(scalar_ops(fmt), name)
    if name == "fma":
        def soft(a, b, c, np_=False, na=False):
            return arith.ffma(fmt, a, b, c, RNE, negate_product=np_,
                              negate_addend=na)
        return {"softfloat": soft, "core": core}
    return {"softfloat": lambda a, b: SOFT[name](fmt, a, b, RNE),
            "core": core}


def check(fmt, name, *operands):
    g = GEOMETRY[fmt.name]
    want = oracle(name, g, *operands)
    for label, fn in implementations(fmt, name).items():
        got = fn(*operands)
        assert got == want, (
            f"{label} {fmt.name} {name}{operands}: got {got}, want {want}")


# ----------------------------------------------------------------------
# binary8: every operand pair
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["add", "sub", "mul"])
def test_binary8_exhaustive(name):
    g = GEOMETRY["binary8"]
    impls = implementations(BINARY8, name)
    mismatches = []
    for a in range(256):
        for b in range(256):
            want = oracle(name, g, a, b)
            for label, fn in impls.items():
                got = fn(a, b)
                if got != want:
                    mismatches.append((label, a, b, got, want))
    assert not mismatches, mismatches[:10]


def test_oracle_self_check():
    # Anchor the oracle to hand-derived binary16 facts.
    g = GEOMETRY["binary16"]
    assert oracle_add(g, 0x3C00, 0x3C00) == (0x4000, 0)      # 1 + 1
    assert oracle_add(g, 0x7BFF, 0x7BFF) == (0x7C00, OF | NX)  # max + max
    assert oracle_mul(g, 0x0001, 0x0001) == (0x0000, UF | NX)  # tiny^2
    assert oracle_add(g, 0x3C00, 0x1000) == (0x3C00, NX)     # 1 + 2^-11 tie
    assert oracle_add(g, 0x3C01, 0x1000) == (0x3C02, NX)     # odd -> up
    assert oracle_add(g, 0x3C00, 0xBC00) == (0x0000, 0)      # +0
    assert oracle_add(g, 0x8000, 0x8000) == (0x8000, 0)      # -0 + -0
    assert oracle_mul(g, 0x7C00, 0x0000) == (g.qnan, NV)
    assert oracle_add(g, 0x7C01, 0x3C00) == (g.qnan, NV)     # sNaN


# ----------------------------------------------------------------------
# 16/32-bit formats: biased hypothesis sampling
# ----------------------------------------------------------------------
def _pack(g, sign, exp_field, man):
    return (sign << (g.width - 1)) | (exp_field << g.m) | man


@st.composite
def operand(draw, fmt):
    """One operand, biased toward the interesting corners."""
    g = GEOMETRY[fmt.name]
    sign = draw(st.integers(0, 1))
    man = st.integers(0, (1 << g.m) - 1)
    kind = draw(st.sampled_from(
        ["any", "subnormal", "near_max", "near_min_normal", "short",
         "special"]))
    if kind == "any":
        return draw(st.integers(0, (1 << g.width) - 1))
    if kind == "subnormal":
        return _pack(g, sign, 0, draw(man))
    if kind == "near_max":
        return _pack(g, sign, g.exp_all - 1 - draw(st.integers(0, 2)),
                     draw(st.one_of(st.sampled_from([(1 << g.m) - 1, 0]),
                                    man)))
    if kind == "near_min_normal":
        return _pack(g, sign, draw(st.integers(0, 2)), draw(man))
    if kind == "short":  # few significand bits: exact results and ties
        top = draw(st.integers(0, 3)) << (g.m - 2)
        return _pack(g, sign, draw(st.integers(1, g.exp_all - 1)), top)
    return draw(st.sampled_from(
        [0, g.zero(1), g.inf(0), g.inf(1), g.qnan,
         (g.exp_all << g.m) | 1]))


@st.composite
def sum_pair(draw, fmt):
    """Operand pairs for add/sub, including constructed ties, overflow
    edges, tiny results and exponent gaps beyond binary64's 53 bits."""
    g = GEOMETRY[fmt.name]
    kind = draw(st.sampled_from(["free", "tie", "overflow", "tiny", "gap"]))
    if kind == "free":
        return draw(operand(fmt)), draw(operand(fmt))
    sign = draw(st.integers(0, 1))
    if kind == "tie":
        # b's leading bit sits at a's rounding position; a zero
        # mantissa makes the sum an exact midpoint.
        ea = draw(st.integers(g.m + 2, g.exp_all - 1))
        a = _pack(g, sign, ea, draw(st.integers(0, (1 << g.m) - 1)))
        bman = draw(st.sampled_from([0, 0, 1 << (g.m - 1)]))
        return a, _pack(g, draw(st.integers(0, 1)), ea - g.m - 1, bman)
    if kind == "overflow":
        a = _pack(g, sign, g.exp_all - 1, (1 << g.m) - 1)
        eb = g.exp_all - 1 - g.m - draw(st.integers(0, 2))
        return a, _pack(g, sign, eb, draw(st.sampled_from([0, 1])))
    if kind == "tiny":
        # Differences of nearby small values cross 2^emin into the
        # subnormal range, where sums are exact and must not underflow.
        a = _pack(g, sign, draw(st.integers(1, 2)),
                  draw(st.integers(0, (1 << g.m) - 1)))
        b = _pack(g, 1 - sign, draw(st.integers(0, 1)),
                  draw(st.integers(0, (1 << g.m) - 1)))
        return a, b
    # gap: wider than 53 bits where the format allows it.
    span = min(g.exp_all - 2, 60 + g.m)
    ea = draw(st.integers(span, g.exp_all - 1))
    eb = draw(st.integers(0, ea - span))
    return (_pack(g, sign, ea, draw(st.integers(0, (1 << g.m) - 1))),
            _pack(g, draw(st.integers(0, 1)), eb,
                  draw(st.integers(0, (1 << g.m) - 1))))


def _exact_bits(g, sig, exp2):
    bits, flags = round_rne(g, Fraction(sig) * Fraction(2) ** exp2)
    assert flags == 0, "not representable"
    return bits


def threshold_factors(g):
    """A pair whose product is exactly the tininess threshold
    ``2^emin * (1 - 2^-(p+1)) = (2^(p+1) - 1) * 2^(emin-p-1)``: it
    rounds up to 2^emin and is not tiny, but only just."""
    whole = (1 << (g.m + 2)) - 1
    d = next(d for d in range(3, 1 << (g.m + 1))
             if whole % d == 0 and whole // d < 1 << (g.m + 1))
    # a = d * 2^ka lies in [1, 2) (at most 3/4 for tiny d) so that b's
    # last bit stays on the subnormal grid.
    ka = min(1 - d.bit_length(), -2)
    kb = g.emin - g.m - 2 - ka
    return _exact_bits(g, d, ka), _exact_bits(g, whole // d, kb)


@st.composite
def mul_pair(draw, fmt):
    """Free pairs, plus products steered onto the tininess threshold
    and the overflow boundary."""
    g = GEOMETRY[fmt.name]
    kind = draw(st.sampled_from(["free", "tiny", "overflow", "threshold"]))
    if kind == "free":
        return draw(operand(fmt)), draw(operand(fmt))
    if kind == "threshold":
        a, b = threshold_factors(g)
        sign = draw(st.integers(0, 1)) << (g.width - 1)
        # One ulp of a either side puts the product just off the mark.
        a += draw(st.sampled_from([0, 0, 1, -1]))
        return a ^ sign, b
    man = st.integers(0, (1 << g.m) - 1)
    near_one = _pack(g, draw(st.integers(0, 1)),
                     g.bias - draw(st.integers(0, 1)), draw(man))
    edge = 1 + draw(st.integers(0, 1)) if kind == "tiny" else g.exp_all - 1
    return _pack(g, draw(st.integers(0, 1)), edge, draw(man)), near_one


@st.composite
def fma_triple(draw, fmt):
    g = GEOMETRY[fmt.name]
    a, b = draw(operand(fmt)), draw(operand(fmt))
    kind = draw(st.sampled_from(["free", "cancel", "pair", "threshold"]))
    if kind == "free":
        c = draw(operand(fmt))
    elif kind == "threshold":
        # min_subnormal * -2^-j + (min_normal + k ulps): exact sums at
        # and around the tininess threshold (j = 2, k = 0 hits it).
        a = draw(st.integers(1, 3))
        b = _exact_bits(g, -1, -draw(st.integers(1, 3)))
        c = (1 << g.m) + draw(st.integers(0, 2))
    elif kind == "pair":
        c = draw(sum_pair(fmt))[1]
    else:
        # c = -RN(a*b): the fused result is the product's rounding
        # error, tiny and often far below the product's exponent.
        bits, _ = oracle_mul(g, a, b)
        c = bits ^ (1 << (g.width - 1))
    return a, b, c


SAMPLES = settings(max_examples=300, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("fmt", FORMATS, ids=IDS)
@pytest.mark.parametrize("name", ["add", "sub"])
@given(data=st.data())
@SAMPLES
def test_sum_against_oracle(fmt, name, data):
    check(fmt, name, *data.draw(sum_pair(fmt)))


@pytest.mark.parametrize("fmt", FORMATS, ids=IDS)
@given(data=st.data())
@SAMPLES
def test_mul_against_oracle(fmt, data):
    check(fmt, "mul", *data.draw(mul_pair(fmt)))


@pytest.mark.parametrize("fmt", FORMATS + [BINARY8],
                         ids=IDS + ["binary8"])
@given(data=st.data())
@SAMPLES
def test_fma_against_oracle(fmt, data):
    a, b, c = data.draw(fma_triple(fmt))
    negate_product = data.draw(st.booleans())
    negate_addend = data.draw(st.booleans())
    check(fmt, "fma", a, b, c, negate_product, negate_addend)
