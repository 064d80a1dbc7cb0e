"""Reduced-precision binary floating-point emulation.

Values are sign * significand * 2**exponent with a configurable significand
width and an unbounded exponent (no overflow, no subnormals).  Every
operation computes the exact mathematical result first and rounds once, to
nearest with ties to even, so exactly one rounding error is injected per
elementary operation.  At 24 and 53 significand bits this reproduces native
IEEE-754 binary32/binary64 arithmetic bit for bit whenever the native
exponent range is not exercised.

Division and square root round through an intermediate with at least two
guard bits plus a sticky bit (round-to-odd), which composes with the final
round-to-nearest-even without double-rounding anomalies.

All functions are pure; values are immutable and safe to share across
threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

MIN_SIGNIFICAND_BITS = 2
MAX_SIGNIFICAND_BITS = 113


@dataclass(frozen=True, slots=True)
class PrecisionConfig:
    """An emulated format: significand width in bits, implicit leading bit
    included.  24 models IEEE single, 53 double, 113 quadruple."""

    significand_bits: int

    def __post_init__(self):
        if not isinstance(self.significand_bits, int):
            raise TypeError("significand_bits must be an integer")
        if not MIN_SIGNIFICAND_BITS <= self.significand_bits <= MAX_SIGNIFICAND_BITS:
            raise ValueError(
                f"significand_bits must be in [{MIN_SIGNIFICAND_BITS}, "
                f"{MAX_SIGNIFICAND_BITS}], got {self.significand_bits}"
            )

    @property
    def unit_roundoff(self) -> Fraction:
        """2**(-p): the relative error scale of one rounded operation."""
        return Fraction(1, 1 << self.significand_bits)


SINGLE = PrecisionConfig(24)
DOUBLE = PrecisionConfig(53)
QUAD = PrecisionConfig(113)


@dataclass(frozen=True, slots=True)
class RValue:
    """A value exactly representable in some emulated format.

    Canonical form: ``significand`` is odd or zero (zero forces
    ``exponent == 0``), so equal values compare and hash equal.  Construct
    via :func:`round_to`; the raw constructor trusts its arguments.
    """

    significand: int
    exponent: int

    def to_fraction(self) -> Fraction:
        m, e = self.significand, self.exponent
        return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)

    def __float__(self) -> float:
        return float(self.to_fraction())

    def __bool__(self) -> bool:
        return self.significand != 0

    def __neg__(self) -> "RValue":
        return RValue(-self.significand, self.exponent)

    def __abs__(self) -> "RValue":
        return RValue(abs(self.significand), self.exponent)


ZERO = RValue(0, 0)
ONE = RValue(1, 0)


# ---------------------------------------------------------------------------
# Raw kernels on (significand, exponent) integer pairs.
#
# Contract: operand significands carry at most p bits (callers pre-round);
# results are round-to-nearest-even at p bits and may carry trailing zeros.
# These are the hot path for the integrators, so they avoid object wrappers.
# ---------------------------------------------------------------------------


def _round_raw(m: int, e: int, p: int) -> tuple[int, int]:
    """Round signed m * 2**e to p significand bits, ties to even."""
    if m == 0:
        return 0, 0
    neg = m < 0
    a = -m if neg else m
    excess = a.bit_length() - p
    if excess > 0:
        low = a & ((1 << excess) - 1)
        a >>= excess
        e += excess
        half = 1 << (excess - 1)
        if low > half or (low == half and (a & 1)):
            a += 1
            if a.bit_length() > p:
                a >>= 1
                e += 1
    return (-a if neg else a), e


def _add_raw(am: int, ae: int, bm: int, be: int, p: int) -> tuple[int, int]:
    if am == 0:
        return _round_raw(bm, be, p)
    if bm == 0:
        return _round_raw(am, ae, p)
    d = ae - be
    if d < 0:
        am, ae, bm, be, d = bm, be, am, ae, -d
    if d <= 2 * p + 1:
        return _round_raw((am << d) + bm, be, p)
    # b lies strictly below half an ulp of a; a sticky bit preserves the
    # rounding direction without materializing the huge shift
    k = p + 4
    return _round_raw((am << k) + (1 if bm > 0 else -1), ae - k, p)


def _sub_raw(am: int, ae: int, bm: int, be: int, p: int) -> tuple[int, int]:
    return _add_raw(am, ae, -bm, be, p)


def _mul_raw(am: int, ae: int, bm: int, be: int, p: int) -> tuple[int, int]:
    return _round_raw(am * bm, ae + be, p)


def _div_raw(am: int, ae: int, bm: int, be: int, p: int) -> tuple[int, int]:
    if bm == 0:
        raise ZeroDivisionError("emulated division by zero")
    if am == 0:
        return 0, 0
    neg = (am < 0) != (bm < 0)
    a = -am if am < 0 else am
    b = -bm if bm < 0 else bm
    # quotient with >= p+2 bits, inexactness folded into a sticky low bit
    s = p + 3 + max(0, b.bit_length() - a.bit_length() + 1)
    q, r = divmod(a << s, b)
    if r:
        q |= 1
    return _round_raw(-q if neg else q, ae - be - s, p)


def _sqrt_raw(m: int, e: int, p: int) -> tuple[int, int]:
    if m < 0:
        raise ValueError("emulated square root of a negative value")
    if m == 0:
        return 0, 0
    # even shift so the root's exponent is integral, >= 2p+4 bits under the root
    t = max(0, 2 * p + 4 - m.bit_length())
    if (e - t) & 1:
        t += 1
    n = m << t
    s = math.isqrt(n)
    if s * s != n:
        s |= 1
    return _round_raw(s, (e - t) >> 1, p)


def _fraction_to_raw(x: Fraction, p: int) -> tuple[int, int]:
    num, den = x.numerator, x.denominator
    if den == 1:
        return _round_raw(num, 0, p)
    if den & (den - 1) == 0:  # power of two: exact scaling
        return _round_raw(num, 1 - den.bit_length(), p)
    return _div_raw(num, 0, den, 0, p)


def _raw_to_fraction(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _canonical(m: int, e: int) -> RValue:
    if m == 0:
        return ZERO
    shift = (m & -m).bit_length() - 1
    return RValue(m >> shift, e + shift)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def round_to(x, cfg: PrecisionConfig) -> RValue:
    """Round a finite real to the nearest representable value of ``cfg``,
    ties to the even significand.

    Accepts RValue, int, float, or any Rational (e.g. Fraction); floats are
    converted exactly before rounding.  Non-finite input is rejected.
    """
    p = cfg.significand_bits
    if isinstance(x, RValue):
        return _canonical(*_round_raw(x.significand, x.exponent, p))
    if isinstance(x, int):
        return _canonical(*_round_raw(x, 0, p))
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot round non-finite value {x!r}")
        num, den = x.as_integer_ratio()
        return _canonical(*_round_raw(num, 1 - den.bit_length(), p))
    if isinstance(x, Rational):
        return _canonical(*_fraction_to_raw(Fraction(x), p))
    raise TypeError(f"cannot round value of type {type(x).__name__}")


def _operand(x, p: int) -> tuple[int, int]:
    # re-round at the operation's precision; identity for values already <= p bits
    if isinstance(x, RValue):
        return _round_raw(x.significand, x.exponent, p)
    rv = round_to(x, PrecisionConfig(p))
    return rv.significand, rv.exponent


def op_add(a, b, cfg: PrecisionConfig) -> RValue:
    """a + b, exact then rounded once at cfg."""
    p = cfg.significand_bits
    return _canonical(*_add_raw(*_operand(a, p), *_operand(b, p), p))


def op_sub(a, b, cfg: PrecisionConfig) -> RValue:
    """a - b, exact then rounded once at cfg."""
    p = cfg.significand_bits
    return _canonical(*_sub_raw(*_operand(a, p), *_operand(b, p), p))


def op_mul(a, b, cfg: PrecisionConfig) -> RValue:
    """a * b, exact then rounded once at cfg."""
    p = cfg.significand_bits
    return _canonical(*_mul_raw(*_operand(a, p), *_operand(b, p), p))


def op_div(a, b, cfg: PrecisionConfig) -> RValue:
    """a / b, correctly rounded at cfg.  Raises ZeroDivisionError for b == 0."""
    p = cfg.significand_bits
    return _canonical(*_div_raw(*_operand(a, p), *_operand(b, p), p))


def op_sqrt(a, cfg: PrecisionConfig) -> RValue:
    """sqrt(a) for a >= 0, correctly rounded at cfg."""
    p = cfg.significand_bits
    return _canonical(*_sqrt_raw(*_operand(a, p), p))
