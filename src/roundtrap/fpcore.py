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
import operator
from fractions import Fraction
from numbers import Rational

MIN_SIGNIFICAND_BITS = 2
MAX_SIGNIFICAND_BITS = 113


class ParameterError(ValueError):
    """An argument the library rejects on purpose.  The CLI reports it as a
    usage error (exit 2); any other ValueError is a defect and propagates."""


_set = object.__setattr__


class _Frozen:
    """Base of the immutable records.  They are not dataclasses: importing
    dataclasses (which loads inspect, ast, dis and tokenize) and generating
    each class's methods from source took a large share of a CLI process's
    start-up.  A subclass names its fields in ``__slots__`` and sets each
    one once in its own ``__init__`` through ``object.__setattr__``.
    This base refuses any later assignment or deletion, and gives equality
    (same class only), the hash of the field tuple, the repr and the
    pickling of a frozen dataclass; unpickling does not run ``__init__``'s
    checks again."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__match_args__ = cls.__slots__
        get = operator.attrgetter(*fields)  # a tuple, for more than one field
        cls._key = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            _set(self, name, value)


class PrecisionConfig(_Frozen):
    """An emulated format: significand width in bits, implicit leading bit
    included.  24 models IEEE single, 53 double, 113 quadruple."""

    __slots__ = ("significand_bits",)

    def __init__(self, significand_bits: int):
        if not isinstance(significand_bits, int):
            raise TypeError("significand_bits must be an integer")
        if not MIN_SIGNIFICAND_BITS <= significand_bits <= MAX_SIGNIFICAND_BITS:
            raise ParameterError(
                f"significand_bits must be in [{MIN_SIGNIFICAND_BITS}, "
                f"{MAX_SIGNIFICAND_BITS}], got {significand_bits}"
            )
        _set(self, "significand_bits", significand_bits)

    @property
    def unit_roundoff(self) -> Fraction:
        """2**(-p): the relative error scale of one rounded operation."""
        return Fraction(1, 1 << self.significand_bits)


SINGLE = PrecisionConfig(24)
DOUBLE = PrecisionConfig(53)
QUAD = PrecisionConfig(113)


class RValue(_Frozen):
    """A value exactly representable in some emulated format.

    Canonical form: ``significand`` is odd or zero (zero forces
    ``exponent == 0``), so equal values compare and hash equal.  Construct
    via :func:`round_to`; the raw constructor trusts its arguments.
    """

    __slots__ = ("significand", "exponent")

    def __init__(self, significand: int, exponent: int):
        _set(self, "significand", significand)
        _set(self, "exponent", exponent)

    def to_fraction(self) -> Fraction:
        return _raw_to_fraction(self.significand, self.exponent)

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
#
# _round_raw is the only rounding code.  It rounds by a signed floor shift:
# with s = bit_length(m) - p > 0 excess bits and m = q*2**s + r (floor
# division, 0 <= r < 2**s), (m + 2**(s-1) - 1 + (q & 1)) >> s is m/2**s
# rounded to nearest, ties to even, for either sign of m; a carry to p+1
# bits halves.  _HALF holds 2**(s-1) - 1 for every excess up to 2*113+4, the
# widest the step kernels produce (an aligned sum with RK3's 4*k2 operand);
# the wider inputs of conversions compute it.
# ---------------------------------------------------------------------------

_HALF = (0, *((1 << (s - 1)) - 1 for s in range(1, 2 * MAX_SIGNIFICAND_BITS + 5)))


def _round_raw(m: int, e: int, p: int) -> tuple[int, int]:
    """Round signed m * 2**e to p significand bits, ties to even."""
    s = m.bit_length() - p
    if s > 0:
        try:
            m = (m + _HALF[s] + ((m >> s) & 1)) >> s
        except IndexError:
            m = (m + (1 << (s - 1)) - 1 + ((m >> s) & 1)) >> s
        e += s
        if m.bit_length() > p:
            m >>= 1
            e += 1
    elif not m:
        e = 0
    return m, e


def _add_raw(am: int, ae: int, bm: int, be: int, p: int) -> tuple[int, int]:
    if not am:
        return _round_raw(bm, be, p)
    if not bm:
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
    # quotient with >= p+2 bits, inexactness folded into a sticky low bit;
    # floor division keeps that round-to-odd bit right for either sign.  The
    # shift counts the divisor's width, so bm may be wider than p bits (the
    # wide layer divides by the odd part of a denominator of any size)
    s = p + 3 + max(0, bm.bit_length() - am.bit_length() + 1)
    q, r = divmod(am << s, bm)
    if r:
        q |= 1
    return _round_raw(q, ae - be - s, p)


def _sqrt_raw(m: int, e: int, p: int) -> tuple[int, int]:
    if m < 0:
        raise ParameterError("emulated square root of a negative value")
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
    if den & (den - 1) == 0:  # power of two: exact scaling
        return _round_raw(num, 1 - den.bit_length(), p)
    return _div_raw(num, 0, den, 0, p)


def _float_to_raw(v: float, p: int) -> tuple[int, int]:
    """A finite float rounded to p bits, as a raw pair.  as_integer_ratio()
    gives an integral float a significand wider than p bits even when the
    float fits in p; rounding restores the raw-kernel operand contract."""
    num, den = v.as_integer_ratio()
    return _round_raw(num, 1 - den.bit_length(), p)


_new = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    """n/d as a Fraction, for coprime n and d > 0: the object Fraction(n, d)
    makes, without its type checks and gcd (Python 3.12's
    Fraction._from_coprime_ints, which 3.10 and 3.11 lack)."""
    f = _new(Fraction)
    f._numerator, f._denominator = n, d
    return f


def _raw_to_fraction(m: int, e: int, d: int = 1) -> Fraction:
    """m/d * 2**e as a Fraction, for an odd d > 0 coprime to m: m's
    trailing zeros cancel against 2**-e, so no gcd is needed."""
    if e >= 0:
        return _fraction(m << e, d)
    z = min((m & -m).bit_length() - 1, -e) if m else -e
    return _fraction(m >> z, d << (-e - z))


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
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ParameterError(f"cannot round non-finite value {x!r}")
        return _canonical(*_float_to_raw(x, p))
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
