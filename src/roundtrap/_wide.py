"""Wide-precision evaluation helpers on fpcore's raw rounding kernels.

Reference-side quantities -- the analytic solution, error norms, eigenvalue
moduli -- must not carry measurable round-off of their own.  Everything here
is evaluated at ``WIDE_PREC_BITS`` with round-to-nearest, ties to even, and
returned as an exact ``Fraction`` of the computed value, so downstream
arithmetic stays exact.  Rounding, division and square roots are fpcore's
raw kernels (``_round_raw``, ``_div_raw``, ``_sqrt_raw``) at 240 bits;
mpmath supplies only the cosine and sine kernel.

A rational input num/den (in lowest terms) enters the wide format with two
roundings: num is rounded to 240 bits, then divided by den with one more
240-bit rounding.  When den is a power of two that division is exact, so a
dyadic input is rounded once.  The square root of that wide value is
correctly rounded at 240 bits; square roots of rational squares skip the
wide format and are exact.  Cosine and sine come from one mpmath kernel
call that carries 10 guard bits and rounds each result once: they are
correctly rounded at 240 bits unless the true value lies within a few
2**-10 ulp of a rounding boundary, where the result can be the other
neighbour (about 2 in 10**4 values against a 700-bit evaluation).  mpmath
raises its working precision internally for the argument reduction, so this
holds for the large phases long integrations produce.  Every error is far
under the 2**-100 relative budget the reference side must honor.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.libmp import from_man_exp, mpf_cos_sin

from .fpcore import _div_raw, _raw_to_fraction, _round_raw, _sqrt_raw

WIDE_PREC_BITS = 240
_RND = "n"


def _mpf_raw_to_fraction(raw: tuple) -> Fraction:
    sign, man, exp, _ = raw
    man = int(man)
    if man == 0 and exp:
        raise ValueError("non-finite value has no rational representation")
    return _raw_to_fraction(-man if sign else man, exp)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpmath float."""
    return _mpf_raw_to_fraction(x._mpf_)


def _to_raw(num: int, den: int) -> tuple[int, int]:
    """num/den (den > 0) in the wide format, as fpcore's (m, e) pair: num
    rounded to 240 bits, then one rounded division by den.  The first
    rounding depends on num, so num/den must be in lowest terms unless den
    is a power of two; then the division is exact and the value is rounded
    once."""
    zeros = (den & -den).bit_length() - 1
    odd = den >> zeros
    if odd == 1:
        return _round_raw(num, -zeros, WIDE_PREC_BITS)
    m, e = _round_raw(num, 0, WIDE_PREC_BITS)
    return _div_raw(m, e, odd, zeros, WIDE_PREC_BITS)


def _sqrt_ratio(num: int, den: int) -> Fraction:
    """sqrt(num/den) for num > 0, not a rational square, with num and den
    as ``_to_raw`` takes them."""
    return _raw_to_fraction(*_sqrt_raw(*_to_raw(num, den), WIDE_PREC_BITS))


def wide_sqrt(x: Fraction) -> Fraction:
    """sqrt(x) for x >= 0: exact when x is a rational square, otherwise the
    correctly rounded 240-bit root of x's wide value."""
    if x < 0:
        raise ValueError("square root of a negative value")
    num, den = x.numerator, x.denominator
    n = math.isqrt(num)
    d = math.isqrt(den)
    if n * n == num and d * d == den:
        return Fraction(n, d)
    return _sqrt_ratio(num, den)


def align(*xs: Fraction) -> tuple[list[int], int]:
    """Numerators of the rationals ``xs`` over one common denominator, and
    that denominator: the largest one when all are powers of two (the
    numerators are shifted), their lcm otherwise."""
    dens = [x.denominator for x in xs]
    if not any(d & (d - 1) for d in dens):
        q = max(dens)
        k = q.bit_length()
        return [x.numerator << (k - d.bit_length()) for x, d in zip(xs, dens)], q
    q = math.lcm(*dens)
    return [x.numerator * (q // d) for x, d in zip(xs, dens)], q


def wide_norm2(u, v, den: int = 1) -> Fraction:
    """Euclidean norm of (u, v)/den: the sum of squares is exact, one wide
    sqrt.  u and v are integers over the positive integer den, or two
    rationals (Fractions), which are first put over one denominator.

    With n = u**2 + v**2 the sum is n/den**2.  den**2 is a square, so the
    sum is a rational square exactly when n is one; otherwise n/den**2 goes
    to the wide format in lowest terms (a dyadic sum is rounded once)."""
    if type(u) is not int or type(v) is not int:
        (u, v), q = align(u, v)
        den *= q
    n = u * u + v * v
    r = math.isqrt(n)
    if r * r == n:
        return Fraction(r, den)
    d = den * den
    if den & (den - 1):  # not a power of two: reduce before the conversion
        g = math.gcd(n, d)
        n, d = n // g, d // g
    return _sqrt_ratio(n, d)


def wide_cos_sin(x: Fraction) -> tuple[Fraction, Fraction]:
    """(cos x, sin x) at 240 bits from one kernel call on the wide argument;
    the same bits as separate cos and sin calls."""
    arg = from_man_exp(*_to_raw(x.numerator, x.denominator))
    c, s = mpf_cos_sin(arg, WIDE_PREC_BITS, _RND)
    return _mpf_raw_to_fraction(c), _mpf_raw_to_fraction(s)
