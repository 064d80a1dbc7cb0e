"""Wide-precision evaluation helpers on mpmath's raw ``libmp`` kernels.

Reference-side quantities -- the analytic solution, error norms, eigenvalue
moduli -- must not carry measurable round-off of their own.  Everything here
is evaluated at ``WIDE_PREC_BITS`` with round-to-nearest and returned as an
exact ``Fraction`` of the computed value, so downstream arithmetic stays
exact.

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

import mpmath
from mpmath.libmp import from_int, from_man_exp, mpf_cos_sin, mpf_div, mpf_sqrt

WIDE_PREC_BITS = 240
_RND = "n"


def _raw_to_fraction(raw: tuple) -> Fraction:
    sign, man, exp, _ = raw
    man = int(man)
    if man == 0:
        if exp:
            raise ValueError("non-finite value has no rational representation")
        return Fraction(0)
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Exact rational value of a finite mpmath float."""
    return _raw_to_fraction(x._mpf_)


def _to_raw(num: int, den: int) -> tuple:
    """num/den (den > 0) in the wide format: num rounded to 240 bits, then
    one rounded division by den -- what mpf(num)/den does at 240 bits.  The
    first rounding depends on num, so num/den must be in lowest terms unless
    den is a power of two; then the division is exact and the value is
    rounded once."""
    zeros = (den & -den).bit_length() - 1
    odd = den >> zeros
    if odd == 1:
        return from_man_exp(num, -zeros, WIDE_PREC_BITS, _RND)
    return mpf_div(from_int(num, WIDE_PREC_BITS, _RND), from_man_exp(odd, zeros),
                   WIDE_PREC_BITS, _RND)


def _sqrt_ratio(num: int, den: int) -> Fraction:
    """sqrt(num/den) for num > 0, not a rational square, with num and den
    as ``_to_raw`` takes them."""
    return _raw_to_fraction(mpf_sqrt(_to_raw(num, den), WIDE_PREC_BITS, _RND))


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


def wide_norm2(x: Fraction, y: Fraction) -> Fraction:
    """Euclidean norm of (x, y): the sum of squares is exact, one wide sqrt.

    With x = xn/xd and y = yn/yd the sum is n/d, n = (xn*yd)**2 + (yn*xd)**2,
    d = (xd*yd)**2.  d is a square, so the sum is a rational square exactly
    when n is one."""
    xd, yd = x.denominator, y.denominator
    n = (x.numerator * yd) ** 2 + (y.numerator * xd) ** 2
    r = math.isqrt(n)
    dd = xd * yd
    if r * r == n:
        return Fraction(r, dd)
    d = dd * dd
    if dd & (dd - 1):  # not a power of two: reduce before the conversion
        g = math.gcd(n, d)
        n, d = n // g, d // g
    return _sqrt_ratio(n, d)


def wide_cos_sin(x: Fraction) -> tuple[Fraction, Fraction]:
    """(cos x, sin x) at 240 bits from one kernel call on the wide argument;
    the same bits as separate cos and sin calls."""
    c, s = mpf_cos_sin(_to_raw(x.numerator, x.denominator), WIDE_PREC_BITS, _RND)
    return _raw_to_fraction(c), _raw_to_fraction(s)
