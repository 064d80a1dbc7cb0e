"""Wide-precision evaluation helpers on fpcore's raw rounding kernels.

Reference-side quantities -- the analytic solution, error norms, eigenvalue
moduli -- must not carry measurable round-off of their own.  Everything here
is evaluated at ``WIDE_PREC_BITS`` with round-to-nearest, ties to even, and
returned as an exact ``Fraction`` of the computed value, so downstream
arithmetic stays exact.  Rounding, division and square roots are fpcore's
raw kernels (``_round_raw``, ``_div_raw``, ``_sqrt_raw``) at 240 bits.

A rational input num/den (in lowest terms) enters the wide format with two
roundings: num is rounded to 240 bits, then divided by den with one more
240-bit rounding.  When den is a power of two that division is exact, so a
dyadic input is rounded once.  The square root of that wide value is
correctly rounded at 240 bits; square roots of rational squares skip the
wide format and are exact.  Cosine and sine come from a fixed-point kernel
on Python integers and are correctly rounded at 240 bits, for any argument
(Ziv's retry makes the working precision grow until each rounding is
decided).  Every error is far under the 2**-100 relative budget the
reference side must honor.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fpcore import _div_raw, _raw_to_fraction, _round_raw, _sqrt_raw

WIDE_PREC_BITS = 240
_GUARD_BITS = 20  # the cosine and sine kernel's first guard width
_HALVINGS = 6
_PI = [0, 0]  # bits, pi * 2**bits: the widest pi computed so far


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
    """Numerators of the rationals ``xs`` over their denominators' lcm, and
    that lcm (the largest denominator when all are powers of two)."""
    dens = [x.denominator for x in xs]
    q = math.lcm(*dens)
    return [x.numerator * (q // d) for x, d in zip(xs, dens)], q


def wide_norm2(u, v, den: int = 1) -> Fraction:
    """Euclidean norm of (u, v)/den: the sum of squares is exact, one wide
    sqrt.  u and v are integers over the positive integer den, or two
    rationals (Fractions), which are first put over one denominator.

    With n = u**2 + v**2 the sum is n/den**2.  den**2 is a square, so the
    sum is a rational square exactly when n is one; otherwise n/den**2 goes
    to the wide format in lowest terms: a dyadic sum n * 2**-2k is rounded
    once, by ``_round_raw``."""
    if type(u) is not int or type(v) is not int:
        (u, v), q = align(u, v)
        den *= q
    n = u * u + v * v
    r = math.isqrt(n)
    if r * r == n:
        return Fraction(r, den)
    if den & (den - 1):  # not a power of two: reduce before the conversion
        d = den * den
        g = math.gcd(n, d)
        return _sqrt_ratio(n // g, d // g)
    raw = _round_raw(n, 2 - 2 * den.bit_length(), WIDE_PREC_BITS)
    return _raw_to_fraction(*_sqrt_raw(*raw, WIDE_PREC_BITS))


def _pi(bits: int) -> int:
    """pi * 2**bits within 2, by Machin's pi = 16 atan(1/5) - 4 atan(1/239)
    at g more bits: each series term errs by less than 2.05 and each tail
    by less than 1.05, so the sum errs by less than 8 (bits + g) + 70 < 2**g
    units before the shift."""
    if _PI[0] < bits:
        g = bits.bit_length() + 5

        def atan_inv(k: int) -> int:
            total, term, j = 0, (1 << (bits + g)) // k, 1
            while term:
                total += term // j
                term, j = -term // (k * k), j + 2
            return total

        _PI[:] = bits, (16 * atan_inv(5) - 4 * atan_inv(239)) >> g
    have, pi = _PI
    return pi >> (have - bits)


def _cos_sin_raw(m: int, e: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """cos x and sin x for x = m * 2**e, m != 0 of at most n bits, each
    correctly rounded to n bits as a raw pair.

    x is reduced by q pi/2 to r, |r| < 0.79, held as R = r 2**w; R is read
    as y = r / 2**k in units of 2**-u, u = w + k, so the k halvings cost
    nothing.  The sine series runs on y, the cosine is the isqrt of
    1 - sin(y)**2, and k doublings return to r.  Errors, in units of 2**-u:
    - R: X is exact and h errs by less than 2, so q h by less than
      2|q| < 0.9 2**(W - w); with the floor of the shift |R - r 2**w| < 1.9.
    - Series: with two floors per term, y2's floor and |y| < 2**-k, term j
      errs by e_j < (e_(j-1) 4**-k + 2) / 6 + 1 < 1.4.  The loop ends on
      the J-th term, J = j // 2, which bounds the tail by 1.4, so sin y
      errs by < 1.4 J + 1.9 and cos y by 1 more (the isqrt's floor, and
      |d cos / d sin| < 0.6).
    - Each doubling at angle a maps an error E to at most 2 (1 + |a|) E + 1,
      and the angles sum to less than 0.79, so after k >= 1 doublings the
      error is below e**0.79 2**k (1.4 J + 3.9) < 2**(k + 2) (J + 3) = err.
    Ziv's test: when v - err and v + err round alike, so does the value
    between them (cos and sin of a nonzero rational are transcendental,
    never a tie); otherwise the guard width doubles and the kernel reruns.
    """
    ex = e + abs(m).bit_length() - 1  # 2**ex <= |x| < 2**(ex + 1)
    g, k = _GUARD_BITS, _HALVINGS
    while True:
        w = n + g - min(ex, 0)  # a tiny x keeps n + g significant bits
        W = w + max(ex, 0) + 2  # a huge x is reduced at log2|x| more bits
        h = _pi(W - 1)  # pi/2 2**W
        X = m << (e + W)
        q = (X + (h >> 1)) // h
        s = t = (X - q * h) >> (W - w)
        u = w + k
        minus_y2 = -(s * s >> u)
        j = 1
        while t:
            t = (t * minus_y2 >> u) // ((j + 1) * (j + 2))
            s += t
            j += 2
        one = 1 << u
        c = math.isqrt(one * one - s * s)
        for _ in range(k):  # sin 2a = 2 sin a cos a, cos 2a = 1 - 2 sin(a)**2
            s, c = s * c >> (u - 1), one - (s * s >> (u - 1))
        if q & 1:
            c, s = -s, c
        if q & 2:
            c, s = -c, -s
        err = (j // 2 + 3) << (k + 2)
        lo = _round_raw(c - err, -u, n), _round_raw(s - err, -u, n)
        if lo == (_round_raw(c + err, -u, n), _round_raw(s + err, -u, n)):
            return lo
        g *= 2


def wide_cos_sin(x: Fraction) -> tuple[Fraction, Fraction]:
    """(cos x, sin x) of x's wide value, each correctly rounded at 240 bits."""
    if not x:
        return Fraction(1), Fraction(0)
    c, s = _cos_sin_raw(*_to_raw(x.numerator, x.denominator), WIDE_PREC_BITS)
    return _raw_to_fraction(*c), _raw_to_fraction(*s)
