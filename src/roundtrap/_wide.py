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

A long run's phase at step k is k theta.  ``cos_sin_steps`` carries
(C, S) = (cos, sin)(k theta) 2**W, W = 304, from sample to sample by integer
rotations, with a bound E on the Euclidean error.  ``wide_cos_sin`` turns a
hint to the wide phase x + delta by c = C - S delta, s = S + C delta; E
grows by 3 for the floors and by a power of two >= 2**W delta**2 for the
second-order terms.  It rounds c and s only when Ziv's test decides on that
bound, and else runs the kernel, so a hint changes the cost, never a bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fpcore import _div_raw, _raw_to_fraction, _round_raw, _sqrt_raw

WIDE_PREC_BITS = 240
_GUARD_BITS = 20  # the cosine and sine kernel's first guard width
_HALVINGS = 6
_HINT_BITS = WIDE_PREC_BITS + 64  # W: a hint holds cos and sin times 2**W
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


def _square_residues(m: int) -> bytes:
    """Whether each residue modulo m is the residue of a square."""
    table = bytearray(m)
    for k in range(m):
        table[k * k % m] = 1
    return bytes(table)


# a square is one modulo each of these; all but about 1 in 120 non-squares
# fail one of the four tests, which cost less than the square root
_SQUARE_64, _SQUARE_63, _SQUARE_65, _SQUARE_11 = map(_square_residues, (64, 63, 65, 11))


def wide_norm2(u, v, den: int = 1) -> Fraction:
    """Euclidean norm of (u, v)/den: the sum of squares is exact, one wide
    sqrt.  u and v are integers over the positive integer den, or two
    rationals (Fractions), which are first put over one denominator.

    With n = u**2 + v**2 the sum is n/den**2.  den**2 is a square, so the
    sum is a rational square exactly when n is one (``math.isqrt`` decides,
    for the n that pass the residue tests); otherwise n/den**2 goes
    to the wide format in lowest terms: a dyadic sum n * 2**-2k is rounded
    once, by ``_round_raw``."""
    if type(u) is not int or type(v) is not int:
        (u, v), q = align(u, v)
        den *= q
    n = u * u + v * v
    if _SQUARE_64[n & 63] and _SQUARE_63[n % 63] and _SQUARE_65[n % 65] and _SQUARE_11[n % 11]:
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


def _cos_sin_fixed(m: int, e: int, w: int) -> tuple[int, int, int, int]:
    """(c, s, u, err): cos x and sin x for x = m * 2**e in units of 2**-u,
    each within err, with the reduced argument held at w bits (e + w >= -2).

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
    """
    ex = e + abs(m).bit_length() - 1  # 2**ex <= |x| < 2**(ex + 1)
    k = _HALVINGS
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
    return c, s, u, (j // 2 + 3) << (k + 2)


def _decided(c: int, s: int, u: int, err: int, n: int):
    """Ziv's test: c and s (units of 2**-u) rounded to n bits as raw pairs
    when every value within err of each rounds alike, else None."""
    lo = _round_raw(c - err, -u, n), _round_raw(s - err, -u, n)
    return lo if lo == (_round_raw(c + err, -u, n), _round_raw(s + err, -u, n)) else None


def _cos_sin_raw(m: int, e: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """cos x and sin x for x = m * 2**e, m != 0 of at most n bits, each
    correctly rounded to n bits as a raw pair; an undecided rounding
    doubles the guard width g, and a tiny x keeps n + g significant bits."""
    ex = e + abs(m).bit_length() - 1
    g = _GUARD_BITS
    while (got := _decided(*_cos_sin_fixed(m, e, n + g - min(ex, 0)), n)) is None:
        g *= 2
    return got


def _anchor(num: int, den: int) -> tuple[int, int, int]:
    """The hint of the phase num/den >= 0 from the kernel at 2**-(W + 8):
    the phase errs by 2**-9 units, each component by (err >> d) + 2."""
    bits = _HINT_BITS + 8
    c, s, u, err = _cos_sin_fixed(((num << (bits + 1)) // den + 1) >> 1, -bits, bits)
    d = u - _HINT_BITS
    return c >> d, s >> d, 2 * (err >> d) + 3


def cos_sin_steps(theta: Fraction, steps):
    """A hint (C, S, E) for each phase k theta, theta > 0, k in the
    ascending steps (k >= 0), or None from a phase of 2**120 on, where the
    second-order term alone can reach 2**64 units.  Each hint is the last
    one rotated by the cached rotations by 2**j theta for the set bits j of
    the gap: a product adds the factor's bound and 3, a squaring doubles
    the bound and adds 3 (both hold for bounds far below 2**150).  A hint
    whose bound passes 2**40 is anchored anew by the kernel."""
    num, den, W = theta.numerator, theta.denominator, _HINT_BITS
    powers = [_anchor(num, den)]  # (C, S, E) of the rotation by 2**j theta
    C, S, E, k0 = 1 << W, 0, 0, 0
    for k in steps:
        if k * num >= den << 120:
            yield None
            continue
        gap, k0 = k - k0, k
        while len(powers) < gap.bit_length():
            c, s, err = powers[-1]
            powers.append(((c * c - s * s) >> W, c * s >> (W - 1), 2 * err + 3))
        for j in range(gap.bit_length()):
            if gap >> j & 1:
                c, s, err = powers[j]
                C, S, E = (C * c - S * s) >> W, (C * s + S * c) >> W, E + err + 3
        if E > 1 << 40:
            C, S, E = _anchor(k * num, den)
        yield C, S, E


def wide_cos_sin(x: Fraction, near=None) -> tuple[Fraction, Fraction]:
    """(cos x, sin x) of x's wide value, each correctly rounded at 240 bits.
    ``near`` is an optional hint from ``cos_sin_steps`` for the phase x:
    when it decides the rounding, the kernel does not run."""
    if not x:
        return Fraction(1), Fraction(0)
    num, den = x.numerator, x.denominator
    m, e = _to_raw(num, den)
    got = None
    if near is not None:  # delta = m 2**e - x = dn/dd exactly, D = delta 2**(W + 2)
        (C, S, E), W = near, _HINT_BITS
        dn, dd = ((m * den << e) - num, den) if e >= 0 else (m * den - (num << -e), den << -e)
        D = (dn << W + 2) // dd
        err = E + 3 + (1 << max(2 * (dn.bit_length() - dd.bit_length() + 1) + W, 0))
        got = _decided(C - (S * D >> W + 2), S + (C * D >> W + 2), W, err, WIDE_PREC_BITS)
    c, s = got or _cos_sin_raw(m, e, WIDE_PREC_BITS)
    return _raw_to_fraction(*c), _raw_to_fraction(*s)
