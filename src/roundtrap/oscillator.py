"""The conservative linear test system and its closed-form solution.

    dx/dt = -a*y,   dy/dt = b*x,   (x, y)(0) = (1, 0)

with a, b > 0.  The solution traces the ellipse b*x**2 + a*y**2 = b at
angular frequency sqrt(a*b); that quadratic form is the conserved quantity
every error measurement in this package is anchored to.  Parameters are
stored as exact rationals so the ground truth never inherits decimal-literal
conversion noise; pass strings ("0.1") or Fractions to keep CLI-style inputs
exact, while float inputs are taken at their exact binary value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import _wide
from .fpcore import ParameterError, _Frozen, _raw_to_fraction, _set

ANALYTIC_PREC_BITS = _wide.WIDE_PREC_BITS


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class OscillatorParams(_Frozen):
    """Coefficients of the system; defaults a=0.1, b=0.2."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction = Fraction(1, 10), b: Fraction = Fraction(1, 5)):
        a, b = _as_fraction(a), _as_fraction(b)
        if a <= 0 or b <= 0:
            raise ParameterError("oscillator coefficients a, b must be positive")
        _set(self, "a", a)
        _set(self, "b", b)

    def angular_frequency(self) -> Fraction:
        """sqrt(a*b) to wide precision."""
        return _orbit_constants(self)[0]

    def amplitude_y(self) -> Fraction:
        """sqrt(b/a), the y amplitude of the orbit, to wide precision."""
        return _orbit_constants(self)[1]


@lru_cache(maxsize=64)
def _orbit_constants(params: OscillatorParams) -> tuple[Fraction, Fraction]:
    """(sqrt(a*b), sqrt(b/a)) at wide precision, computed once per params."""
    return _wide.wide_sqrt(params.a * params.b), _wide.wide_sqrt(params.b / params.a)


class State(_Frozen):
    """Oscillator state (x, y) at time t.  Coordinates are exact rationals;
    finite-precision states embed exactly, so downstream error arithmetic
    stays exact."""

    __slots__ = ("x", "y", "t")

    def __init__(self, x: Fraction, y: Fraction, t: Fraction):
        if not type(x) is type(y) is type(t) is Fraction:
            x, y, t = _as_fraction(x), _as_fraction(y), _as_fraction(t)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "t", t)


_SET_X, _SET_Y, _SET_T = State.x.__set__, State.y.__set__, State.t.__set__


def _state(x: Fraction, y: Fraction, t: Fraction) -> State:
    """State(x, y, t) from three Fractions, set through the slots'
    descriptors without the constructor's frozen assignments and check."""
    s = object.__new__(State)
    _SET_X(s, x)
    _SET_Y(s, y)
    _SET_T(s, t)
    return s


INITIAL_STATE = State(Fraction(1), Fraction(0), Fraction(0))


def rhs(params: OscillatorParams, s: State) -> tuple[Fraction, Fraction]:
    """Exact right-hand side (-a*y, b*x)."""
    return -params.a * s.y, params.b * s.x


def _odd_parts(q: Fraction) -> tuple[int, int, int]:
    """(n, d, e) with q = n/d * 2**e and n, d odd, for q != 0."""
    n, d = q.numerator, q.denominator
    zn, zd = (n & -n).bit_length() - 1, (d & -d).bit_length() - 1
    return n >> zn, d >> zd, zn - zd


def _times(n1: int, d1: int, e1: int, n2: int, d2: int, e2: int) -> Fraction:
    """The product of two rationals given by ``_odd_parts``: only their odd
    parts can share factors, and those gcds are cheap when one side is
    small, as a time's and a dyadic value's odd denominators are."""
    g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
    return _raw_to_fraction((n1 // g1) * (n2 // g2), e1 + e2, (d1 // g2) * (d2 // g1))


# (params, the odd parts of its orbit constants): a one-entry cache of a pure
# function of the params, held with a reference so the identity stays theirs
_analytic_memo = (None, ())


def analytic_solution(params: OscillatorParams, t, near=None) -> State:
    """Closed-form solution x = cos(w*t), y = sqrt(b/a)*sin(w*t), w = sqrt(a*b).

    Evaluated at ANALYTIC_PREC_BITS (240) so its own trig error stays below
    2**-230 relative, regardless of any run precision it is compared against.
    The products w*t and sqrt(b/a)*sin are formed on integers; the last
    params' constants are kept by identity, so a run does not hash its
    params once per sample.  ``near`` is an optional hint for the phase w*t
    (``_wide.cos_sin_steps``), which changes no bit of the result.
    """
    global _analytic_memo
    t = _as_fraction(t)
    if t.numerator <= 0:
        if t.numerator:
            raise ParameterError("analytic solution is defined for t >= 0")
        return INITIAL_STATE
    memo = _analytic_memo
    if memo[0] is not params:
        memo = _analytic_memo = params, tuple(map(_odd_parts, _orbit_constants(params)))
    omega, amp = memo[1]
    c, s = _wide.wide_cos_sin(_times(*omega, *_odd_parts(t)), near)
    return _state(c, _times(*amp, *_odd_parts(s)), t)  # s != 0: a nonzero rational phase


def invariant_value(params: OscillatorParams, s: State) -> Fraction:
    """The conserved quadratic form b*x**2 + a*y**2, computed exactly."""
    return params.b * s.x * s.x + params.a * s.y * s.y
