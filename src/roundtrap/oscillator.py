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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _wide
from .fpcore import ParameterError

ANALYTIC_PREC_BITS = _wide.WIDE_PREC_BITS


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True, slots=True)
class OscillatorParams:
    """Coefficients of the system; defaults a=0.1, b=0.2."""

    a: Fraction = Fraction(1, 10)
    b: Fraction = Fraction(1, 5)

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        if self.a <= 0 or self.b <= 0:
            raise ParameterError("oscillator coefficients a, b must be positive")

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


@dataclass(frozen=True, slots=True)
class State:
    """Oscillator state (x, y) at time t.  Coordinates are exact rationals;
    finite-precision states embed exactly, so downstream error arithmetic
    stays exact."""

    x: Fraction
    y: Fraction
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _as_fraction(self.x))
        object.__setattr__(self, "y", _as_fraction(self.y))
        object.__setattr__(self, "t", _as_fraction(self.t))


INITIAL_STATE = State(Fraction(1), Fraction(0), Fraction(0))


def rhs(params: OscillatorParams, s: State) -> tuple[Fraction, Fraction]:
    """Exact right-hand side (-a*y, b*x)."""
    return -params.a * s.y, params.b * s.x


def analytic_solution(params: OscillatorParams, t) -> State:
    """Closed-form solution x = cos(w*t), y = sqrt(b/a)*sin(w*t), w = sqrt(a*b).

    Evaluated at ANALYTIC_PREC_BITS (240) so its own trig error stays below
    2**-230 relative, regardless of any run precision it is compared against.
    """
    t = _as_fraction(t)
    if t < 0:
        raise ParameterError("analytic solution is defined for t >= 0")
    if t == 0:
        return INITIAL_STATE
    omega, amp = _orbit_constants(params)
    c, s = _wide.wide_cos_sin(omega * t)
    return State(c, amp * s, t)


def invariant_value(params: OscillatorParams, s: State) -> Fraction:
    """The conserved quadratic form b*x**2 + a*y**2, computed exactly."""
    return params.b * s.x * s.x + params.a * s.y * s.y
