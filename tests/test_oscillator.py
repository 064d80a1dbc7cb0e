import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mpf_to_fraction
from roundtrap import _wide
from roundtrap.oscillator import (
    INITIAL_STATE,
    OscillatorParams,
    State,
    analytic_solution,
    invariant_value,
    rhs,
    _odd_parts,
    _times,
)

PARAMS = OscillatorParams()  # a=0.1, b=0.2

# the analytic solution promises relative trig error below 2**-100; test
# against an even tighter budget since evaluation runs at 240 bits
TRIG_TOL = Fraction(1, 2**180)


def taylor_cos_sin(x: Fraction, terms: int = 60) -> tuple[Fraction, Fraction]:
    """Independent exact-rational Taylor oracle (argument small enough here
    that no reduction is needed)."""
    c = Fraction(0)
    s = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        if k % 2 == 0:
            c += term if k % 4 == 0 else -term
        else:
            s += term if k % 4 == 1 else -term
        term = term * x / (k + 1)
    return c, s


class TestParams:
    def test_defaults_are_exact_rationals(self):
        assert PARAMS.a == Fraction(1, 10)
        assert PARAMS.b == Fraction(1, 5)

    def test_string_input_is_exact(self):
        p = OscillatorParams("0.3", "0.7")
        assert (p.a, p.b) == (Fraction(3, 10), Fraction(7, 10))

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-1, 1), (1, -1)])
    def test_positivity(self, a, b):
        with pytest.raises(ValueError):
            OscillatorParams(a, b)

    def test_angular_frequency(self):
        w = PARAMS.angular_frequency()
        assert abs(w * w - Fraction(1, 50)) < TRIG_TOL


class TestRhs:
    def test_unit_x(self):
        assert rhs(PARAMS, State(1, 0, 0)) == (0, Fraction(1, 5))

    def test_unit_y(self):
        assert rhs(PARAMS, State(0, 1, 0)) == (Fraction(-1, 10), 0)

    def test_fixed_point(self):
        assert rhs(PARAMS, State(0, 0, 0)) == (0, 0)

    @given(
        x1=st.fractions(max_denominator=997), y1=st.fractions(max_denominator=997),
        x2=st.fractions(max_denominator=997), y2=st.fractions(max_denominator=997),
        al=st.fractions(max_denominator=97), be=st.fractions(max_denominator=97),
    )
    def test_linearity(self, x1, y1, x2, y2, al, be):
        dx1, dy1 = rhs(PARAMS, State(x1, y1, 0))
        dx2, dy2 = rhs(PARAMS, State(x2, y2, 0))
        dxc, dyc = rhs(PARAMS, State(al * x1 + be * x2, al * y1 + be * y2, 0))
        assert dxc == al * dx1 + be * dx2
        assert dyc == al * dy1 + be * dy2


class TestAnalyticSolution:
    def test_initial(self):
        assert analytic_solution(PARAMS, 0) == INITIAL_STATE

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            analytic_solution(PARAMS, -1)

    def test_half_period(self):
        import mpmath

        # t = pi / sqrt(ab), built from the wide value of pi
        with mpmath.workprec(_wide.WIDE_PREC_BITS):
            t = mpf_to_fraction(mpmath.pi) / PARAMS.angular_frequency()
        s = analytic_solution(PARAMS, t)
        assert abs(s.x - (-1)) < TRIG_TOL
        assert abs(s.y) < TRIG_TOL

    def test_t10_against_taylor_oracle(self):
        # x = cos(sqrt(0.02)*10), y = sqrt(2)*sin(sqrt(0.02)*10)
        s = analytic_solution(PARAMS, 10)
        phase = PARAMS.angular_frequency() * 10
        c, si = taylor_cos_sin(phase)
        assert abs(s.x - c) < TRIG_TOL
        assert abs(s.y - _wide.wide_sqrt(Fraction(2)) * si) < TRIG_TOL

    def test_periodicity(self):
        import mpmath

        with mpmath.workprec(_wide.WIDE_PREC_BITS):
            period = 2 * mpf_to_fraction(mpmath.pi) / PARAMS.angular_frequency()
        s1 = analytic_solution(PARAMS, Fraction(7, 2))
        s2 = analytic_solution(PARAMS, Fraction(7, 2) + period)
        assert abs(s1.x - s2.x) < TRIG_TOL
        assert abs(s1.y - s2.y) < TRIG_TOL

    @given(st.fractions().filter(bool), st.fractions().filter(bool))
    def test_integer_product_is_fraction_product(self, p, q):
        # the phase and the y coordinate are formed by _times, in lowest terms
        got, want = _times(*_odd_parts(p), *_odd_parts(q)), p * q
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @pytest.mark.parametrize("t", [Fraction(1, 7), 1, 10, 100, 10000])
    def test_conservation_along_orbit(self, t):
        s = analytic_solution(PARAMS, t)
        assert abs(invariant_value(PARAMS, s) - PARAMS.b) < TRIG_TOL


class TestInvariant:
    def test_initial_value(self):
        assert invariant_value(PARAMS, State(1, 0, 0)) == Fraction(1, 5)

    def test_origin(self):
        assert invariant_value(PARAMS, State(0, 0, 0)) == 0

    def test_exact_fraction_arithmetic(self):
        s = State(Fraction(3, 7), Fraction(-2, 9), 0)
        want = Fraction(1, 5) * Fraction(9, 49) + Fraction(1, 10) * Fraction(4, 81)
        assert invariant_value(PARAMS, s) == want


class TestState:
    def test_exact_storage(self):
        s = State("0.1", Fraction(1, 3), 2)
        assert s.x == Fraction(1, 10)
        assert s.y == Fraction(1, 3)
        assert s.t == 2

    @pytest.mark.parametrize("coords", [(1, Fraction(1, 3), Fraction(2)), (Fraction(1), "0.5", Fraction(2)),
                                        (Fraction(1), Fraction(1, 3), 2.5)])
    def test_each_coordinate_converted(self, coords):
        s = State(*coords)
        assert all(type(v) is Fraction for v in (s.x, s.y, s.t))
        assert (s.x, s.y, s.t) == tuple(Fraction(v) for v in coords)

    def test_float_taken_at_binary_value(self):
        s = State(0.1, 0, 0)
        assert s.x == Fraction(0.1)
        assert s.x != Fraction(1, 10)
