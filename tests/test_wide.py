"""The wide layer against its earlier mpf-object implementation.

The oracle functions below are the wide layer as it was written on mpmath's
``mpf`` objects inside ``workprec``.  The raw-tuple implementation must give
the same Fraction, bit for bit, on every input: any difference would change
the CLI's data columns.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundtrap import _wide
from roundtrap.oscillator import INITIAL_STATE, OscillatorParams, State, analytic_solution

# ---------------------------------------------------------------------------
# Oracle: the mpf-object implementation
# ---------------------------------------------------------------------------


def oracle_to_mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def oracle_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise ValueError("square root of a negative value")
    if x == 0:
        return Fraction(0)
    n = math.isqrt(x.numerator)
    d = math.isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    with mpmath.workprec(_wide.WIDE_PREC_BITS):
        return _wide.mpf_to_fraction(mpmath.sqrt(oracle_to_mpf(x)))


def oracle_norm2(x: Fraction, y: Fraction) -> Fraction:
    return oracle_sqrt(x * x + y * y)


def oracle_cos_sin(x: Fraction) -> tuple[Fraction, Fraction]:
    with mpmath.workprec(_wide.WIDE_PREC_BITS):
        mx = oracle_to_mpf(x)
        return _wide.mpf_to_fraction(mpmath.cos(mx)), _wide.mpf_to_fraction(mpmath.sin(mx))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def random_bits(seed: int, bits: int, sign: int) -> int:
    """A signed integer of exactly ``bits`` bits, every bit below the
    leading one random."""
    return sign * (random.Random(seed).getrandbits(bits) | 1 << (bits - 1))


# Signed integers up to 300 bits.  Hypothesis favours small and boundary
# values such as 2**k and 2**k - 1, which a 240-bit conversion rounds exactly
# or almost exactly; the random-bit integers make conversions really round.
numerators = st.one_of(
    st.integers(-(1 << 300), 1 << 300),
    st.builds(random_bits, st.integers(0, 2**32), st.integers(1, 300), st.sampled_from((1, -1))),
)
dyadic = st.builds(Fraction, numerators, st.integers(0, 600).map(lambda k: 1 << k))
non_dyadic = st.builds(
    Fraction,
    numerators,
    st.one_of(
        st.just(3),
        st.integers(1, 40).map(lambda k: 10**k),
        st.just(7 << 40),
    ),
)
rationals = st.one_of(dyadic, non_dyadic)
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))


@st.composite
def exact_norm_pairs(draw):
    """(x, y, hypot) with hypot rational: a scaled Pythagorean triple over a
    dyadic or non-dyadic denominator, in either order and sign."""
    a, b, c = draw(st.sampled_from(TRIPLES))
    scale = draw(st.integers(1, 1 << 200))
    den = draw(st.one_of(st.integers(0, 600).map(lambda k: 1 << k),
                         st.sampled_from((3, 10**7, 7 << 40))))
    x, y = Fraction(a * scale, den), Fraction(b * scale, den)
    if draw(st.booleans()):
        x, y = y, x
    return draw(st.sampled_from((1, -1))) * x, draw(st.sampled_from((1, -1))) * y, Fraction(c * scale, den)


# ---------------------------------------------------------------------------
# Bit identity
# ---------------------------------------------------------------------------


class TestNorm2:
    @given(x=dyadic, y=dyadic)
    @settings(max_examples=300)
    def test_dyadic(self, x, y):
        assert _wide.wide_norm2(x, y) == oracle_norm2(x, y)

    @given(x=rationals, y=non_dyadic)
    @settings(max_examples=300)
    def test_non_dyadic(self, x, y):
        assert _wide.wide_norm2(x, y) == oracle_norm2(x, y)
        assert _wide.wide_norm2(y, x) == oracle_norm2(y, x)

    @given(xyz=exact_norm_pairs())
    @settings(max_examples=200)
    def test_exact_squares(self, xyz):
        x, y, hypot = xyz
        assert _wide.wide_norm2(x, y) == hypot == oracle_norm2(x, y)

    @given(x=rationals)
    def test_zero_coordinate(self, x):
        assert _wide.wide_norm2(x, Fraction(0)) == abs(x) == oracle_norm2(x, Fraction(0))
        assert _wide.wide_norm2(Fraction(0), x) == abs(x) == oracle_norm2(Fraction(0), x)

    def test_both_zero(self):
        assert _wide.wide_norm2(Fraction(0), Fraction(0)) == 0 == oracle_norm2(Fraction(0), Fraction(0))


class TestSqrt:
    @given(x=rationals.map(abs))
    @settings(max_examples=300)
    def test_matches_oracle(self, x):
        assert _wide.wide_sqrt(x) == oracle_sqrt(x)

    @given(n=st.integers(0, 1 << 200), d=st.integers(1, 1 << 200))
    def test_rational_square_exact(self, n, d):
        x = Fraction(n, d) ** 2
        assert _wide.wide_sqrt(x) == Fraction(n, d) == oracle_sqrt(x)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _wide.wide_sqrt(Fraction(-1, 3))


class TestCosSin:
    @given(x=rationals)
    @settings(max_examples=300)
    def test_matches_oracle(self, x):
        assert _wide.wide_cos_sin(x) == oracle_cos_sin(x)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 1 << 500), Fraction(-7, 10**30),
                                   Fraction(10**6, 3), Fraction(355, 113)])
    def test_edge_arguments(self, x):
        assert _wide.wide_cos_sin(x) == oracle_cos_sin(x)


class TestMpfToFraction:
    @pytest.mark.parametrize("x", [mpmath.inf, -mpmath.inf, mpmath.nan])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError):
            _wide.mpf_to_fraction(x)

    def test_finite_values(self):
        assert _wide.mpf_to_fraction(mpmath.mpf(0)) == 0
        assert _wide.mpf_to_fraction(mpmath.mpf(-0.375)) == Fraction(-3, 8)
        assert _wide.mpf_to_fraction(mpmath.mpf(3) * 2**70) == 3 << 70


# ---------------------------------------------------------------------------
# The analytic solution and its memoised orbit constants
# ---------------------------------------------------------------------------

# the benchmark's seed pairs (a*b = 1/50) plus one pair with another frequency
PARAM_PAIRS = [("0.1", "0.2"), ("0.2", "0.1"), ("0.05", "0.4"), ("0.4", "0.05"),
               ("0.025", "0.8"), ("0.8", "0.025"), ("3", "7")]
TIMES = [Fraction(1, 100), Fraction(7, 2), Fraction(200), Fraction(123456789, 1000)]


def oracle_analytic(a: Fraction, b: Fraction, t: Fraction) -> State:
    c, s = oracle_cos_sin(oracle_sqrt(a * b) * t)
    return State(c, oracle_sqrt(b / a) * s, t)


@pytest.mark.parametrize("first, second", list(zip(PARAM_PAIRS, PARAM_PAIRS[1:] + PARAM_PAIRS[:1])))
def test_analytic_solution_alternating_params(first, second):
    # alternating between two params makes a memo keyed on the wrong thing
    # hand one params' constants to the other
    params = [OscillatorParams(*first), OscillatorParams(*second)]
    for t in TIMES:
        for p in params + params[::-1]:
            assert p.angular_frequency() == oracle_sqrt(p.a * p.b)
            assert p.amplitude_y() == oracle_sqrt(p.b / p.a)
            assert analytic_solution(p, t) == oracle_analytic(p.a, p.b, t)
            assert analytic_solution(p, 0) == INITIAL_STATE
