"""Emulator unit tests: frozen conversions, native-arithmetic conformance on
modest samples (the acceptance suite runs the full 1e5-pair version), the
rounding invariants as hypothesis properties, and the raw kernels against
an independent rounding oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundtrap.fpcore import (
    DOUBLE,
    QUAD,
    SINGLE,
    PrecisionConfig,
    RValue,
    op_add,
    op_div,
    op_mul,
    op_sqrt,
    op_sub,
    _add_raw,
    _div_raw,
    _fraction,
    _fraction_to_raw,
    _raw_to_fraction,
    _round_raw,
    _sqrt_raw,
    round_to,
)
from conftest import rand_operand

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestPrecisionConfig:
    def test_bounds(self):
        PrecisionConfig(2)
        PrecisionConfig(113)
        with pytest.raises(ValueError):
            PrecisionConfig(1)
        with pytest.raises(ValueError):
            PrecisionConfig(114)
        with pytest.raises(TypeError):
            PrecisionConfig(24.0)

    @pytest.mark.parametrize("bits,expected", [(24, Fraction(1, 2**24)), (53, Fraction(1, 2**53)), (2, Fraction(1, 4))])
    def test_unit_roundoff(self, bits, expected):
        assert PrecisionConfig(bits).unit_roundoff == expected
        assert expected > 0


class TestRoundTo:
    def test_exact_half(self, p24):
        assert round_to(0.5, p24).to_fraction() == Fraction(1, 2)

    def test_one_third_matches_native_single(self, p24):
        # oracle: native single-precision conversion of 1/3
        want = Fraction(float(np.float32(1.0) / np.float32(3.0)))
        assert round_to(Fraction(1, 3), p24).to_fraction() == want
        assert want == Fraction(11184811, 1 << 25)

    def test_tie_rounds_to_even(self, p24):
        # 1 + 2**-24 is exactly halfway between 1 and the next single
        assert round_to(Fraction(1) + Fraction(1, 1 << 24), p24).to_fraction() == 1

    def test_zero_at_every_precision(self):
        for bits in (2, 3, 11, 24, 53, 113):
            rv = round_to(0, PrecisionConfig(bits))
            assert rv == RValue(0, 0)
            assert round_to(rv, PrecisionConfig(bits)) == rv

    def test_non_finite_rejected(self, p24):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                round_to(bad, p24)

    def test_unsupported_type_rejected(self, p24):
        with pytest.raises(TypeError):
            round_to("0.5", p24)

    def test_canonical_form(self, p24):
        rv = round_to(2.0, p24)
        assert (rv.significand, rv.exponent) == (1, 1)
        assert round_to(6.0, p24) == RValue(3, 1)

    @given(x=finite_floats)
    def test_idempotent(self, x):
        rv = round_to(x, SINGLE)
        assert round_to(rv, SINGLE) == rv

    @given(x=finite_floats, y=finite_floats)
    def test_monotone(self, x, y):
        if x > y:
            x, y = y, x
        assert round_to(x, SINGLE).to_fraction() <= round_to(y, SINGLE).to_fraction()

    @given(x=finite_floats)
    def test_sign_symmetric(self, x):
        assert round_to(-x, SINGLE) == -round_to(x, SINGLE)

    @given(m=st.integers(1, (1 << 24) - 1), e=st.integers(-200, 200), sign=st.sampled_from((1, -1)))
    def test_exactness(self, m, e, sign):
        x = Fraction(sign * m) * Fraction(2) ** e
        assert round_to(x, SINGLE).to_fraction() == x

    @given(x=finite_floats)
    def test_error_bound(self, x):
        exact = Fraction(x)
        got = round_to(x, SINGLE).to_fraction()
        assert abs(got - exact) <= SINGLE.unit_roundoff * abs(exact)


class TestOperations:
    def test_add_exact(self, p24):
        assert op_add(1.0, 1.0, p24).to_fraction() == 2

    def test_div_one_third_double(self, p53):
        assert op_div(1.0, 3.0, p53).to_fraction() == Fraction(1.0 / 3.0)

    def test_division_by_zero(self, p24):
        with pytest.raises(ZeroDivisionError):
            op_div(1.0, 0.0, p24)

    def test_sqrt_negative(self, p24):
        with pytest.raises(ValueError):
            op_sqrt(-1.0, p24)

    def test_sqrt_exact_square(self, p24):
        assert op_sqrt(4.0, p24).to_fraction() == 2

    def test_wider_operands_rerounded(self, p24, p53):
        x = round_to(Fraction(1, 3), p53)
        y = round_to(Fraction(2, 3), p53)
        narrow = op_add(round_to(x, p24), round_to(y, p24), p24)
        assert op_add(x, y, p24) == narrow

    def test_deterministic(self, p24, rng):
        pairs = [(rand_operand(rng, 24), rand_operand(rng, 24)) for _ in range(50)]
        first = [op_mul(a, b, p24) for a, b in pairs]
        second = [op_mul(a, b, p24) for a, b in pairs]
        assert first == second

    @pytest.mark.parametrize("bits", [24, 53])
    def test_conformance_sample(self, bits, rng):
        # bit-exact agreement with native IEEE single/double (full-size run
        # in the acceptance suite)
        cfg = PrecisionConfig(bits)
        to_native = np.float32 if bits == 24 else np.float64
        for _ in range(2000):
            a = rand_operand(rng, bits)
            b = rand_operand(rng, bits)
            fa, fb = to_native(float(a)), to_native(float(b))
            assert float(op_add(a, b, cfg)) == float(fa + fb)
            assert float(op_sub(a, b, cfg)) == float(fa - fb)
            assert float(op_mul(a, b, cfg)) == float(fa * fb)
            assert float(op_div(a, b, cfg)) == float(np.divide(fa, fb))
            assert float(op_sqrt(abs(a), cfg)) == float(np.sqrt(abs(fa)))

    @given(
        data=st.tuples(
            st.integers(1, (1 << 24) - 1),
            st.integers(-40, 40),
            st.integers(1, (1 << 24) - 1),
            st.integers(-40, 40),
            st.sampled_from((1, -1)),
            st.sampled_from((1, -1)),
        )
    )
    @settings(max_examples=300)
    def test_one_rounding_error_bound(self, data):
        ma, ea, mb, eb, sa, sb = data
        a = Fraction(sa * ma) * Fraction(2) ** ea
        b = Fraction(sb * mb) * Fraction(2) ** eb
        u = SINGLE.unit_roundoff
        for op, exact in (
            (op_add, a + b),
            (op_sub, a - b),
            (op_mul, a * b),
            (op_div, a / b),
        ):
            got = op(a, b, SINGLE).to_fraction()
            assert abs(got - exact) <= u * abs(exact)


class TestRValue:
    def test_float_roundtrip(self, p24):
        rv = round_to(0.1, p24)
        assert float(rv) == float(np.float32(0.1))

    def test_bool(self):
        assert not RValue(0, 0)
        assert RValue(1, -3)


def round_raw_oracle(m, e, p):
    """Round signed m * 2**e to p significand bits, ties to even, on the
    magnitude: fpcore's _round_raw before it became a signed floor shift."""
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


def round_fraction(x: Fraction, p: int) -> Fraction:
    """x rounded to p significand bits by Python's round-half-even round()
    of the exact scaled value."""
    if x == 0:
        return x
    e = x.numerator.bit_length() - x.denominator.bit_length() - p
    if abs(x) >= Fraction(2) ** (e + p):
        e += 1
    scale = Fraction(2) ** e  # now 2**(p-1) <= |x| / scale < 2**p
    return round(x / scale) * scale


def assert_rounded(raw, exact: Fraction, p: int):
    m, e = raw
    assert m.bit_length() <= p
    assert _raw_to_fraction(m, e) == round_fraction(exact, p)


precisions = st.integers(2, 113)
signs = st.sampled_from((1, -1))
exponents = st.integers(-300, 300)


@st.composite
def significands(draw, max_bits):
    """A signed integer of at most max_bits bits, full width half the time."""
    bits = draw(st.integers(1, max_bits))
    m = draw(st.integers(0, (1 << bits) - 1))
    if draw(st.booleans()):
        m |= 1 << (bits - 1)
    return draw(signs) * m


class TestFractionBuilders:
    """The gcd-free Fraction constructors against Fraction's own."""

    @given(st.integers(-(1 << 400), 1 << 400), st.integers(1, 1 << 400))
    def test_fraction_of_coprime_terms(self, n, d):
        g = math.gcd(n, d)
        n, d = n // g, d // g
        got, want = _fraction(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator, hash(got)) == (want.numerator, want.denominator, hash(want))
        assert (got + Fraction(1, 3), got * got, got < 1) == (want + Fraction(1, 3), want * want, want < 1)

    @given(significands(500), st.integers(-600, 300), st.sampled_from((1, 3, 5, 7, 15, 10**9 + 7)))
    def test_raw_to_fraction_in_lowest_terms(self, m, e, d):
        if math.gcd(m, d) != 1:
            d = 1
        got, want = _raw_to_fraction(m, e, d), Fraction(m, d) * Fraction(2) ** e
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


class TestRoundingPrimitives:
    """The raw kernels against the oracles above.  The step kernels round at
    most 3p+4 bits, an excess of 2p+4 that fpcore's table covers; widths up
    to 2500 bits reach the path that computes the half-ulp constant."""

    @settings(max_examples=1000)
    @given(st.data(), precisions, exponents)
    def test_round_raw_matches_oracle(self, data, p, e):
        m = data.draw(st.one_of(significands(3 * p + 4), significands(2500)))
        got = _round_raw(m, e, p)
        assert got == round_raw_oracle(m, e, p)
        assert_rounded(got, _raw_to_fraction(m, e), p)

    @settings(max_examples=500)
    @given(precisions, st.one_of(st.integers(1, 2 * 113 + 8), st.integers(1, 2500)), st.data(), signs)
    def test_ties_and_carries(self, p, s, data, sign):
        # q keeps p bits; (2q+1)*2**(s-1) lies exactly halfway between q and
        # q+1 ulps, and q = 2**p - 1 carries out to p+1 bits when it rounds up
        q = data.draw(st.one_of(st.integers(1 << (p - 1), (1 << p) - 1), st.just((1 << p) - 1)))
        m = sign * ((2 * q + 1) << (s - 1))
        want = round_raw_oracle(m, 0, p)
        assert _round_raw(m, 0, p) == want
        assert abs(want[0]) == (q + (q & 1)) >> (q == (1 << p) - 1)
        assert_rounded(want, Fraction(m), p)
        above = sign * (((1 << p) - 1) << s | ((1 << (s - 1)) + (s > 1)))
        assert _round_raw(above, 0, p) == round_raw_oracle(above, 0, p) == (sign << (p - 1), s + 1)

    @pytest.mark.parametrize("s", (1, 2, 229, 230, 231, 232, 2000))
    @pytest.mark.parametrize("p", (2, 24, 113))
    def test_table_edge(self, p, s):
        # excesses on both sides of the table's last entry, 2*113+4 = 230
        for m in ((1 << (p + s)) - 1, ((1 << p) - 1) << s | 1 << (s - 1), (1 << (p + s - 1)) | 1):
            for signed in (m, -m):
                assert _round_raw(signed, 7, p) == round_raw_oracle(signed, 7, p)

    @settings(max_examples=500)
    @given(st.data(), precisions, exponents, exponents)
    def test_add_raw_rounds_exact_sum(self, data, p, ae, be):
        am, bm = data.draw(significands(p)), data.draw(significands(p))
        assert_rounded(_add_raw(am, ae, bm, be, p), _raw_to_fraction(am, ae) + _raw_to_fraction(bm, be), p)

    @settings(max_examples=1000)
    @given(st.data(), precisions, exponents, exponents)
    def test_div_raw_rounds_exact_quotient(self, data, p, ae, be):
        am, bm = data.draw(significands(p)), data.draw(significands(p).filter(bool))
        assert_rounded(_div_raw(am, ae, bm, be, p), _raw_to_fraction(am, ae) / _raw_to_fraction(bm, be), p)

    @settings(max_examples=500)
    @given(st.data(), st.one_of(precisions, st.just(240)), exponents, exponents)
    def test_div_raw_wide_divisor(self, data, p, ae, be):
        # a divisor wider than p, as the wide layer passes (240 bits, any denominator)
        am = data.draw(significands(p))
        bits = data.draw(st.integers(p + 1, 2500))
        bm = data.draw(signs) * (data.draw(st.integers(0, (1 << (bits - 1)) - 1)) | 1 << (bits - 1))
        assert_rounded(_div_raw(am, ae, bm, be, p), _raw_to_fraction(am, ae) / _raw_to_fraction(bm, be), p)

    @settings(max_examples=500)
    @given(st.data(), precisions)
    def test_fraction_to_raw_rounds_once(self, data, p):
        num = data.draw(significands(2500))
        den = data.draw(st.one_of(st.just(1), st.integers(0, 2500).map(lambda k: 1 << k),
                                  st.integers(1, 1 << 2500)))
        x = Fraction(num, den)
        assert_rounded(_fraction_to_raw(x, p), x, p)

    @settings(max_examples=500)
    @given(st.data(), precisions, exponents)
    def test_sqrt_raw_brackets_root(self, data, p, e):
        m = abs(data.draw(significands(p)))
        rm, re = _sqrt_raw(m, e, p)
        if not m:
            assert (rm, re) == (0, 0)
            return
        assert 0 < rm.bit_length() <= p
        shift = p - rm.bit_length()
        rm, re = rm << shift, re - shift
        # the midpoints to the neighbours, in quarter ulps; the one below a
        # power of two is a quarter ulp away
        lo = _raw_to_fraction(4 * rm - (1 if rm == 1 << (p - 1) else 2), re - 2)
        hi = _raw_to_fraction(4 * rm + 2, re - 2)
        assert lo * lo < _raw_to_fraction(m, e) < hi * hi
