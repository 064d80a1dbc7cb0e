"""The fused emulator kernels against the op-by-op kernels, which stay the
oracle: k fused steps must return the same raw quadruple as k calls of the
step kernel, and the fused kernels' two rounding primitives must agree with
the raw kernels of fpcore."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundtrap import schemes
from roundtrap.fpcore import _add_raw, _div_raw, _fraction_to_raw, _round_raw
from roundtrap.oscillator import OscillatorParams
from roundtrap.schemes import Scheme, _add, _consts, _div, _rn
from test_native import IN_WINDOW_STARTS, OUT_OF_WINDOW_STARTS, PAIRS

KERNELS = {
    Scheme.FORWARD_EULER: (schemes._euler_step, schemes._euler_fused),
    Scheme.MIDPOINT_IMPLICIT: (schemes._midpoint_step, schemes._midpoint_fused),
    Scheme.RK3: (schemes._rk3_step, schemes._rk3_fused),
}
STARTS = tuple(dict.fromkeys(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)),
                              *IN_WINDOW_STARTS, *OUT_OF_WINDOW_STARTS)))
DTS = (Fraction(1), Fraction("0.03"), Fraction("1e-4"))
KS = (0, 1, 2, 500)


@pytest.mark.parametrize("p", (2, 10, 24, 26, 53, 54, 64, 112, 113))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_fused_equals_op_by_op(scheme, p):
    step, fused = KERNELS[scheme]
    for a, b in PAIRS:
        params = OscillatorParams(Fraction(a), Fraction(b))
        for dt in DTS:
            c = _consts(scheme, params, dt, p)
            for x, y in STARTS:
                st0 = st = (*_fraction_to_raw(x, p), *_fraction_to_raw(y, p))
                oracle = {0: st}
                for i in range(1, KS[-1] + 1):
                    st = step(st, c, p)
                    oracle[i] = st
                for k in KS:
                    assert fused(st0, c, p, k) == oracle[k], (a, b, dt, x, y, k)


def test_exact_fused_applies_update_matrix():
    m = schemes.update_matrix(Scheme.RK3, OscillatorParams(), Fraction("0.03"))
    st = (Fraction(1), Fraction(0))
    for k in (0, 1, 2, 7):
        want = st
        for _ in range(k):
            want = m.apply(*want)
        assert schemes._exact_fused(st, m, None, k) == want


precisions = st.integers(2, 113)
signs = st.sampled_from((1, -1))


@st.composite
def significands(draw, max_bits):
    """A signed integer of at most max_bits bits, full width half the time."""
    bits = draw(st.integers(1, max_bits))
    m = draw(st.integers(0, (1 << bits) - 1))
    if draw(st.booleans()):
        m |= 1 << (bits - 1)
    return draw(signs) * m


class TestRoundingPrimitives:
    @settings(max_examples=500)
    @given(st.data(), precisions, st.integers(-300, 300))
    def test_rn_matches_round_raw(self, data, p, e):
        # the kernels round at most 3p+4 bits, an excess of 2p+4 (see _HALF)
        m = data.draw(significands(3 * p + 4))
        assert _rn(m, e, p) == _round_raw(m, e, p)

    @settings(max_examples=500)
    @given(precisions, st.integers(1, 230), st.data(), signs)
    def test_rn_ties_and_carries(self, p, s, data, sign):
        # q keeps p bits; (2q+1)*2**(s-1) lies exactly halfway between q and
        # q+1 ulps, and q = 2**p - 1 carries out to p+1 bits when it rounds up
        q = data.draw(st.one_of(st.integers(1 << (p - 1), (1 << p) - 1), st.just((1 << p) - 1)))
        m = sign * ((2 * q + 1) << (s - 1))
        want = _round_raw(m, 0, p)
        assert _rn(m, 0, p) == want
        assert abs(want[0]) == (q + (q & 1)) >> (q == (1 << p) - 1)
        above = sign * (((1 << p) - 1) << s | ((1 << (s - 1)) + (s > 1)))
        assert _rn(above, 0, p) == _round_raw(above, 0, p) == (sign << (p - 1), s + 1)

    @settings(max_examples=500)
    @given(st.data(), precisions, st.integers(-300, 300), st.integers(-300, 300))
    def test_add_matches_add_raw(self, data, p, ae, be):
        am, bm = data.draw(significands(p)), data.draw(significands(p))
        assert _add(am, ae, bm, be, p) == _add_raw(am, ae, bm, be, p)

    @settings(max_examples=1000)
    @given(st.data(), precisions, st.integers(-300, 300), st.integers(-300, 300))
    def test_div_matches_div_raw(self, data, p, ae, be):
        am, bm = data.draw(significands(p)), data.draw(significands(p).filter(bool))
        assert _div(am, ae, bm, be, p) == _div_raw(am, ae, bm, be, p)
