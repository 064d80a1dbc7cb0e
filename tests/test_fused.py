"""The inlined midpoint kernel against _midpoint_step, which fixes its
operation order: k fused steps must return the same raw quadruple as k
calls of the step kernel.  The fused kernel inlines its rounding and
divides at a shift that depends on p, so the check runs at every kind of
p; _midpoint_step rounds with fpcore's raw kernels, which
tests/test_fpcore.py checks against an independent oracle.

The fused Euler and RK3 kernels have no p-dependent code of their own:
they call fpcore's _round_raw and _add_raw, and tests/test_native.py and
the emulated golden sweeps check their operation order.

The compiled binary128 kernel steps the midpoint rule at p = 113 too, and
is compared with _midpoint_step by value: its significands carry 113 bits,
trailing zeros included."""

from fractions import Fraction

import pytest

from roundtrap import schemes
from roundtrap.fpcore import _fraction_to_raw, _raw_to_fraction
from roundtrap.oscillator import OscillatorParams
from roundtrap.schemes import Scheme, _CONST_EXP, _STATE_EXP, _consts, _raw_in_window
from test_native import IN_WINDOW_STARTS, OUT_OF_WINDOW_STARTS, PAIRS

KERNELS = {Scheme.MIDPOINT_IMPLICIT: (schemes._midpoint_step, schemes._midpoint_fused)}
STARTS = tuple(dict.fromkeys(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)),
                              *IN_WINDOW_STARTS, *OUT_OF_WINDOW_STARTS)))
DTS = (Fraction(1), Fraction("0.03"), Fraction("1e-4"))
KS = (0, 1, 2, 500)


@pytest.mark.parametrize("p", (2, 10, 24, 26, 53, 54, 64, 112, 113))
@pytest.mark.parametrize("scheme", list(KERNELS))
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


def in_state_window(st):
    return all(not m or 2**-_STATE_EXP <= abs(_raw_to_fraction(m, e)) <= 2**_STATE_EXP
               for m, e in (st[:2], st[2:]))


def test_compiled_b128_equals_op_by_op(compiled):
    # the kernel stops before the first step whose result leaves the state
    # window; the start itself may lie outside
    p, scheme = 113, Scheme.MIDPOINT_IMPLICIT
    checked = 0
    for a, b in PAIRS:
        params = OscillatorParams(Fraction(a), Fraction(b))
        for dt in DTS:
            c = _consts(scheme, params, dt, p)
            assert _raw_in_window(c, _CONST_EXP)
            for x, y in STARTS:
                st = (*_fraction_to_raw(x, p), *_fraction_to_raw(y, p))
                oracle = [st]
                while len(oracle) <= KS[-1]:
                    nxt = schemes._midpoint_step(oracle[-1], c, p)
                    if not in_state_window(nxt):
                        break
                    oracle.append(nxt)
                for k in KS:
                    done, gx, gy = compiled.midpoint_b128(st, c)(k)
                    assert done == min(k, len(oracle) - 1), (a, b, dt, x, y, k)
                    mx, ex, my, ey = oracle[done]
                    assert (gx, gy) == (_raw_to_fraction(mx, ex), _raw_to_fraction(my, ey))
                    checked += done
    assert checked > 10000


def test_exact_fused_applies_update_matrix():
    m = schemes.update_matrix(Scheme.RK3, OscillatorParams(), Fraction("0.03"))
    st = (Fraction(1), Fraction(0))
    for k in (0, 1, 2, 7):
        want = st
        for _ in range(k):
            want = m.apply(*want)
        assert schemes._exact_fused(st, m, None, k) == want
