"""The fused midpoint kernel against _midpoint_step, which fixes its
operation order: k fused steps must return the same raw quadruple as k
calls of the step kernel.  Both round with fpcore's raw kernels, which
tests/test_fpcore.py checks against an independent oracle.

The fused Euler and RK3 kernels have no p-dependent code of their own:
they call fpcore's _round_raw and _add_raw, and tests/test_native.py and
the emulated golden sweeps check their operation order.

The compiled integer kernel steps the midpoint rule at any p up to 113 on
integer significands, and is compared with _midpoint_step by value, on a
fixed matrix at p = 113, on drawn precisions, parameters, start states and
plans, at the edges of the state window, and at p = 2, 3 and 112."""

from array import array
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roundtrap import schemes
from roundtrap.fpcore import _fraction_to_raw, _raw_to_fraction
from roundtrap.oscillator import OscillatorParams
from roundtrap.schemes import Scheme, _CONST_EXP, _STATE_EXP, _consts, _raw_in_window, _raw_values
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


def test_compiled_b128_equals_op_by_op(compiled):  # the integer kernel at p = 113
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
                # the plan KS in one call: the samples up to the last
                # in-range step, and the state there
                out = []
                done, steps, last = compiled.midpoint_int(p, st, c, array("q", KS), out)
                assert steps == min(KS[-1], len(oracle) - 1), (a, b, dt, x, y)
                assert done == sum(k <= steps for k in KS), (a, b, dt, x, y)
                want = [v for k in KS[:done] for v in oracle[k]]
                assert _raw_values(out) == _raw_values(want) and _raw_values(last) == _raw_values(oracle[steps])
                # odd significands of at most p bits, or zero as (0, 0)
                for m, e in zip((*out, *last)[::2], (*out, *last)[1::2]):
                    assert m % 2 and abs(m).bit_length() <= p or (m, e) == (0, 0)
                checked += steps
    assert checked > 10000


def assert_int_follows_op_by_op(compiled, p, start, c, plan):
    """The kernel at p bits from the raw start state with the raw constants
    c through the plan in one call: the samples, the steps done and the step
    where the guard trips are _midpoint_step's."""
    states = [start]
    while len(states) <= plan[-1]:
        nxt = schemes._midpoint_step(states[-1], c, p)
        if not in_state_window(nxt):
            break
        states.append(nxt)
    steps = len(states) - 1  # the plan's end, or the step before the guard trips
    out = []
    done, got_steps, last = compiled.midpoint_int(p, start, c, array("q", plan), out)
    assert (done, got_steps) == (sum(k <= steps for k in plan), steps)
    assert _raw_values(out) == _raw_values([v for k in plan[:done] for v in states[k]])
    assert _raw_values(last) == _raw_values(states[steps])


def full_width(neg, m, top, p):
    """The raw pair of the p-bit significand 2**(p-1) + (m >> (113 - p)),
    m < 2**112, whose value lies in [2**top, 2**(top + 1))."""
    return (-1 if neg else 1) * ((1 << (p - 1)) | m >> (113 - p)), top - (p - 1)


positive = st.fractions(min_value=Fraction(1, 10**4), max_value=100, max_denominator=10**6)
# a state component: None for zero, or full_width's arguments other than p
components = st.one_of(st.none(), st.tuples(st.booleans(), st.integers(0, 2**112 - 1), st.integers(-402, 402)))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=st.integers(2, 113), a=positive, b=positive,
       dt=st.fractions(min_value=Fraction(1, 10**6), max_value=4, max_denominator=10**7),
       x=components, y=components, kind=st.sampled_from(("drawn", "x cancels", "y cancels")),
       plan=st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True).map(sorted))
def test_compiled_int_drawn(compiled, p, a, b, dt, x, y, kind, plan):
    c = _consts(Scheme.MIDPOINT_IMPLICIT, OscillatorParams(a, b), dt, p)
    x, y = ((0, 0) if v is None else full_width(*v, p) for v in (x, y))
    om, ad, bd = c[0:2], c[4:6], c[6:8]
    if kind == "x cancels":  # x (x) (1-k) - a*dt (x) y is exactly 0
        x, y = ad, om
    elif kind == "y cancels":  # y (x) (1-k) + b*dt (x) x is exactly 0
        x, y = (-om[0], om[1]), bd
    assert_int_follows_op_by_op(compiled, p, (*x, *y), c, plan)


# raw constants (1-k, 1+k, a*dt, b*dt) that double, halve or keep the state
DOUBLE, HALVE, KEEP = (2, 0, 1, 0, 0, 0, 0, 0), (1, 0, 2, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0, 0, 0)
EDGES = {
    "reaches 2**400": (DOUBLE, (1, 399, 0, 0), 1),
    "steps past 2**400": (DOUBLE, ((1 << 112) + 1, 287, 0, 0), 0),
    "reaches -2**400": (DOUBLE, (0, 0, -1, 399), 1),
    "reaches 2**-400": (HALVE, (1, -399, 0, 0), 1),
    "steps below 2**-400": (HALVE, ((1 << 113) - 1, -512, 0, 0), 0),
    "zero state": (KEEP, (0, 0, 0, 0), 50),
    "zero component": (KEEP, (0, 0, 3, -7), 50),
    # 1-k = 3, a*dt = 1: from (1, 3), x (x) 3 - 1 (x) y is exactly 0
    "sum cancels": ((3, 0, 1, 0, 1, 0, 0, 0), (1, 0, 3, 0), 50),
    # a first step whose quotient the reciprocal estimates one short (found by search)
    "quotient estimate one short": (_consts(Scheme.MIDPOINT_IMPLICIT, OscillatorParams(), Fraction("0.03"), 113),
                                    (8161526254493609862969598938728170, -112,
                                     6728992923982397297632216954248132, -112), 50),
}


@pytest.mark.parametrize("case", EDGES)
def test_compiled_b128_edge_cases(compiled, case):  # the integer kernel at p = 113
    c, start, steps = EDGES[case]
    assert compiled.midpoint_int(113, start, c, array("q", (0, 1, 50)), [])[1] == steps
    assert_int_follows_op_by_op(compiled, 113, start, c, (0, 1, 50))


def midpoint_consts(p, a, b, dt):
    return _consts(Scheme.MIDPOINT_IMPLICIT, OscillatorParams(Fraction(a), Fraction(b)), Fraction(dt), p)


# case -> (p, raw constants, start, steps done through the plan (0, 1, 50, 7000))
LOW_AND_HIGH_P = {
    # ties: in the first 50 steps, 28 and 99 operations round an exact
    # half-way value, about as often down as up
    "p=2 ties": (2, midpoint_consts(2, 1, 1, "0.5"), (1, 0, 0, 0), 2802),  # then the guard trips
    "p=3 ties": (3, midpoint_consts(3, 1, 1, 1), (1, 0, 0, 0), 7000),
    # the orbit spirals out and leaves the window at step 6395 and 4103
    "p=2 guard trip": (2, midpoint_consts(2, 3, 7, "0.1"), (1, 0, 0, 0), 6394),
    "p=3 guard trip": (3, midpoint_consts(3, 3, 7, "0.1"), (1, 0, 0, 0), 4102),
    "p=112": (112, midpoint_consts(112, "0.1", "0.2", "0.03"), (1, 0, 0, 0), 7000),
    "p=112 steps past 2**400": (112, DOUBLE, ((1 << 111) + 1, 288, 0, 0), 0),
}


@pytest.mark.parametrize("case", LOW_AND_HIGH_P)
def test_compiled_int_edge_cases(compiled, case):
    p, c, start, steps = LOW_AND_HIGH_P[case]
    plan = (0, 1, 50, 7000)
    assert compiled.midpoint_int(p, start, c, array("q", plan), [])[1] == steps
    assert_int_follows_op_by_op(compiled, p, start, c, plan)


def test_exact_fused_applies_update_matrix():
    m = schemes.update_matrix(Scheme.RK3, OscillatorParams(), Fraction("0.03"))
    st = (Fraction(1), Fraction(0))
    for k in (0, 1, 2, 7):
        want = st
        for _ in range(k):
            want = m.apply(*want)
        assert schemes._exact_fused(st, m, None, k) == want
