import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from roundtrap import _wide
from roundtrap.fpcore import QUAD, SINGLE, PrecisionConfig, round_to
from roundtrap.oscillator import OscillatorParams, State, analytic_solution, invariant_value
from roundtrap.schemes import (
    SamplingPlan,
    Scheme,
    StepLimitError,
    integrate,
    integrate_pair,
    num_steps,
    step,
    update_matrix,
)

PARAMS = OscillatorParams()
S0 = State(1, 0, 0)
WIDE_TOL = Fraction(1, 2**100)


def rel_err(got: Fraction, want: Fraction) -> Fraction:
    return abs(got - want) / abs(want)


def stage_oracle(scheme: Scheme, x: Fraction, y: Fraction, dt: Fraction, params=PARAMS):
    """Independent exact step, stage by stage in plain rationals: forward
    Euler, the implicit midpoint rule in its solved closed form, and the
    Kutta tableau."""
    a, b = params.a, params.b
    def f(u, v):
        return -a * v, b * u
    if scheme is Scheme.FORWARD_EULER:
        k1 = f(x, y)
        return x + dt * k1[0], y + dt * k1[1]
    if scheme is Scheme.MIDPOINT_IMPLICIT:
        k = (a * dt / 2) * (b * dt / 2)
        return (x * (1 - k) - a * dt * y) / (1 + k), (y * (1 - k) + b * dt * x) / (1 + k)
    k1 = f(x, y)
    k2 = f(x + dt * k1[0] / 2, y + dt * k1[1] / 2)
    k3 = f(x - dt * k1[0] + 2 * dt * k2[0], y - dt * k1[1] + 2 * dt * k2[1])
    return (
        x + dt * (k1[0] + 4 * k2[0] + k3[0]) / 6,
        y + dt * (k1[1] + 4 * k2[1] + k3[1]) / 6,
    )


ORACLE_PARAMS = [PARAMS, OscillatorParams(Fraction(3), Fraction(7)),
                 OscillatorParams(Fraction("0.8"), Fraction("0.025"))]
ORACLE_DTS = [Fraction(1, 10), Fraction(3, 7), Fraction(1, 1000)]


class TestSchemeEnum:
    def test_orders(self):
        assert Scheme.FORWARD_EULER.order == 1
        assert Scheme.MIDPOINT_IMPLICIT.order == 2
        assert Scheme.RK3.order == 3

    def test_from_name(self):
        assert Scheme.from_name("euler") is Scheme.FORWARD_EULER
        assert Scheme.from_name("midpoint") is Scheme.MIDPOINT_IMPLICIT
        assert Scheme.from_name("rk3") is Scheme.RK3
        with pytest.raises(ValueError):
            Scheme.from_name("rk4")


class TestSingleSteps:
    def test_euler_exact(self):
        s = step(Scheme.FORWARD_EULER, PARAMS, S0, Fraction(1, 10))
        assert (s.x, s.y) == (1, Fraction(1, 50))
        assert s.t == Fraction(1, 10)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_fixed_point(self, scheme):
        s = step(scheme, PARAMS, State(0, 0, 0), Fraction(1, 7))
        assert (s.x, s.y) == (0, 0)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_dt_positive(self, scheme):
        with pytest.raises(ValueError):
            step(scheme, PARAMS, S0, 0)

    def test_euler_p24_matches_native_single(self):
        # oracle: native single-precision evaluation with identical op order
        a = np.float32(0.1)
        b = np.float32(0.2)
        dt = np.float32(0.1)
        x = np.float32(1.0)
        y = np.float32(0.0)
        for _ in range(5):
            nx = x + dt * ((-a) * y)
            ny = y + dt * (b * x)
            x, y = nx, ny
        got = S0
        for _ in range(5):
            got = step(Scheme.FORWARD_EULER, PARAMS, got, Fraction(1, 10), SINGLE)
        assert float(got.x) == float(x)
        assert float(got.y) == float(y)

    @pytest.mark.parametrize("p", (10, 24, 30))
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rounded_step_rounds_start_state(self, scheme, p):
        cfg, dt = PrecisionConfig(p), Fraction(1, 10)
        x, y = Fraction(1, 3), Fraction(-2, 7)
        rounded = State(round_to(x, cfg).to_fraction(), round_to(y, cfg).to_fraction(), 0)
        assert rounded != State(x, y, 0)
        assert step(scheme, PARAMS, State(x, y, 0), dt, cfg) == step(scheme, PARAMS, rounded, dt, cfg)

    def test_midpoint_exact_closed_form(self):
        # k = 0.00005; frozen rational oracle from the closed form
        s = step(Scheme.MIDPOINT_IMPLICIT, PARAMS, S0, Fraction(1, 10))
        assert s.x == Fraction(19999, 20001)
        assert s.y == Fraction(400, 20001)

    def test_midpoint_exact_step_conserves(self):
        s = step(Scheme.MIDPOINT_IMPLICIT, PARAMS, S0, Fraction(1, 10))
        assert invariant_value(PARAMS, s) == PARAMS.b

    def test_rk3_against_independent_oracle(self):
        s = step(Scheme.RK3, PARAMS, S0, Fraction(1, 10))
        assert (s.x, s.y) == stage_oracle(Scheme.RK3, Fraction(1), Fraction(0), Fraction(1, 10))

    def test_rk3_local_order(self):
        # one-step error vs the analytic flow scales as dt**4
        def one_step_err(dt):
            s = step(Scheme.RK3, PARAMS, S0, dt)
            ref = analytic_solution(PARAMS, dt)
            return _wide.wide_norm2(s.x - ref.x, s.y - ref.y)

        ratio = one_step_err(Fraction(1, 10)) / one_step_err(Fraction(1, 20))
        assert abs(ratio - 16) < 1


class TestUpdateMatrix:
    def test_identity_at_zero_dt(self):
        for scheme in Scheme:
            m = update_matrix(scheme, PARAMS, 0)
            assert m.entries == ((1, 0), (0, 1))

    def test_midpoint_unit_det_exact(self):
        for dt in (Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**7)):
            assert update_matrix(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt).det() == 1

    def test_euler_det(self):
        dt = Fraction(1, 10)
        m = update_matrix(Scheme.FORWARD_EULER, PARAMS, dt)
        assert m.det() == 1 + PARAMS.a * PARAMS.b * dt * dt == Fraction(10002, 10000)

    def test_matrix_matches_midpoint_step_exact(self):
        dt = Fraction(1, 10)
        m = update_matrix(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt)
        s = step(Scheme.MIDPOINT_IMPLICIT, PARAMS, S0, dt)
        want = stage_oracle(Scheme.MIDPOINT_IMPLICIT, Fraction(1), Fraction(0), dt)
        assert m.apply(1, 0) == (s.x, s.y) == want

    def test_matrix_matches_midpoint_step_p113(self):
        dt = Fraction(1, 10)
        m = update_matrix(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt)
        s113 = step(Scheme.MIDPOINT_IMPLICIT, PARAMS, S0, dt, QUAD)
        mx, my = m.apply(1, 0)
        assert rel_err(s113.x, mx) <= WIDE_TOL
        assert rel_err(s113.y, my) <= WIDE_TOL

    def test_rk3_matrix_matches_step_exact(self):
        dt = Fraction(1, 10)
        m = update_matrix(Scheme.RK3, PARAMS, dt)
        s = step(Scheme.RK3, PARAMS, S0, dt)
        assert m.apply(1, 0) == (s.x, s.y) == stage_oracle(Scheme.RK3, Fraction(1), Fraction(0), dt)

    @pytest.mark.parametrize("dt", ORACLE_DTS)
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_matrix_and_exact_step_match_stage_oracle(self, scheme, dt):
        for params in ORACLE_PARAMS:
            m = update_matrix(scheme, params, dt)
            for x, y in ((Fraction(1), Fraction(0)), (Fraction(1, 3), Fraction(-2, 7))):
                want = stage_oracle(scheme, x, y, dt, params)
                assert m.apply(x, y) == want
                s = step(scheme, params, State(x, y, 0), dt)
                assert (s.x, s.y, s.t) == (*want, dt)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_exact_integrate_matches_stage_oracle(self, scheme):
        dt = Fraction(3, 7)
        for params in ORACLE_PARAMS:
            traj = integrate(scheme, params, dt, 5 * dt, None, SamplingPlan.every(1))
            x, y = Fraction(1), Fraction(0)
            for i, s in traj.samples:
                assert (s.x, s.y, s.t) == (x, y, i * dt)
                x, y = stage_oracle(scheme, x, y, dt, params)

    def test_midpoint_oracle_solves_implicit_rule(self):
        # x' = x + dt*f((x + x')/2): the closed form is the implicit rule
        dt, x, y = Fraction(3, 7), Fraction(1, 3), Fraction(-2, 7)
        for params in ORACLE_PARAMS:
            nx, ny = stage_oracle(Scheme.MIDPOINT_IMPLICIT, x, y, dt, params)
            assert nx == x + dt * (-params.a * (y + ny) / 2)
            assert ny == y + dt * (params.b * (x + nx) / 2)


class TestIntegrate:
    def test_single_step_trajectory(self):
        dt = Fraction(1, 10)
        traj = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt, dt)
        assert traj.n_steps == 1
        single = step(Scheme.MIDPOINT_IMPLICIT, PARAMS, S0, dt)
        assert traj.final_state == single
        assert (single.x, single.y) == stage_oracle(Scheme.MIDPOINT_IMPLICIT, Fraction(1), Fraction(0), dt)

    def test_midpoint_exact_conserves_along_trajectory(self):
        traj = integrate(
            Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 10), 5, None, SamplingPlan.every(10)
        )
        for _, s in traj.samples:
            assert invariant_value(PARAMS, s) == PARAMS.b

    def test_euler_exact_invariant_growth(self):
        # each step multiplies the invariant by exactly 1 + a*b*dt**2
        dt = Fraction(1, 10)
        n = 40
        traj = integrate(Scheme.FORWARD_EULER, PARAMS, dt, n * dt)
        growth = (1 + PARAMS.a * PARAMS.b * dt * dt) ** n
        assert invariant_value(PARAMS, traj.final_state) == PARAMS.b * growth

    def test_determinism(self):
        args = (Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 100), 2, SINGLE, SamplingPlan.every(37))
        assert integrate(*args) == integrate(*args)

    @pytest.mark.parametrize("p", [24, 40, 113, None])
    def test_pickle_round_trip(self, p):
        # a trajectory from a worker process arrives pickled: its record
        # (floats at p=24, raw pairs at 40 and 113, Fractions when exact)
        # must read back the same states
        cfg = None if p is None else PrecisionConfig(p)
        traj = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 10), 3, cfg, SamplingPlan.every(4))
        copy = pickle.loads(pickle.dumps(traj))
        assert copy.samples == traj.samples and copy.final_state == traj.final_state
        assert copy.record == traj.record

    def test_pair_matches_separate_runs(self):
        dt = Fraction(1, 100)
        run, ref = integrate_pair(
            Scheme.MIDPOINT_IMPLICIT, PARAMS, dt, 3, SINGLE, QUAD, SamplingPlan.every(50)
        )
        assert run == integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt, 3, SINGLE, SamplingPlan.every(50))
        assert ref == integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt, 3, QUAD, SamplingPlan.every(50))

    def test_sample_times_and_ordering(self):
        dt = Fraction(1, 16)
        traj = integrate(Scheme.RK3, PARAMS, dt, 1, SINGLE, SamplingPlan.every(3))
        indices = [i for i, _ in traj.samples]
        assert indices == sorted(set(indices))
        assert indices[-1] == traj.n_steps
        for i, s in traj.samples:
            assert s.t == i * dt

    def test_step_limit_guard(self):
        with pytest.raises(StepLimitError):
            integrate(Scheme.FORWARD_EULER, PARAMS, Fraction(1, 10**9), 100, SINGLE)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            integrate(Scheme.FORWARD_EULER, PARAMS, 10, 1, SINGLE)

    def test_num_steps_rounds_to_nearest(self):
        assert num_steps(1, Fraction(3, 10)) == 3
        assert num_steps(1, Fraction(1, 100)) == 100

    def test_machine_dt(self):
        traj = integrate(Scheme.FORWARD_EULER, PARAMS, Fraction(1, 10), 1, SINGLE)
        assert traj.machine_dt == Fraction(13421773, 1 << 27)
        exact = integrate(Scheme.FORWARD_EULER, PARAMS, Fraction(1, 10), 1, None)
        assert exact.machine_dt == Fraction(1, 10)


class TestSamplingPlan:
    def test_stride_includes_endpoints(self):
        assert SamplingPlan.every(3).resolve(10) == (0, 3, 6, 9, 10)

    def test_final_only(self):
        assert SamplingPlan.final_only().resolve(7) == (7,)

    def test_at_steps_clamped(self):
        assert SamplingPlan.at([2, 5, 99]).resolve(10) == (2, 5, 10)

    def test_resolve_matches_set_construction(self):
        # the plan as first resolved: a set of the indices plus n, sorted
        def by_set(plan, n):
            if plan.stride is not None:
                idx = set(range(0, n + 1, plan.stride))
            else:
                idx = {s for s in plan.at_steps if 0 <= s <= n}
            return tuple(sorted(idx | {n}))

        for n in range(301):
            for stride in range(1, n + 3):
                plan = SamplingPlan.every(stride)
                assert plan.resolve(n) == by_set(plan, n)
        for steps in ((), (0,), (3,), (5, 0, 5, 2), (-4, 7, 300, 299), tuple(range(0, 400, 7))):
            plan = SamplingPlan.at(steps)
            for n in (0, 1, 3, 5, 7, 298, 299, 300, 301):
                assert plan.resolve(n) == by_set(plan, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan()
        with pytest.raises(ValueError):
            SamplingPlan(stride=2, at_steps=(1,))
        with pytest.raises(ValueError):
            SamplingPlan(stride=0)


class TestOrderOfAccuracy:
    # exact-arithmetic version; the p=113 version at T=10 runs in acceptance
    @pytest.mark.parametrize(
        "scheme,expected",
        [(Scheme.FORWARD_EULER, 2), (Scheme.MIDPOINT_IMPLICIT, 4), (Scheme.RK3, 8)],
    )
    def test_global_error_ratio(self, scheme, expected):
        t_end = 2

        def global_err(dt):
            traj = integrate(scheme, PARAMS, dt, t_end)
            ref = analytic_solution(PARAMS, t_end)
            s = traj.final_state
            return _wide.wide_norm2(s.x - ref.x, s.y - ref.y)

        ratio = global_err(Fraction(1, 100)) / global_err(Fraction(1, 200))
        assert abs(ratio - expected) <= Fraction(expected) / 10
