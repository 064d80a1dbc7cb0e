import functools
import math
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roundtrap import _wide
from roundtrap.analysis import (
    BoundMode,
    ErrorBoundModel,
    consistency_residual,
    conservation_drift,
    effective_computation_time,
    error_separation,
    optimal_step_size,
    predict_error_bound,
    residual_summary,
    spectral_analysis,
)
from roundtrap import analysis, schemes
from roundtrap.experiments import SweepRecord, longtime_run
from roundtrap.fpcore import DOUBLE, QUAD, SINGLE, ParameterError, PrecisionConfig, _raw_to_fraction
from roundtrap.oscillator import OscillatorParams, State, analytic_solution
from roundtrap.schemes import SamplingPlan, Scheme, Trajectory, UpdateMatrix, integrate, update_matrix
from conftest import decimal_sqrt, rel_diff
from test_native import emulated, python_kernels

PARAMS = OscillatorParams()

frac = st.fractions(max_denominator=10**6)


def mkstate(x, y, t=0):
    return State(x, y, t)


class TestErrorSeparation:
    def test_all_equal(self):
        s = mkstate(Fraction(1, 3), Fraction(2, 7), 1)
        triple = error_separation(s, s, s)
        for vec in (triple.total, triple.truncation, triple.roundoff):
            assert (vec.x, vec.y, vec.norm) == (0, 0, 0)

    def test_actual_equals_reference(self):
        actual = mkstate(Fraction(11, 10), 0, 1)
        analytic = mkstate(1, 0, 1)
        triple = error_separation(actual, actual, analytic)
        assert triple.roundoff.norm == 0
        assert triple.total == triple.truncation

    def test_worked_example(self):
        # X_r=1.2, X_t=1.1, X=1.0 with zero y components
        triple = error_separation(mkstate("1.2", 0, 2), mkstate("1.1", 0, 2), mkstate(1, 0, 2))
        assert triple.total.x == Fraction(1, 5)
        assert triple.truncation.x == Fraction(1, 10)
        assert triple.roundoff.x == Fraction(1, 10)
        assert triple.total.norm == Fraction(1, 5)
        assert triple.truncation.norm == Fraction(1, 10)
        assert triple.roundoff.norm == Fraction(1, 10)

    def test_time_mismatch_rejected(self):
        with pytest.raises(ValueError):
            error_separation(mkstate(1, 0, 1), mkstate(1, 0, 2), mkstate(1, 0, 1))

    @given(xr=frac, yr=frac, xt=frac, yt=frac, xa=frac, ya=frac)
    @settings(max_examples=200)
    def test_componentwise_additivity_exact(self, xr, yr, xt, yt, xa, ya):
        triple = error_separation(mkstate(xr, yr), mkstate(xt, yt), mkstate(xa, ya))
        assert triple.total.x == triple.roundoff.x + triple.truncation.x
        assert triple.total.y == triple.roundoff.y + triple.truncation.y

    @given(x=frac, y=frac)
    def test_norm_zero_iff_components_zero(self, x, y):
        triple = error_separation(mkstate(x, y), mkstate(0, 0), mkstate(0, 0))
        assert (triple.total.norm == 0) == (x == 0 and y == 0)

    def test_norm_against_decimal_oracle(self, rng):
        for _ in range(50):
            x = Fraction(rng.getrandbits(40), rng.getrandbits(40) + 1)
            y = Fraction(rng.getrandbits(40), rng.getrandbits(40) + 1)
            triple = error_separation(mkstate(x, y), mkstate(0, 0), mkstate(0, 0))
            want = decimal_sqrt(x * x + y * y)
            assert rel_diff(triple.total.norm, want) < Fraction(1, 10**40)


class TestConsistencyResidual:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_exact_trajectory_residual_is_zero(self, scheme):
        traj = integrate(scheme, PARAMS, Fraction(1, 10), 2, None, SamplingPlan.every(1))
        for _, r in consistency_residual(traj, PARAMS):
            assert r == 0

    def test_rounded_euler_residual_bounded(self):
        # one rounded step injects at most a few ulps: residual <= C*u/dt
        dt = Fraction(1, 100)
        traj = integrate(Scheme.FORWARD_EULER, PARAMS, dt, 1, SINGLE, SamplingPlan.every(1))
        res = consistency_residual(traj, PARAMS)
        bound = 8 * SINGLE.unit_roundoff / traj.machine_dt
        assert all(r <= bound for _, r in res)
        assert any(r > 0 for _, r in res)

    def test_residual_grows_as_dt_shrinks(self):
        def median_residual(dt, t_end):
            traj = integrate(Scheme.FORWARD_EULER, PARAMS, dt, t_end, SINGLE, SamplingPlan.every(1))
            norms = sorted(r for _, r in consistency_residual(traj, PARAMS))
            return norms[len(norms) // 2]

        coarse = median_residual(Fraction(1, 100), 1)
        fine = median_residual(Fraction(1, 10000), Fraction(1, 100))
        assert fine > 10 * coarse

    def test_residual_shrinks_with_precision(self):
        def median_residual(cfg):
            traj = integrate(Scheme.FORWARD_EULER, PARAMS, Fraction(1, 100), 1, cfg, SamplingPlan.every(1))
            norms = sorted(r for _, r in consistency_residual(traj, PARAMS))
            return norms[len(norms) // 2]

        assert median_residual(PrecisionConfig(53)) < median_residual(SINGLE) / 1000

    def test_requires_consecutive_samples(self):
        traj = integrate(Scheme.FORWARD_EULER, PARAMS, Fraction(1, 10), 1, SINGLE, SamplingPlan.every(2))
        with pytest.raises(ValueError):
            consistency_residual(traj, PARAMS)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rounded_trajectory_nonzero_residual(self, scheme):
        traj = integrate(scheme, PARAMS, Fraction(1, 10), 1, SINGLE, SamplingPlan.every(1))
        assert max(r for _, r in consistency_residual(traj, PARAMS)) > 0


def stencil_defect(scheme, params, u0, u1, delta):
    """The residual's former definition, kept as its oracle: (u1 - u0)/delta
    minus the scheme's increment function, typed out stage by stage in
    Fraction arithmetic."""
    dx = (u1.x - u0.x) / delta
    dy = (u1.y - u0.y) / delta
    a, b = params.a, params.b
    if scheme is Scheme.FORWARD_EULER:
        fx, fy = -a * u0.y, b * u0.x
    elif scheme is Scheme.MIDPOINT_IMPLICIT:
        fx, fy = -a * (u0.y + u1.y) / 2, b * (u0.x + u1.x) / 2
    else:
        k1x, k1y = -a * u0.y, b * u0.x
        x2, y2 = u0.x + delta / 2 * k1x, u0.y + delta / 2 * k1y
        k2x, k2y = -a * y2, b * x2
        x3, y3 = u0.x - delta * k1x + 2 * delta * k2x, u0.y - delta * k1y + 2 * delta * k2y
        k3x, k3y = -a * y3, b * x3
        fx = (k1x + 4 * k2x + k3x) / 6
        fy = (k1y + 4 * k2y + k3y) / 6
    return dx - fx, dy - fy


def oracle_residual(trajectory, params):
    delta = trajectory.machine_dt
    samples = trajectory.samples
    return [
        (i, _wide.wide_norm2(*stencil_defect(trajectory.scheme, params, u0, u1, delta)))
        for (i, u0), (j, u1) in zip(samples, samples[1:])
        if j == i + 1
    ]


# the benchmark's six seed pairs (a*b = 1/50) plus a pair far from them
PARAM_PAIRS = [("0.1", "0.2"), ("0.2", "0.1"), ("0.05", "0.4"), ("0.4", "0.05"),
               ("0.025", "0.8"), ("0.8", "0.025"), ("3", "7")]


class TestResidualMatchesStencilOracle:
    @pytest.mark.parametrize("p", [2, 10, 24, 53, 113])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rounded_runs(self, scheme, p):
        for a, b in PARAM_PAIRS:
            params = OscillatorParams(Fraction(a), Fraction(b))
            traj = integrate(scheme, params, Fraction(1, 100), Fraction(2, 5), PrecisionConfig(p),
                             SamplingPlan.every(1))
            got = consistency_residual(traj, params)
            assert len(got) == 40
            assert got == oracle_residual(traj, params)

    @pytest.mark.parametrize("dt", [Fraction(1, 10), Fraction(3, 7)])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_exact_runs_against_every_pencil(self, scheme, dt):
        # an exact run measured against another scheme's pencil has a
        # nonzero residual with non-dyadic denominators
        for a, b in (("0.1", "0.2"), ("3", "7")):
            params = OscillatorParams(Fraction(a), Fraction(b))
            traj = integrate(scheme, params, dt, 6 * dt, None, SamplingPlan.every(1))
            for other in Scheme:
                measured = Trajectory(traj.params, other, traj.dt, traj.precision, traj.n_steps, traj.record)
                got = consistency_residual(measured, params)
                assert got == oracle_residual(measured, params)
                assert any(r != 0 for _, r in got) == (other is not scheme)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_gapped_sampling_skips_non_consecutive_pairs(self, scheme):
        params = OscillatorParams(Fraction(3), Fraction(7))
        plan = SamplingPlan.at([0, 1, 2, 5, 6, 9, 12, 13])
        traj = integrate(scheme, params, Fraction(1, 100), Fraction(1, 5), SINGLE, plan)
        got = consistency_residual(traj, params)
        assert [i for i, _ in got] == [0, 1, 5, 12]
        assert got == oracle_residual(traj, params)


def sorted_summary(norms):
    """(count, median, max) by sorting every norm: the oracle of
    residual_summary."""
    norms = sorted(norms)
    return len(norms), norms[len(norms) // 2], norms[-1]


class SyntheticRun:
    """A stand-in trajectory whose step pair at index i has the residual
    forms[i] = (rx, ry, d); only its sampled steps are real."""

    precision = None  # the forms are exact: no compiled keys

    def __init__(self, forms, indices=None):
        self.forms = forms
        self.steps = tuple(range(len(forms) + 1) if indices is None else indices)

    def summary(self, monkeypatch):
        def forms(trajectory, params, ordinals):
            steps = trajectory.steps
            for o, o1 in zip(ordinals, ordinals[1:]):
                if o1 == o + 1 and steps[o1] == steps[o] + 1:
                    yield (steps[o], *trajectory.forms[steps[o]])

        monkeypatch.setattr(analysis, "_residual_forms", forms)
        return residual_summary(self, PARAMS)

    def oracle(self):
        consecutive = [i for i, j in zip(self.steps, self.steps[1:]) if j == i + 1]
        return sorted_summary(_wide.wide_norm2(*self.forms[i]) for i in consecutive)


def float_key(rx, ry, d):
    try:
        return (rx * rx + ry * ry) / (d * d)
    except OverflowError:
        return math.inf


def near_ties(rx, ry, d, spread):
    """Forms of distinct residuals around (rx, ry)/d, 2**-spread apart
    relatively: too close for their float keys to order them."""
    return [(((rx << spread) + k * rx), (ry << spread) + k * ry, d << spread) for k in range(-6, 7)]


class TestResidualSummary:
    @pytest.mark.parametrize("p", [2, 4, 10, 24, 53, 113])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_equals_sorting_every_norm(self, scheme, p):
        for a, b in PARAM_PAIRS:
            params = OscillatorParams(Fraction(a), Fraction(b))
            traj = integrate(scheme, params, Fraction(1, 100), 1, PrecisionConfig(p), SamplingPlan.every(1))
            expected = sorted_summary(r for _, r in consistency_residual(traj, params))
            assert residual_summary(traj, params) == expected

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_exact_run_against_another_pencil(self, scheme):
        # non-dyadic denominators: the wide value takes two roundings
        params = OscillatorParams(Fraction(3), Fraction(7))
        traj = integrate(scheme, params, Fraction(3, 7), Fraction(18, 7), None, SamplingPlan.every(1))
        for other in Scheme:
            measured = Trajectory(traj.params, other, traj.dt, traj.precision, traj.n_steps, traj.record)
            expected = sorted_summary(r for _, r in consistency_residual(measured, params))
            assert residual_summary(measured, params) == expected

    def test_gapped_sampling(self):
        params = OscillatorParams(Fraction(3), Fraction(7))
        plan = SamplingPlan.at([0, 1, 2, 5, 6, 9, 12, 13])
        traj = integrate(Scheme.RK3, params, Fraction(1, 100), Fraction(1, 5), SINGLE, plan)
        expected = sorted_summary(r for _, r in consistency_residual(traj, params))
        assert residual_summary(traj, params) == expected
        assert expected[0] == 4

    def test_no_consecutive_pairs(self):
        traj = integrate(Scheme.FORWARD_EULER, PARAMS, Fraction(1, 10), 1, SINGLE, SamplingPlan.every(2))
        with pytest.raises(ParameterError) as summary_error:
            residual_summary(traj, PARAMS)
        with pytest.raises(ParameterError) as residual_error:
            consistency_residual(traj, PARAMS)
        assert str(summary_error.value) == str(residual_error.value)

    def test_wide_norms_only_for_the_bands(self, monkeypatch):
        # distinct residuals: each rank's band is its own pair, so two
        # wide_norm2 calls, looked up by module name at call time
        params = OscillatorParams(Fraction(1, 10), Fraction(1, 5))
        traj = integrate(Scheme.RK3, params, Fraction(1, 10000), Fraction(1, 5), SINGLE, SamplingPlan.every(1))
        expected = sorted_summary(r for _, r in consistency_residual(traj, params))
        calls = []
        wide_norm2 = _wide.wide_norm2
        monkeypatch.setattr(_wide, "wide_norm2", lambda *args: calls.append(args) or wide_norm2(*args))
        assert residual_summary(traj, params) == expected
        assert len(calls) == 2


def eager_samples(scheme, params, dt, n, cfg):
    """The (i, State) of every step 0..n from (1, 0), each State built as
    its step is taken: exact steps with the update matrix for cfg=None,
    else one emulator step at a time."""
    x, y = Fraction(1), Fraction(0)
    out = [(0, State(x, y, 0))]
    if cfg is None:
        m = update_matrix(scheme, params, dt)
        for i in range(1, n + 1):
            x, y = m.apply(x, y)
            out.append((i, State(x, y, i * dt)))
        return tuple(out)
    p = cfg.significand_bits
    c, st = schemes._consts(scheme, params, dt, p), (1, 0, 0, 0)
    for i in range(1, n + 1):
        st = schemes._FUSED_FN[scheme](st, c, p, 1)
        out.append((i, State(_raw_to_fraction(st[0], st[1]), _raw_to_fraction(st[2], st[3]), i * dt)))
    return tuple(out)


# (scheme, params, dt, steps, p, the kernels in charge, the record's form)
RECORDS = {
    "exact": (Scheme.RK3, PARAMS, Fraction(1, 10), 60, None, None, "exact"),
    "binary64 python": (Scheme.RK3, PARAMS, Fraction(1, 100), 300, 24, "python", "float"),
    "binary64 compiled": (Scheme.RK3, PARAMS, Fraction(1, 100), 300, 24, "compiled", "float"),
    "emulated": (Scheme.RK3, PARAMS, Fraction(1, 100), 300, 30, None, "raw"),
    "binary128": (Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 100), 300, 113, "compiled", "raw"),
    # the state passes 2**400 at step 241: the emulator takes over inside
    # the stride-1 stretch, on the record converted to raw pairs
    "hand-off python": (Scheme.FORWARD_EULER, OscillatorParams(1, 1), Fraction(3), 300, 24, "python", "raw"),
    "hand-off compiled": (Scheme.FORWARD_EULER, OscillatorParams(1, 1), Fraction(3), 300, 24, "compiled", "raw"),
}


@pytest.mark.parametrize("backend", RECORDS)
def test_record_reads_as_eager_states(backend, request):
    scheme, params, dt, n, p, kernels, form = RECORDS[backend]
    if kernels == "compiled":
        request.getfixturevalue("compiled")  # skips where the kernels do not load
    cfg = None if p is None else PrecisionConfig(p)
    args = (scheme, params, dt, n * dt, cfg, SamplingPlan.every(1))
    run = functools.partial(python_kernels, integrate) if kernels == "python" else integrate
    traj = run(*args)
    assert traj.record.form == form
    eager = eager_samples(scheme, params, dt, n, cfg)
    assert traj.samples == eager
    assert traj.final_state == eager[-1][1]
    # the integer form over each state's denominator, for every and for some samples
    for ordinals in (range(n + 1), [0, 1, n // 2, n - 1, n]):
        as_ints = [(Fraction(nx, q), Fraction(ny, q)) for nx, ny, q in traj.record.integers(ordinals)]
        assert as_ints == [(eager[o][1].x, eager[o][1].y) for o in ordinals]
    assert traj == run(*args)
    assert traj == emulated(integrate, *args)  # equal values in another form
    like = Trajectory(traj.params, traj.scheme, traj.dt, traj.precision, traj.n_steps, traj.record)
    assert like == traj and like.samples == eager
    # the stencil reads the record; its oracle reads the eager States
    eager_run = type("EagerRun", (), {"scheme": scheme, "machine_dt": traj.machine_dt, "samples": eager})
    expected = oracle_residual(eager_run, params)
    assert consistency_residual(traj, params) == expected
    assert residual_summary(traj, params) == sorted_summary(r for _, r in expected)


# float parts at the edges of the binary64 range: zeros, subnormals, and
# values hundreds of binades apart in one part
FLOAT_PARTS = {
    "unit": [1.0, 0.0, -0.75, 0.1, 2.0**-60, -3.0],
    "integers": [2.0**80, -3.0 * 2**60, 12.0, 0.0],
    "wide span": [1e300, -1e-300, 0.5, 5e-324],
    "subnormal": [5e-324, -2.0**-1060, 0.0, 2.0**-1023],
}


def float_record(values):
    """A record of the flat float values, one sample per (x, y)."""
    record = schemes._Record(tuple(range(len(values) // 2)), schemes._FLOAT)
    record.values.extend(values)
    return record


@pytest.mark.parametrize("part", FLOAT_PARTS)
def test_integers_of_a_float_part(part):
    values = FLOAT_PARTS[part]
    record = float_record(values)
    ordinals = range(len(record.steps))
    got = list(record.integers(ordinals))
    pairs = [(Fraction(x), Fraction(y)) for x, y in zip(values[::2], values[1::2])]
    assert [(Fraction(nx, q), Fraction(ny, q)) for nx, ny, q in got] == pairs
    assert all(q & (q - 1) == 0 for _, _, q in got)
    assert list(record.fractions(ordinals)) == pairs
    # converted to raw pairs, as a guard trip does: the same states
    raw = float_record(values)
    raw.to_raw(53)
    assert raw.form == schemes._RAW and len(raw.values) == 2 * len(values)
    assert list(raw.fractions(ordinals)) == pairs
    assert [(Fraction(nx, q), Fraction(ny, q)) for nx, ny, q in raw.integers(ordinals)] == pairs
    assert raw == record and hash(raw) == hash(record)


class TestResidualSummarySynthetic:
    """Forms chosen to stress the float keys; each case is checked in every
    order of its pairs, so that no tie-break of the key sort can pass it."""

    @staticmethod
    def check(forms, monkeypatch, rng, rounds=20):
        for _ in range(rounds):
            rng.shuffle(forms)
            run = SyntheticRun(forms)
            assert run.summary(monkeypatch) == run.oracle()

    def test_distinct_values_sharing_a_float(self, monkeypatch):
        # thirteen residuals 2**-100 apart under each of three keys: the
        # 240-bit norms decide both the median and the max
        forms = [*near_ties(1, 2, 3, 100), *near_ties(5, 7, 11, 100), *near_ties(3, 4, 1 << 40, 100)]
        assert len({float_key(*f) for f in forms}) < 10
        assert len({_wide.wide_norm2(*f) for f in forms}) == len(forms)
        self.check(forms, monkeypatch, random.Random(1))
        # the median alone in a cluster, the max alone in another
        forms = [*near_ties(1, 2, 3, 100)[:7], *near_ties(5, 7, 11, 100)[:6]]
        self.check(forms, monkeypatch, random.Random(2))

    def test_all_zero(self, monkeypatch):
        forms = [(0, 0, d) for d in (1, 3, 1 << 30, 7 << 9)]
        run = SyntheticRun(forms)
        assert run.summary(monkeypatch) == (4, 0, 0)

    def test_beyond_the_float_range(self, monkeypatch):
        # sums above the largest float (key inf) and below the smallest
        # subnormal (key 0.0), distinct and sharing their key
        huge = near_ties(3 << 600, 1 << 599, 1, 60)
        tiny = near_ties(3, 1, 1 << 600, 60)
        assert {float_key(*f) for f in huge} == {math.inf}
        assert {float_key(*f) for f in tiny} == {0.0}
        self.check(huge, monkeypatch, random.Random(3))
        self.check(tiny, monkeypatch, random.Random(4))
        self.check([*tiny, *huge[:12]], monkeypatch, random.Random(5))
        # the median among subnormal keys, one step from zero
        sub = [(rx, 0, 1 << 537) for rx in range(1, 9)] + [(0, 0, 1)] * 3
        assert {float_key(*f) for f in sub} & {0.0, 5e-324}
        self.check(sub, monkeypatch, random.Random(6))

    def test_gapped_sampling(self, monkeypatch):
        forms = near_ties(1, 2, 3, 100) + near_ties(5, 7, 11, 100)
        rng = random.Random(7)
        for _ in range(10):
            rng.shuffle(forms)
            indices = sorted(rng.sample(range(len(forms) + 1), 18))
            run = SyntheticRun(forms, indices)
            assert run.summary(monkeypatch) == run.oracle()

    def test_no_consecutive_pairs(self, monkeypatch):
        run = SyntheticRun([(1, 0, 1)] * 8, [0, 2, 4, 6])
        with pytest.raises(ParameterError, match="no consecutive step pairs"):
            run.summary(monkeypatch)


# ---------------------------------------------------------------------------
# Compiled residual keys: a key the kernel decides is the exact pair's
# float_key, bit for bit; anything it cannot prove comes out NaN
# ---------------------------------------------------------------------------


def assert_keys_exact(traj, params):
    """The compiled keys of the run, after checking that each one not NaN
    equals float_key of its pair's exact forms and that the NaNs are
    counted."""
    keys, undecided = analysis._compiled_keys(traj, params)
    steps = traj.steps
    forms = {i: form for i, *form in analysis._residual_forms(traj, params, range(len(steps)))}
    for o, key in enumerate(keys):
        if not math.isnan(key) and steps[o + 1] == steps[o] + 1:
            # equal positive normal floats are equal bit for bit
            assert key == float_key(*forms[steps[o]]), (o, key)
    assert sum(map(math.isnan, keys)) == undecided
    return keys


def run_from(scheme, params, dt, p, x0, y0, n):
    """An every-step run of n steps from (x0, y0) at p bits."""
    record = schemes._channel(scheme, params, dt, PrecisionConfig(p), x0, y0, tuple(range(n + 1)))
    return schemes.Trajectory(params, scheme, dt, PrecisionConfig(p), n, record)


def binades(lo, hi):
    """Fractions m * 2**e with a 20-bit m, whose magnitude lies in binades lo to hi."""
    return st.builds(lambda m, e: Fraction(m) * Fraction(2) ** (e - 19), st.integers(1 << 19, (1 << 20) - 1),
                     st.integers(lo, hi))


def mostly(usual, edges):
    """usual seven times in ten, else edges."""
    return st.integers(0, 9).flatmap(lambda k: usual if k < 7 else edges)


# constants, some near the edges of the window [2**-64, 2**64] of the
# rounded constants; states, some near the edges of the state window
# [2**-400, 2**400]
keyed_constants = mostly(st.fractions(min_value=Fraction(1, 100), max_value=10, max_denominator=1000),
                         st.one_of(binades(-66, -60), binades(58, 64)))
keyed_steps = mostly(st.fractions(min_value=Fraction(1, 10**5), max_value=1, max_denominator=10**6),
                     binades(-66, -60))
keyed_states = mostly(st.one_of(st.sampled_from((Fraction(0), Fraction(1), Fraction(-3, 7))),
                                st.fractions(min_value=-10, max_value=10, max_denominator=1000)),
                      st.one_of(binades(-402, -396), binades(395, 401), binades(395, 401).map(lambda v: -v)))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from(list(Scheme)), p=st.integers(2, 25), a=keyed_constants, b=keyed_constants,
       dt=keyed_steps, x0=keyed_states, y0=keyed_states, n=st.integers(1, 200))
def test_compiled_keys_drawn(compiled, scheme, p, a, b, dt, x0, y0, n):
    params = OscillatorParams(a, b)
    traj = run_from(scheme, params, dt, p, x0, y0, n)
    assert_keys_exact(traj, params)
    expected = sorted_summary(r for _, r in consistency_residual(traj, params))
    assert residual_summary(traj, params) == expected
    assert python_kernels(residual_summary, traj, params) == expected


@pytest.mark.parametrize("p", [2, 4])
def test_compiled_keys_at_ties(compiled, p):
    # p = 4 is the golden run whose median and max fall in a run of 483
    # equal residuals; at p = 2 ties are as common
    params = OscillatorParams(Fraction("0.8"), Fraction("0.025"))
    traj = integrate(Scheme.FORWARD_EULER, params, Fraction(1, 1000), Fraction(1, 2), PrecisionConfig(p),
                     SamplingPlan.every(1))
    keys = assert_keys_exact(traj, params)
    assert len(set(keys)) < len(keys) // 4  # mostly ties
    expected = sorted_summary(r for _, r in consistency_residual(traj, params))
    assert residual_summary(traj, params) == python_kernels(residual_summary, traj, params) == expected


def test_compiled_keys_of_a_hand_off(compiled):
    # a run whose range guard tripped holds raw pairs: every pair takes its
    # key from the exact integers, and the summary is the exact one
    scheme, params, dt, n, p, _, form = RECORDS["hand-off compiled"]
    traj = integrate(scheme, params, dt, n * dt, PrecisionConfig(p), SamplingPlan.every(1))
    assert traj.record.form == form
    keys, undecided = analysis._compiled_keys(traj, params)
    assert undecided == len(keys) == n and all(map(math.isnan, keys))
    assert residual_summary(traj, params) == sorted_summary(r for _, r in consistency_residual(traj, params))


@pytest.mark.parametrize("part", FLOAT_PARTS)
def test_compiled_keys_of_float_part_edges(compiled, part):
    # zeros, subnormals and values far outside [2**-450, 2**450]: NaN, not wrong
    values = FLOAT_PARTS[part]
    record = float_record(values)
    for scheme in Scheme:
        traj = schemes.Trajectory(PARAMS, scheme, Fraction(1, 100), SINGLE, len(values) // 2 - 1, record)
        keys = assert_keys_exact(traj, PARAMS)
        for o, key in enumerate(keys):
            pair = values[2 * o:2 * o + 4]
            if any(v and not 2.0**-450 <= abs(v) <= 2.0**450 for v in pair) or not any(pair):
                assert math.isnan(key), (part, scheme, o)


def root(t):
    """A rational within 2**-199 of sqrt(t), for t in [1/8, 8]."""
    return Fraction(math.isqrt(t.numerator * 2**400 // t.denominator), 2**200)


# midpoints between adjacent doubles: below 1, where the gap below is half
# the gap above, and at random places in [1, 2)
_rng = random.Random(24)
MIDPOINTS = [1 - Fraction(1, 2**54), *(1 + Fraction(2 * _rng.getrandbits(52) + 1, 2**53) for _ in range(12))]


@pytest.mark.parametrize("ry", [0.0, 0.375])
@pytest.mark.parametrize("x0, x1", [(0.0, 1.0), (float.fromhex("0x1.4cccccp+0"), float.fromhex("0x1.4ccccep+0"))])
def test_compiled_keys_at_rounding_boundaries(compiled, x0, x1, ry):
    # M = [[m, 0, -m, 0], [0, ry, 0, 0]] from (x0, 0) to (x1, 1): the
    # residual is (m (x1 - x0), ry), and its squared norm lies 2**-108 to
    # 2**-123 above or below a midpoint, relatively.  At the second (x0, x1)
    # the two products cancel 23 bits.  The double-double value can err by
    # more than that distance, so a bound taken too small (2**-112 T in
    # place of 2**-96 T), or the wrong gap, rounds some of these to the
    # wrong side
    xy = array("d", (x0, 0.0, x1, 1.0))
    dx = Fraction(x1) - Fraction(x0)
    for t in MIDPOINTS:
        for bits in range(108, 124, 3):
            for side in (1, -1):
                s = t * (1 + side * Fraction(1, 2**bits))  # within 2**-190 of the residual's squared norm
                m = root(s - Fraction(ry) ** 2) / dx
                hi = float(m)
                lo = float(m - Fraction(hi))
                keys = array("d", [0.0])
                compiled.residual_keys(xy, [hi, lo, 0.0, 0.0, -hi, -lo, 0.0, 0.0,
                                            0.0, 0.0, ry, 0.0, 0.0, 0.0, 0.0, 0.0], keys)
                assert math.isnan(keys[0]) or keys[0] == float(s), (t, bits, side)


def test_residual_keys_refuse_bad_buffers(compiled):
    # M = [I | -I]: the residual is the step's difference, here (0, 0.5)
    xy, m = array("d", (1.0, 0.0, 1.0, 0.5)), [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0,
                                               0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0]
    for keys, coefficients in ((array("d"), m), (array("q", [0]), m), (array("d", [0.0]), m[:14])):
        with pytest.raises(ValueError):
            compiled.residual_keys(xy, coefficients, keys)
    keys = array("d", [0.0])
    assert compiled.residual_keys(xy, m, keys) == 0 and keys[0] == 0.25


def test_compiled_keys_decide_almost_every_pair(compiled):
    # the golden p_run 25 run: B != I and the deepest cancellation the
    # kernel takes; 19,993 of its 20,000 keys were decided when written
    params = OscillatorParams(Fraction("0.025"), Fraction("0.8"))
    traj = integrate(Scheme.MIDPOINT_IMPLICIT, params, Fraction(1, 10**4), 2, PrecisionConfig(25),
                     SamplingPlan.every(1))
    keys, undecided = analysis._compiled_keys(traj, params)
    assert len(keys) == 20000 and undecided < 200


def test_no_compiled_keys_at_p53(compiled):
    params = OscillatorParams(Fraction("0.8"), Fraction("0.025"))
    traj = integrate(Scheme.MIDPOINT_IMPLICIT, params, Fraction(1, 1000), Fraction(1, 10), DOUBLE,
                     SamplingPlan.every(1))
    keys, undecided = analysis._compiled_keys(traj, params)
    assert undecided == len(keys) == 100 and all(map(math.isnan, keys))


class TestErrorBound:
    def test_eps_validation(self):
        with pytest.raises(ValueError):
            ErrorBoundModel(BoundMode.WORST_CASE, 0)

    def test_default_eps_scale(self):
        model = ErrorBoundModel.for_precision(SINGLE, PARAMS)
        # orbit max norm is sqrt(b/a) = sqrt 2 for the default params
        scale = model.per_step_eps / SINGLE.unit_roundoff
        assert abs(float(scale) - math.sqrt(2)) < 1e-9

    def test_classical_limit_vanishes_with_dt(self):
        # negligible eps leaves the discretization term, -> 0 as dt -> 0
        model = ErrorBoundModel(BoundMode.WORST_CASE, Fraction(1, 10**60))
        t_end = 10
        bounds = [
            predict_error_bound(PARAMS, Scheme.MIDPOINT_IMPLICIT, Fraction(1, d), 10 * d, model)
            for d in (10, 100, 1000, 10000)
        ]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] < 1e-7

    def test_roundoff_term_diverges_as_dt_shrinks(self):
        # with dominating eps the bound grows like n = T/dt
        model = ErrorBoundModel(BoundMode.WORST_CASE, SINGLE.unit_roundoff)
        bounds = [
            predict_error_bound(PARAMS, Scheme.MIDPOINT_IMPLICIT, Fraction(1, d), 10 * d, model)
            for d in (10**3, 10**4, 10**5)
        ]
        assert bounds[1] > 5 * bounds[0]
        assert bounds[2] > 5 * bounds[1]

    def test_random_walk_scales_sqrt_n(self):
        eps = Fraction(1, 2**24)
        w = predict_error_bound(PARAMS, Scheme.FORWARD_EULER, Fraction(1, 10**6), 10**6,
                                ErrorBoundModel(BoundMode.WORST_CASE, eps))
        r = predict_error_bound(PARAMS, Scheme.FORWARD_EULER, Fraction(1, 10**6), 10**6,
                                ErrorBoundModel(BoundMode.RANDOM_WALK, eps))
        # the shared truncation term shifts the ratio slightly off sqrt(n)
        assert w / r == pytest.approx(math.sqrt(10**6), rel=1e-2)

    @given(
        n1=st.integers(1, 10**6), n2=st.integers(1, 10**6),
        e1=st.integers(1, 10**9), e2=st.integers(1, 10**9),
        mode=st.sampled_from(list(BoundMode)),
    )
    @settings(max_examples=100)
    def test_monotone_in_n_and_eps(self, n1, n2, e1, e2, mode):
        if n1 > n2:
            n1, n2 = n2, n1
        if e1 > e2:
            e1, e2 = e2, e1
        dt = Fraction(1, 1000)
        m1 = ErrorBoundModel(mode, Fraction(e1, 10**40))
        m2 = ErrorBoundModel(mode, Fraction(e2, 10**40))
        assert predict_error_bound(PARAMS, Scheme.RK3, dt, n1, m1) <= predict_error_bound(
            PARAMS, Scheme.RK3, dt, n2, m1
        )
        assert predict_error_bound(PARAMS, Scheme.RK3, dt, n1, m1) <= predict_error_bound(
            PARAMS, Scheme.RK3, dt, n1, m2
        )

    def test_n_validation(self):
        with pytest.raises(ValueError):
            predict_error_bound(PARAMS, Scheme.RK3, Fraction(1, 10), 0,
                                ErrorBoundModel(BoundMode.WORST_CASE, Fraction(1, 2**24)))

    def test_random_walk_within_100x_of_measured(self):
        # order-of-magnitude sanity against a short matching run
        dt = Fraction(1, 100)
        t_end = 100
        recs = longtime_run(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt, t_end, SINGLE, QUAD, 4)
        measured = recs[-1].e_round
        model = ErrorBoundModel.for_precision(SINGLE, PARAMS, BoundMode.RANDOM_WALK)
        bound = predict_error_bound(PARAMS, Scheme.MIDPOINT_IMPLICIT, dt, 10**4, model)
        assert Fraction(1, 100) <= Fraction(bound) / measured <= 100


class TestSpectralAnalysis:
    def test_identity(self):
        info = spectral_analysis(UpdateMatrix(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))))
        assert info.det == 1
        assert info.eigenvalue_moduli == (1, 1)

    @pytest.mark.parametrize("exp", range(1, 8))
    def test_midpoint_unit_modulus(self, exp):
        dt = Fraction(1, 10**exp)
        info = spectral_analysis(update_matrix(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt))
        assert info.det == 1
        tol = Fraction(1, 10**12)
        assert abs(info.eigenvalue_moduli[0] - 1) <= tol
        assert abs(info.eigenvalue_moduli[1] - 1) <= tol

    def test_euler_spectrum(self):
        dt = Fraction(1, 10)
        info = spectral_analysis(update_matrix(Scheme.FORWARD_EULER, PARAMS, dt))
        assert info.det == 1 + PARAMS.a * PARAMS.b * dt * dt
        # complex pair: both moduli are sqrt(det) > 1
        assert info.eigenvalue_moduli[0] == info.eigenvalue_moduli[1]
        assert info.eigenvalue_moduli[0] > 1

    def test_real_eigenvalues(self):
        info = spectral_analysis(UpdateMatrix(((Fraction(3), Fraction(0)), (Fraction(0), Fraction(-2)))))
        assert info.det == -6
        assert info.eigenvalue_moduli == (3, 2)


class TestEffectiveComputationTime:
    def test_worked_example(self):
        assert effective_computation_time([(1, "0.1"), (2, "0.5"), (3, "2.0")], 1) == 3

    def test_threshold_below_first(self):
        assert effective_computation_time([(1, "0.1"), (2, "0.5")], "0.01") == 1

    def test_never_reached(self):
        assert effective_computation_time([(1, "0.1"), (2, "0.5")], 10) is None

    def test_empty_series(self):
        with pytest.raises(ValueError):
            effective_computation_time([], 1)

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError):
            effective_computation_time([(1, 1), (1, 2)], 1)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            effective_computation_time([(1, 1)], 0)

    def test_monotone_in_threshold(self, rng):
        series = []
        t, v = Fraction(0), Fraction(0)
        for _ in range(50):
            t += Fraction(rng.randint(1, 9), 7)
            v += Fraction(rng.randint(0, 99), 101)
            series.append((t, v))
        results = [effective_computation_time(series, th) for th in (Fraction(1), Fraction(5), Fraction(12))]
        cleaned = [r if r is not None else Fraction(10**9) for r in results]
        assert cleaned == sorted(cleaned)


def _rec(dt, e):
    return SweepRecord(Fraction(dt), 0, None if e is None else Fraction(e), None, None, 0.0,
                       status="skipped_guard" if e is None else "ok")


class TestOptimalStepSize:
    def test_single_record(self):
        r = _rec("1e-2", "3")
        assert optimal_step_size([r]) is r

    def test_argmin(self):
        recs = [_rec("1e-2", 3), _rec("1e-3", 1), _rec("1e-4", 2)]
        assert optimal_step_size(recs).dt == Fraction("1e-3")

    def test_tie_breaks_to_larger_dt(self):
        recs = [_rec("1e-3", 1), _rec("1e-4", 1)]
        assert optimal_step_size(recs).dt == Fraction("1e-3")

    def test_permutation_invariant(self, rng):
        recs = [_rec(Fraction(1, 10**k), Fraction(rng.randint(1, 50), 7)) for k in range(1, 8)]
        want = optimal_step_size(recs)
        for _ in range(10):
            rng.shuffle(recs)
            assert optimal_step_size(recs) == want

    def test_skipped_records_ignored(self):
        recs = [_rec("1e-2", None), _rec("1e-3", 5)]
        assert optimal_step_size(recs).dt == Fraction("1e-3")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_step_size([])
        with pytest.raises(ValueError):
            optimal_step_size([_rec("1e-2", None)])


class TestConservationDrift:
    def test_exact_midpoint_zero_drift(self):
        traj = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 10), 3, None, SamplingPlan.every(5))
        assert all(d == 0 for _, d in conservation_drift(traj, PARAMS))

    def test_euler_exact_drift_formula(self):
        dt = Fraction(1, 10)
        n = 30
        traj = integrate(Scheme.FORWARD_EULER, PARAMS, dt, n * dt, None, SamplingPlan.every(1))
        drift = conservation_drift(traj, PARAMS)
        growth = 1 + PARAMS.a * PARAMS.b * dt * dt
        for (t, d), k in zip(drift, range(n + 1)):
            assert d == PARAMS.b * (growth**k - 1)

    def test_rounded_midpoint_drift_small(self):
        n = 1000
        dt = Fraction(1, 100)
        traj = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt, n * dt, QUAD, SamplingPlan.every(100))
        bound = 10 * n * Fraction(1, 2**113) * PARAMS.b
        assert all(d <= bound for _, d in conservation_drift(traj, PARAMS))

    def test_single_precision_drift_linear_in_steps(self):
        # drift <= C * n * u * b with a small constant (measured C ~ 1.6)
        n = 1000
        dt = Fraction(1, 100)
        traj = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt, n * dt, SINGLE, SamplingPlan.every(100))
        bound = 10 * n * Fraction(1, 2**24) * PARAMS.b
        assert all(d <= bound for _, d in conservation_drift(traj, PARAMS))
        assert conservation_drift(traj, PARAMS)[-1][1] > 0
