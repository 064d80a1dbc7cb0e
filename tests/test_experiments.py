import concurrent.futures
import math
import time
from fractions import Fraction

import pytest

from roundtrap import experiments
from roundtrap.analysis import error_separation
from roundtrap.experiments import (
    DESK_DT_LIST,
    STATUS_OK,
    STATUS_SKIPPED_GUARD,
    SweepConfig,
    SweepRecord,
    longtime_run,
    stepsize_sweep,
    _sample_steps,
    _sweep_leg,
)
from roundtrap.fpcore import QUAD, SINGLE, PrecisionConfig
from roundtrap.oscillator import OscillatorParams, analytic_solution
from roundtrap.schemes import SamplingPlan, Scheme, Trajectory, integrate, integrate_pair

PARAMS = OscillatorParams()


def strip(records):
    """The data columns of sweep records, without the wall time."""
    return [(r.dt, r.n_steps, r.e_total, r.e_trunc, r.e_round, r.status) for r in records]


SMALL = SweepConfig(
    t_end=Fraction(2),
    dt_list=(Fraction(1, 10), Fraction(1, 40), Fraction(1, 160)),
)


class TestSweepConfig:
    def test_defaults_match_desk_scale(self):
        cfg = SweepConfig()
        assert cfg.dt_list == DESK_DT_LIST
        assert cfg.t_end == 100
        assert (cfg.run_precision, cfg.ref_precision) == (SINGLE, QUAD)
        assert cfg.max_steps == 20_000_000

    def test_reference_must_be_wider(self):
        with pytest.raises(ValueError):
            SweepConfig(run_precision=SINGLE, ref_precision=SINGLE)
        with pytest.raises(ValueError):
            SweepConfig(run_precision=QUAD, ref_precision=SINGLE)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(t_end=0)
        with pytest.raises(ValueError):
            SweepConfig(dt_list=())
        with pytest.raises(ValueError):
            SweepConfig(dt_list=(Fraction(-1, 10),))


class TestStepsizeSweep:
    def test_records_ordered_and_complete(self):
        recs = stepsize_sweep(SMALL)
        assert [r.dt for r in recs] == sorted(SMALL.dt_list, reverse=True)
        assert all(r.status == STATUS_OK for r in recs)
        assert all(r.e_total >= 0 and r.e_trunc >= 0 and r.e_round >= 0 for r in recs)
        assert all(r.n_steps == round(2 / r.dt) for r in recs)

    def test_leg_in_isolation_matches_full_sweep(self):
        recs = stepsize_sweep(SMALL)
        solo = _sweep_leg(SMALL, Fraction(1, 40))
        [from_sweep] = [r for r in recs if r.dt == Fraction(1, 40)]
        assert (solo.e_total, solo.e_trunc, solo.e_round) == (
            from_sweep.e_total, from_sweep.e_trunc, from_sweep.e_round
        )

    def test_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setattr(experiments, "_IN_PROCESS_STEPS", 0)  # a pool even for a small sweep
        serial = stepsize_sweep(SMALL, jobs=1)
        parallel = stepsize_sweep(SMALL, jobs=2)
        assert strip(serial) == strip(parallel)
        # legs are submitted longest first but reported in descending-dt order
        assert [r.dt for r in parallel] == sorted(SMALL.dt_list, reverse=True)

    def test_small_sweep_starts_no_pool(self, compiled, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert experiments._runs_in_process(SMALL)  # 420 steps, every channel compiled
        assert strip(stepsize_sweep(SMALL, jobs=2)) == strip(stepsize_sweep(SMALL, jobs=1))
        # the midpoint scheme is compiled at p = 30 too
        at_30 = SweepConfig(SMALL.scheme, SMALL.params, SMALL.t_end, SMALL.dt_list, PrecisionConfig(30),
                            SMALL.ref_precision, SMALL.max_steps)
        assert experiments._runs_in_process(at_30)
        assert strip(stepsize_sweep(at_30, jobs=2)) == strip(stepsize_sweep(at_30, jobs=1))
        # a sweep with an emulated channel, or one past the bound, uses the pool
        rk3 = SweepConfig(Scheme.RK3, at_30.params, at_30.t_end, at_30.dt_list, at_30.run_precision,
                          at_30.ref_precision, at_30.max_steps)
        assert not experiments._runs_in_process(rk3)
        monkeypatch.setattr(experiments, "_IN_PROCESS_STEPS", 419)
        assert not experiments._runs_in_process(SMALL)

    def test_guard_trips_are_per_record(self):
        cfg = SweepConfig(
            t_end=Fraction(2),
            dt_list=(Fraction(1, 10), Fraction(1, 10**9)),
            max_steps=10**6,
        )
        recs = stepsize_sweep(cfg)
        assert recs[0].status == STATUS_OK
        assert recs[1].status == STATUS_SKIPPED_GUARD
        assert recs[1].e_total is None

    def test_roundtrip_against_persisted_trajectories(self):
        # E_r reported by the sweep equals error_separation recomputed from
        # separately integrated trajectories
        dt = Fraction(1, 40)
        [rec] = [r for r in stepsize_sweep(SMALL) if r.dt == dt]
        run, ref = integrate_pair(SMALL.scheme, SMALL.params, dt, SMALL.t_end, SINGLE, QUAD)
        triple = error_separation(
            run.final_state, ref.final_state, analytic_solution(SMALL.params, SMALL.t_end)
        )
        assert rec.e_round == triple.roundoff.norm
        assert rec.e_trunc == triple.truncation.norm
        assert rec.e_total == triple.total.norm

    def test_equal_precision_channels_have_zero_separation(self):
        # config forbids run == ref, but the underlying identity holds: two
        # trajectories at one precision are bit-identical, so E_r == 0
        run_a = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 10), 2, SINGLE)
        run_b = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 10), 2, SINGLE)
        triple = error_separation(
            run_a.final_state, run_b.final_state, analytic_solution(PARAMS, 2)
        )
        assert triple.roundoff.norm == 0
        assert triple.total == triple.truncation

    def test_reported_roundoff_stable_in_reference_precision(self):
        # any sufficiently wide reference reports the same E_r: the run's own
        # round-off dominates the difference (see ledger note on the
        # equal-precision limit, which is exactly zero and tested above)
        dt = Fraction(1, 10)

        def e_round(ref_bits):
            cfg = SweepConfig(
                t_end=Fraction(2), dt_list=(dt,), ref_precision=PrecisionConfig(ref_bits)
            )
            return stepsize_sweep(cfg)[0].e_round

        wide, wider = e_round(60), e_round(113)
        assert abs(wide - wider) <= wider / 10**6


class TestMonotonePrecision:
    def test_median_roundoff_improves_with_precision(self):
        meds = []
        for bits in (16, 24, 32, 53):
            recs = longtime_run(
                Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 100), 10,
                PrecisionConfig(bits), QUAD, 8,
            )
            vals = sorted(r.e_round for r in recs)
            meds.append(vals[len(vals) // 2])
        assert meds == sorted(meds, reverse=True)
        assert all(m2 < m1 / 10 for m1, m2 in zip(meds, meds[1:]))


class TestLongtimeRun:
    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            longtime_run(Scheme.RK3, PARAMS, Fraction(1, 10), 1, SINGLE, QUAD, 1)

    def test_equal_precisions_rejected(self):
        with pytest.raises(ValueError):
            longtime_run(Scheme.RK3, PARAMS, Fraction(1, 10), 1, SINGLE, SINGLE, 4)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            longtime_run(Scheme.RK3, PARAMS, Fraction(1, 10), 1, SINGLE, QUAD, 4, spacing="cubic")

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    def test_series_shape(self, spacing):
        recs = longtime_run(
            Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 50), 20, SINGLE, QUAD, 12, spacing=spacing
        )
        ts = [r.t for r in recs]
        assert ts == sorted(set(ts))
        assert ts[-1] == 20
        assert all(r.e_round >= 0 and r.e_trunc >= 0 for r in recs)

    def test_truncation_grows_with_time(self):
        # phase drift accumulates: E_t at the end exceeds E_t early on
        recs = longtime_run(
            Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 50), 50, SINGLE, QUAD, 10, spacing="linear"
        )
        assert recs[-1].e_trunc > recs[0].e_trunc

    def test_per_sample_calls_by_module_name(self, monkeypatch):
        # bench/layers.py times these four functions by wrapping them at the
        # names below and replaying the captured calls; longtime_run must call
        # each through that name, looked up at call time, once per sample
        # (wide_norm2 twice, for E_r and E_t)
        from roundtrap import _wide, experiments

        calls = dict.fromkeys(("analytic", "separation", "norm2", "cos_sin"), 0)

        def counted(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(experiments, "analytic_solution", counted("analytic", experiments.analytic_solution))
        monkeypatch.setattr(experiments, "error_separation", counted("separation", experiments.error_separation))
        monkeypatch.setattr(_wide, "wide_norm2", counted("norm2", _wide.wide_norm2))
        monkeypatch.setattr(_wide, "wide_cos_sin", counted("cos_sin", _wide.wide_cos_sin))
        k = 20
        recs = experiments.longtime_run(
            Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 100), 2, SINGLE, QUAD, k, spacing="linear"
        )
        assert len(recs) == k
        assert calls == {"analytic": k, "separation": k, "norm2": 2 * k, "cos_sin": k}

    def test_keeps_no_samples(self, monkeypatch):
        # the run reads each channel's record one state at a time and never
        # builds the samples' States, so its peak memory holds the two
        # records but not their States
        from roundtrap import experiments

        made = []
        monkeypatch.setattr(experiments, "integrate_pair",
                            lambda *args: made.extend(integrate_pair(*args)) or tuple(made))
        samples = Trajectory.samples

        def refused(self):
            raise AssertionError("longtime_run read Trajectory.samples")

        monkeypatch.setattr(Trajectory, "samples", property(refused))
        recs = experiments.longtime_run(
            Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 100), 2, SINGLE, QUAD, 20, spacing="linear"
        )
        run, _ = made
        assert [r.t for r in recs] == [s.t for _, s in samples.fget(run)]

    def test_one_time_per_sample(self, monkeypatch):
        # the run, reference and analytic States of a sample share one time
        from roundtrap import experiments

        shared = []
        separation = experiments.error_separation

        def checked(actual, reference, analytic):
            shared.append(actual.t is reference.t is analytic.t)
            return separation(actual, reference, analytic)

        monkeypatch.setattr(experiments, "error_separation", checked)
        recs = experiments.longtime_run(
            Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 100), 2, SINGLE, QUAD, 20, spacing="log"
        )
        assert shared == [True] * len(recs)


def sample_steps_by_count(n: int, count: int, spacing: str) -> tuple[int, ...]:
    """The sample placement as first written: every one of the count
    samples computed, then the distinct steps kept."""
    if spacing == "linear":
        raw = (round(i * n / count) for i in range(1, count + 1))
    else:
        raw = (round(n ** (i / count)) for i in range(1, count + 1))
    return tuple(sorted({max(1, s) for s in raw} | {n}))


class TestSampleSteps:
    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_matches_sample_by_sample_placement(self, spacing):
        for n in range(1, 130):
            counts = {*range(2, 40), n - 1, n, n + 1, 2 * n - 1, 2 * n, 2 * n + 1, 7 * n + 3,
                      round(2 * n * math.log(n)) if n > 1 else 2, 20 * n}
            for count in sorted(c for c in counts if c >= 2):
                assert _sample_steps(n, count, spacing) == sample_steps_by_count(n, count, spacing)

    @pytest.mark.parametrize("n, count", [(20000, 10000), (10000, 20000), (1000, 20001),
                                          (123457, 977), (10**9, 5000), (2**40 + 3, 3000)])
    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_matches_on_long_runs(self, n, count, spacing):
        assert _sample_steps(n, count, spacing) == sample_steps_by_count(n, count, spacing)

    @pytest.mark.parametrize("n, count, spacing", [(1000, 10**9, "linear"), (1000, 10**7, "log")])
    def test_work_bounded_by_distinct_steps(self, n, count, spacing):
        started = time.perf_counter()
        assert _sample_steps(n, count, spacing) == tuple(range(1, n + 1))
        assert time.perf_counter() - started < 1.0


class TestReferenceTrajectory:
    def test_deterministic(self):
        a = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 20), 2, QUAD)
        b = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, Fraction(1, 20), 2, QUAD)
        assert a == b

    def test_reference_vs_itself_zero_roundoff(self):
        traj = integrate(Scheme.RK3, PARAMS, Fraction(1, 20), 2, QUAD)
        triple = error_separation(
            traj.final_state, traj.final_state, analytic_solution(PARAMS, 2)
        )
        assert triple.roundoff.norm == 0

    def test_matches_exact_arithmetic_truncation(self):
        # p=113 reference reproduces the exact-arithmetic global truncation
        # error to >= 10 significant digits (short run, exact rationals)
        dt = Fraction(1, 100)
        t_end = 1
        ref = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt, t_end, QUAD)
        exact = integrate(Scheme.MIDPOINT_IMPLICIT, PARAMS, dt, t_end, None)
        analytic = analytic_solution(PARAMS, t_end)
        e_ref = error_separation(ref.final_state, ref.final_state, analytic).truncation
        e_exact = error_separation(exact.final_state, exact.final_state, analytic).truncation
        assert abs(e_ref.norm - e_exact.norm) <= e_exact.norm / 10**10
