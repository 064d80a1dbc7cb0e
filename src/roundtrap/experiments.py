"""The two experiments: a step-size sweep at fixed final time and a
long-time integration at fixed step size.

Both compare a run-precision integration against a reference of the same
scheme at the same step size in a much wider format, which isolates
truncation error; the analytic solution then splits total error into
truncation and round-off channels.  The full-scale version (T = 1e4 with
steps down to 1e-7, i.e. 1e11 steps) is not desk-feasible in emulated
arithmetic; the default sweep is scaled to T = 100, where the V shape of
total error versus step size survives because it is set by the balance of
per-step round-off against dt**order, not by T.

Sweep legs are independent and may run in worker processes, submitted
longest first; records are assembled in descending-dt order, so output is
deterministic regardless of scheduling.  A sweep small enough that a pool
would cost more than it saves runs in one process.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction
from typing import Optional

from ._wide import cos_sin_steps
from .analysis import error_separation
from .fpcore import ParameterError, PrecisionConfig, QUAD, SINGLE, _Frozen, _set
from .oscillator import OscillatorParams, analytic_solution, _as_fraction, _state
from .schemes import SamplingPlan, Scheme, _check_steps, integrate_pair, num_steps, starts_compiled

STATUS_OK = "ok"
STATUS_SKIPPED_GUARD = "skipped_guard"
STATUS_SKIPPED_ZERO_STEPS = "skipped_zero_steps"

# the desk sweep's step sizes as written, which the CLI's defaults show
DESK_DT_STRINGS = ("1e-1", "3e-2", "1e-2", "3e-3", "1e-3", "3e-4", "1e-4", "3e-5", "1e-5")
DESK_DT_LIST = tuple(Fraction(s) for s in DESK_DT_STRINGS)
DESK_MAX_STEPS = 20_000_000


class SweepConfig(_Frozen):
    """Configuration of a step-size sweep."""

    __slots__ = ("scheme", "params", "t_end", "dt_list", "run_precision", "ref_precision", "max_steps")

    def __init__(
        self,
        scheme: Scheme = Scheme.MIDPOINT_IMPLICIT,
        params: OscillatorParams = OscillatorParams(),
        t_end: Fraction = Fraction(100),
        dt_list: tuple[Fraction, ...] = DESK_DT_LIST,
        run_precision: PrecisionConfig = SINGLE,
        ref_precision: PrecisionConfig = QUAD,
        max_steps: int = DESK_MAX_STEPS,
    ):
        t_end = _as_fraction(t_end)
        dt_list = tuple(_as_fraction(dt) for dt in dt_list)
        if ref_precision.significand_bits <= run_precision.significand_bits:
            raise ParameterError("reference precision must be strictly wider than run precision")
        if t_end <= 0:
            raise ParameterError("t_end must be positive")
        if not dt_list:
            raise ParameterError("dt_list is empty")
        if any(dt <= 0 for dt in dt_list):
            raise ParameterError("step sizes must be positive")
        for dt in dt_list:
            num_steps(t_end, dt)  # rejects a step count too long to report
        if max_steps < 1:
            raise ParameterError("max_steps must be >= 1")
        _set(self, "scheme", scheme)
        _set(self, "params", params)
        _set(self, "t_end", t_end)
        _set(self, "dt_list", dt_list)
        _set(self, "run_precision", run_precision)
        _set(self, "ref_precision", ref_precision)
        _set(self, "max_steps", max_steps)


class SweepRecord(_Frozen):
    """One sweep row: error norms at t_end for one step size.  Error fields
    are None when the leg was skipped: by the step-count guard
    (n_steps > max_steps) or because t_end/dt rounds to zero steps."""

    __slots__ = ("dt", "n_steps", "e_total", "e_trunc", "e_round", "wall_time_s", "status")

    def __init__(self, dt: Fraction, n_steps: int, e_total: Optional[Fraction], e_trunc: Optional[Fraction],
                 e_round: Optional[Fraction], wall_time_s: float, status: str = STATUS_OK):
        _set(self, "dt", dt)
        _set(self, "n_steps", n_steps)
        _set(self, "e_total", e_total)
        _set(self, "e_trunc", e_trunc)
        _set(self, "e_round", e_round)
        _set(self, "wall_time_s", wall_time_s)
        _set(self, "status", status)


class TimeSeriesRecord(_Frozen):
    """One long-run row: round-off and truncation error norms at time t."""

    __slots__ = ("t", "e_round", "e_trunc")

    def __init__(self, t: Fraction, e_round: Fraction, e_trunc: Fraction):
        _set(self, "t", t)
        _set(self, "e_round", e_round)
        _set(self, "e_trunc", e_trunc)


_SET_T, _SET_E_ROUND, _SET_E_TRUNC = (
    TimeSeriesRecord.t.__set__, TimeSeriesRecord.e_round.__set__, TimeSeriesRecord.e_trunc.__set__)


def _skip_status(cfg: SweepConfig, n: int) -> Optional[str]:
    """The status of a sweep leg of n steps that is skipped, or None when it runs."""
    if n < 1:
        return STATUS_SKIPPED_ZERO_STEPS
    if n > cfg.max_steps:
        return STATUS_SKIPPED_GUARD
    return None


def running_legs(cfg: SweepConfig) -> list[Fraction]:
    """The step sizes of the sweep's legs that run rather than being skipped."""
    return [dt for dt in cfg.dt_list if _skip_status(cfg, num_steps(cfg.t_end, dt)) is None]


def _sweep_leg(cfg: SweepConfig, dt: Fraction) -> SweepRecord:
    n = num_steps(cfg.t_end, dt)
    skipped = _skip_status(cfg, n)
    if skipped is not None:
        return SweepRecord(dt, n, None, None, None, 0.0, skipped)
    started = time.perf_counter()
    run, ref = integrate_pair(
        cfg.scheme, cfg.params, dt, cfg.t_end,
        cfg.run_precision, cfg.ref_precision,
        SamplingPlan.final_only(), cfg.max_steps,
    )
    triple = error_separation(
        run.final_state, ref.final_state, analytic_solution(cfg.params, run.final_state.t)
    )
    wall = time.perf_counter() - started
    return SweepRecord(
        dt, n, triple.total.norm, triple.truncation.norm, triple.roundoff.norm, wall
    )


# A sweep runs in this process, whatever ``jobs`` says, when its legs step
# on compiled kernels and take at most this many steps in all.  On a 2-vCPU
# x86-64 host a compiled midpoint leg step costs about 105 ns at p_run 24
# (19 ns binary64 run, 87 ns 113-bit reference) and 195 ns at p_run 40
# (108 ns integer run), and two pool workers cost 10-30 ms to start.  Six
# legs from dt=1e-1 to 3e-4 (medians of 7) ran as fast in process as on a
# pool of two at 5.8*10**5 steps and p_run 40 (144 against 141 ms), and
# faster at p_run 24 (67 against 84 ms) and at 1.15*10**6 steps (137
# against 160 ms at p_run 24, 310 against 335 ms at p_run 40).
_IN_PROCESS_STEPS = 10**6


def _runs_in_process(cfg: SweepConfig) -> bool:
    """Whether the sweep is too small for a pool: every running leg starts
    both channels on compiled kernels, and the legs take at most
    ``_IN_PROCESS_STEPS`` steps in all."""
    legs = set(running_legs(cfg))
    if sum(num_steps(cfg.t_end, dt) for dt in legs) > _IN_PROCESS_STEPS:
        return False
    ps = (cfg.run_precision.significand_bits, cfg.ref_precision.significand_bits)
    return all(starts_compiled(cfg.scheme, cfg.params, dt, p) for dt in legs for p in ps)


def stepsize_sweep(cfg: SweepConfig, jobs: Optional[int] = None) -> list[SweepRecord]:
    """Run every leg of the sweep and return records in descending-dt order.

    ``jobs`` is the most worker processes to use: > 1 runs legs in worker
    processes, unless the sweep is small enough that starting them would
    cost more than they save (``_runs_in_process``); the data columns of the
    result do not depend on jobs.  Guard-tripped legs are reported with
    status=skipped_guard and legs whose t_end/dt rounds to zero steps with
    status=skipped_zero_steps, rather than failing the sweep.
    """
    dts = sorted(set(cfg.dt_list), reverse=True)
    if jobs is None or jobs <= 1 or len(dts) == 1 or _runs_in_process(cfg):
        return [_sweep_leg(cfg, dt) for dt in dts]
    # imported here: it loads multiprocessing, which a one-process run need not pay for
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(dts), os.cpu_count() or 1)
    # longest leg first, so it never queues behind short ones
    longest_first = sorted(dts, key=lambda dt: num_steps(cfg.t_end, dt), reverse=True)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {dt: pool.submit(_sweep_leg, cfg, dt) for dt in longest_first}
        return [futures[dt].result() for dt in dts]


def _sample_steps(n: int, count: int, spacing: str) -> tuple[int, ...]:
    """The sorted distinct steps of ``count`` samples over n steps, and n.
    Sample i (1 <= i <= count) falls on step round(i*n/count) (linear) or
    round(n**(i/count)) (log), and on step 1 at the earliest.  Both are
    nondecreasing in i, so a galloping search skips each run of samples on
    one step, and the work grows with the number of distinct steps, not
    with count."""
    if n > sys.float_info.max:  # both spacings are computed in floats
        raise ParameterError("t_end/dt is too large to place samples: the step count exceeds the float range")
    if spacing == "linear":
        def at(i: int) -> int:
            return max(1, round(i * n / count))
    elif spacing == "log":
        def at(i: int) -> int:
            return round(n ** (i / count))
    else:
        raise ParameterError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    steps = []
    i, s = 1, at(1)
    while True:
        steps.append(s)
        # at(lo) == s; find hi, the first index past the run, and nxt = at(hi)
        lo, hi, width = i, count + 1, 1
        while lo + width < hi:
            nxt = at(lo + width)
            if nxt != s:
                hi = lo + width
                break
            lo += width
            width *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            value = at(mid)
            if value == s:
                lo = mid
            else:
                hi, nxt = mid, value
        if hi > count:
            return tuple(sorted({*steps, n}))
        i, s = hi, nxt


def longtime_run(
    scheme: Scheme,
    params: OscillatorParams,
    dt,
    t_end,
    run_precision: PrecisionConfig,
    ref_precision: PrecisionConfig,
    sample_count: int,
    spacing: str = "log",
    max_steps: int = DESK_MAX_STEPS,
) -> list[TimeSeriesRecord]:
    """Integrate run and reference channels, recording the round-off and
    truncation error norms at ``sample_count`` log- or linearly-spaced
    times."""
    if sample_count < 2:
        raise ParameterError("sample_count must be >= 2")
    if ref_precision.significand_bits <= run_precision.significand_bits:
        raise ParameterError("reference precision must be strictly wider than run precision")
    dt = _as_fraction(dt)
    t_end = _as_fraction(t_end)
    n = _check_steps(t_end, dt, max_steps)
    steps = _sample_steps(n, sample_count, spacing)
    run, ref = integrate_pair(
        scheme, params, dt, t_end, run_precision, ref_precision,
        SamplingPlan.at(steps), max_steps,
    )
    # one time per sample for the three States; the phase w t is k (w dt)
    ordinals, time = range(len(steps)), run._time
    assert run.steps == ref.steps == steps
    hints = cos_sin_steps(params.angular_frequency() * dt, steps)
    out = []
    for i, (x, y), (xr, yr), near in zip(steps, run.record.fractions(ordinals),
                                         ref.record.fractions(ordinals), hints):
        t = time(i)
        triple = error_separation(_state(x, y, t), _state(xr, yr, t), analytic_solution(params, t, near))
        row = object.__new__(TimeSeriesRecord)  # TimeSeriesRecord(...) through the slots' descriptors
        _SET_T(row, t)
        _SET_E_ROUND(row, triple.roundoff.norm)
        _SET_E_TRUNC(row, triple.truncation.norm)
        out.append(row)
    return out
