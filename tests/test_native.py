"""The native backends against the emulator, which stays the oracle: every
native trajectory must equal the emulated one bit for bit, including runs
that leave the guarded range and hand off to the emulator.  The native
kernels are the Python binary64 kernels, their compiled twins and, for the
midpoint scheme, the compiled integer kernel at every other p; the compiled
kernels must also equal the Python kernels."""

import csv
import functools
import math
import random
from array import array
from fractions import Fraction

import pytest

from roundtrap import _compiled, schemes
from roundtrap.cli import main
from roundtrap.fpcore import PrecisionConfig, _add_raw, _float_to_raw, _fraction_to_raw, _round_raw
from roundtrap.oscillator import OscillatorParams, State
from roundtrap.schemes import (
    BINARY64,
    EMULATED,
    SamplingPlan,
    Scheme,
    _native_floats,
    _split_factor,
    channel_backend,
    integrate,
    starts_compiled,
    step,
)

# the benchmark's seed table, plus a pair with coefficients above one
PAIRS = (
    ("0.1", "0.2"), ("0.2", "0.1"), ("0.05", "0.4"), ("0.4", "0.05"),
    ("0.025", "0.8"), ("0.8", "0.025"), ("3", "7"),
)
NATIVE_PS = (2, 10, 24, 25, 53)
COMPILED_PS = (*NATIVE_PS, 40, 113)
SAMPLINGS = {
    "stride": SamplingPlan.every(7),
    "explicit": SamplingPlan.at((0, 1, 2, 33, 99, 149)),
    "every": SamplingPlan.every(1),
}


def emulated(fn, *args, **kwargs):
    """Call fn with every channel forced onto the emulator."""
    mp = pytest.MonkeyPatch()
    mp.setattr(schemes, "channel_backend", lambda p: EMULATED)
    mp.setattr(schemes, "_load_kernels", lambda: None)
    try:
        return fn(*args, **kwargs)
    finally:
        mp.undo()


def python_kernels(fn, *args, **kwargs):
    """Call fn with the compiled kernels switched off: the Python kernels
    step where they would have."""
    mp = pytest.MonkeyPatch()
    mp.setattr(schemes, "_load_kernels", lambda: None)
    try:
        return fn(*args, **kwargs)
    finally:
        mp.undo()


def assert_same_as_emulator(*args):
    native = integrate(*args)
    assert native.samples == emulated(integrate, *args).samples
    return native


class TestBackendSelection:
    def test_precisions(self):
        assert [p for p in range(2, 114) if channel_backend(p) == BINARY64] == [*range(2, 26), 53]

    def test_native_path_skips_emulator(self, monkeypatch):
        def forbidden(st, c, p, k):
            raise AssertionError("emulator kernel called")

        monkeypatch.setattr(schemes, "_FUSED_FN", dict.fromkeys(Scheme, forbidden))
        for scheme in Scheme:
            for p in NATIVE_PS:
                integrate(scheme, OscillatorParams(), Fraction("0.01"), 1, PrecisionConfig(p))
        with pytest.raises(AssertionError, match="emulator kernel"):
            integrate(Scheme.RK3, OscillatorParams(), Fraction("0.01"), 1, PrecisionConfig(30))


@pytest.mark.parametrize("sampling", SAMPLINGS)
@pytest.mark.parametrize("p", NATIVE_PS)
@pytest.mark.parametrize("scheme", list(Scheme))
def test_bit_identical_to_emulator(scheme, p, sampling):
    for a, b in PAIRS:
        params = OscillatorParams(Fraction(a), Fraction(b))
        assert_same_as_emulator(
            scheme, params, Fraction("0.03"), Fraction("4.5"), PrecisionConfig(p), SAMPLINGS[sampling]
        )


# Start states for single steps: inside the native state window, at its
# edges, outside it, and beyond binary64's range (math.ldexp overflows at
# 2**1024 and goes subnormal below 2**-1022).
IN_WINDOW_STARTS = (
    (Fraction(1), Fraction(0)),
    (Fraction(-3, 7), Fraction(5, 11)),
    (Fraction(0), Fraction(0)),
    (Fraction(1, 2**400), Fraction(0)),  # y leaves the window: the guard trips
    (Fraction(2**400), Fraction(1)),  # on the window's edge
)
OUT_OF_WINDOW_STARTS = (
    (Fraction(2**450), Fraction(-3 * 2**449)),
    (Fraction(1, 2**450), Fraction(-1, 3 * 2**440)),
    (Fraction(2**1100), Fraction(-3 * 2**1100)),
    (Fraction(1, 2**1100), Fraction(-3, 2**1100)),
    (Fraction(1), Fraction(2**1100)),
)


@pytest.mark.parametrize("p", (10, 24, 53))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_step_bit_identical_to_emulator(scheme, p):
    cfg, dt, t = PrecisionConfig(p), Fraction("0.03"), Fraction(1, 3)
    for a, b in PAIRS:
        params = OscillatorParams(Fraction(a), Fraction(b))
        for x, y in IN_WINDOW_STARTS + OUT_OF_WINDOW_STARTS:
            got = step(scheme, params, State(x, y, t), dt, cfg)
            assert got == emulated(step, scheme, params, State(x, y, t), dt, cfg), (a, b, x, y)
            assert got.t == t + dt


def test_step_backend_follows_start_window(monkeypatch):
    # an in-window start steps natively, any other start on the emulator
    calls = []

    def counted(st, c, p, k):
        calls.extend([st] * k)
        return schemes._rk3_fused(st, c, p, k)

    monkeypatch.setattr(schemes, "_FUSED_FN", {Scheme.RK3: counted})

    def emulator_steps(x, y):
        calls.clear()
        step(Scheme.RK3, OscillatorParams(), State(x, y, 0), Fraction("0.03"), PrecisionConfig(24))
        return len(calls)

    assert [emulator_steps(x, y) for x, y in IN_WINDOW_STARTS] == [0, 0, 0, 1, 0]
    assert [emulator_steps(x, y) for x, y in OUT_OF_WINDOW_STARTS] == [1] * len(OUT_OF_WINDOW_STARTS)


def test_one_window_for_starts_and_steps():
    # the start check on raw pairs and the per-step guard on floats agree,
    # both ends included
    after_top = math.nextafter(2.0**400, math.inf)
    for v, inside in ((2.0**400, True), (-(2.0**400), True), (2.0**-400, True), (-(2.0**-400), True),
                      (after_top, False), (-after_top, False), (2.0**-401, False), (0.0, True)):
        assert schemes._raw_in_window(_float_to_raw(v, 53), schemes._STATE_EXP) is inside, v
        assert schemes._in_window(v) is inside, v


def veltkamp(v, p):
    """The rounding every native kernel inlines after each float operation."""
    C = _split_factor(p)
    u = v * C
    return u - (u - v)


class TestVeltkamp:
    def test_matches_round_raw(self):
        rng = random.Random(20240501)
        for i in range(30000):
            p = rng.randint(2, 25)
            if i % 3 == 0:  # an exact tie: a p-bit significand plus half an ulp
                m = ((rng.getrandbits(p - 1) | (1 << (p - 1))) << 1) | 1
            else:
                m = rng.getrandbits(53) | (1 << 52)
            v = math.ldexp(rng.choice((1, -1)) * m, rng.randint(-300, 300) - m.bit_length())
            num, den = v.as_integer_ratio()
            want = _round_raw(num, 1 - den.bit_length(), p)
            assert veltkamp(v, p) == math.ldexp(*want), (v, p)

    def test_identity_at_53_bits(self):
        rng = random.Random(7)
        for _ in range(1000):
            v = math.ldexp(rng.random() - 0.5, rng.randint(-300, 300))
            assert veltkamp(v, 53) == v


class TestGuardAndHandOff:
    ONE = OscillatorParams(Fraction(1), Fraction(1))

    @pytest.mark.parametrize("p", (24, 53))
    def test_euler_overflow(self, p):
        traj = assert_same_as_emulator(
            Scheme.FORWARD_EULER, self.ONE, 3, 2100, PrecisionConfig(p), SamplingPlan.every(10)
        )
        x = traj.final_state.x
        assert x.numerator.bit_length() - x.denominator.bit_length() > 1100  # far beyond binary64

    @pytest.mark.parametrize("p", (24, 53))
    def test_rk3_underflow(self, p):
        dt = Fraction("1.2")
        traj = assert_same_as_emulator(
            Scheme.RK3, self.ONE, dt, 16000 * dt, PrecisionConfig(p), SamplingPlan.every(500)
        )
        s = traj.final_state
        scale = max(abs(s.x), abs(s.y))
        assert scale.denominator.bit_length() - scale.numerator.bit_length() > 1050

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_out_of_range_constants(self, scheme):
        params = OscillatorParams(Fraction(1, 2**300), Fraction(2**290))
        c = schemes._consts(scheme, params, Fraction("0.01"), 24)
        assert schemes._native_kernel(scheme, 24, schemes._ONE_ZERO, c) is None
        assert_same_as_emulator(
            scheme, params, Fraction("0.01"), 1, PrecisionConfig(24), SamplingPlan.every(9)
        )

    # each scheme's Python twin and its compiled binary64 kernel
    @pytest.mark.parametrize("scheme, backend", [
        *(pytest.param(scheme, "python", id=fn.__name__) for scheme, fn in schemes._NATIVE_FN.items()),
        *(pytest.param(scheme, "compiled", id=f"rt_binary64-{scheme.value}") for scheme in Scheme),
    ])
    @pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
    def test_nonfinite_state_trips(self, request, scheme, backend, bad):
        if backend == "python":
            kernel = schemes._NATIVE_FN[scheme]
        else:
            kernel = functools.partial(request.getfixturevalue("compiled").binary64, scheme.value)
        n_consts = len(schemes._consts(scheme, OscillatorParams(), Fraction("0.01"), 24)) // 2
        out = array("d")
        done, steps, last = kernel((bad, 0.5), (0.25,) * n_consts, _split_factor(24), array("q", [5]), out)
        assert (done, steps, len(out)) == (0, 0, 0)
        assert array("d", last).tobytes() == array("d", (bad, 0.5)).tobytes()  # unchanged, NaN included

    def test_hand_off_keeps_significands_narrow(self):
        # An integral float's as_integer_ratio() numerator is as wide as its
        # magnitude; fed to the raw kernels unrounded, _add_raw's far-operand
        # sticky path drops a non-negligible operand.
        p = 24
        v = math.ldexp((1 << 23) + 5, 400 - 23)
        m, e = _float_to_raw(v, p)
        assert abs(m).bit_length() <= p and math.ldexp(m, e) == v
        assert (m, e) == _fraction_to_raw(Fraction(v), p)
        w = math.ldexp(3, 380)  # 2**-20 of v: far above half an ulp
        wm, we = _float_to_raw(w, p)
        exact = _round_raw(int(Fraction(v) + Fraction(w)), 0, p)
        assert _add_raw(m, e, wm, we, p) == exact
        num, _ = v.as_integer_ratio()
        assert _add_raw(num, 0, wm, we, p) != exact  # the contract breach this avoids

    def test_tiny_float_hand_off(self):
        for p in (2, 24, 53):
            v = -math.ldexp(3, -420)
            m, e = _float_to_raw(v, p)
            assert abs(m).bit_length() <= p and math.ldexp(m, e) == v


class CompiledKernels:
    """A scheme's compiled kernels against the emulator and the Python
    kernels; one subclass per scheme.  At p = 40 and 113 the midpoint
    scheme's integer kernel has only the emulator to agree with, and the
    other schemes are emulated."""

    S: Scheme

    def native(self, p):
        """Whether a channel of the scheme at p bits has a compiled kernel."""
        return starts_compiled(self.S, OscillatorParams(), Fraction("0.03"), p)

    @pytest.mark.parametrize("sampling", SAMPLINGS)
    @pytest.mark.parametrize("p", COMPILED_PS)
    def test_bit_identical(self, compiled, p, sampling):
        for a, b in PAIRS:
            params = OscillatorParams(Fraction(a), Fraction(b))
            args = (self.S, params, Fraction("0.03"), Fraction("4.5"), PrecisionConfig(p), SAMPLINGS[sampling])
            got = integrate(*args).samples
            assert got == emulated(integrate, *args).samples, (a, b)
            assert got == python_kernels(integrate, *args).samples, (a, b)

    @pytest.mark.parametrize("p", COMPILED_PS)
    def test_step_bit_identical(self, compiled, p):
        cfg, dt, t = PrecisionConfig(p), Fraction("0.03"), Fraction(1, 3)
        for a, b in PAIRS:
            params = OscillatorParams(Fraction(a), Fraction(b))
            for x, y in IN_WINDOW_STARTS + OUT_OF_WINDOW_STARTS:
                got = step(self.S, params, State(x, y, t), dt, cfg)
                assert got == emulated(step, self.S, params, State(x, y, t), dt, cfg), (a, b, x, y)
                assert got == python_kernels(step, self.S, params, State(x, y, t), dt, cfg), (a, b, x, y)

    # Starts whose orbit leaves the state window about a quarter period
    # (370 steps) in: y's amplitude is sqrt(b/a) = 5.66 times x's, so from
    # x = 2**398 it passes 2**400; with a and b swapped, x falls from
    # 2**-395 and crosses zero in steps of about 2**-403.
    HAND_OFFS = (
        (("0.025", "0.8"), Fraction(2**398), Fraction(0)),
        (("0.8", "0.025"), Fraction(1, 2**395), Fraction(1, 2**397)),
    )
    # sparse samples, and every step: the guard trips inside a recorded stretch
    HAND_OFF_SAMPLES = ((0, 1, 7, 40, 200, 300, 350, 400, 600), tuple(range(601)))

    @pytest.mark.parametrize("p", (10, 24, 40, 53, 113))  # p=2 distorts the orbits too much
    def test_guard_trips_mid_run_and_hands_off(self, compiled, monkeypatch, p):
        emulator_steps = []
        fused = schemes._FUSED_FN[self.S]

        def counted(st, c, q, k):
            emulator_steps.append(k)
            return fused(st, c, q, k)

        for wanted in self.HAND_OFF_SAMPLES:
            for (a, b), x0, y0 in self.HAND_OFFS:
                params = OscillatorParams(Fraction(a), Fraction(b))
                args = (self.S, params, Fraction("0.03"), PrecisionConfig(p), x0, y0, wanted)
                emulator_steps.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(schemes, "_FUSED_FN", {self.S: counted})
                    got = schemes._channel(*args)
                # both backends stepped, where the scheme has a compiled kernel at p
                assert (0 < sum(emulator_steps) < wanted[-1]) is self.native(p), (a, b)
                assert got == emulated(schemes._channel, *args), (a, b)
                if channel_backend(p) == BINARY64:
                    assert got == python_kernels(schemes._channel, *args), (a, b)

    @pytest.mark.parametrize("p", (24, 113))
    def test_out_of_range_constants(self, compiled, monkeypatch, p):
        def forbidden(*args):
            raise AssertionError("compiled kernel called")

        monkeypatch.setattr(type(compiled), "binary64", forbidden)
        monkeypatch.setattr(type(compiled), "midpoint_int", forbidden)
        params = OscillatorParams(Fraction(1, 2**300), Fraction(2**290))
        assert_same_as_emulator(
            self.S, params, Fraction("0.01"), 1, PrecisionConfig(p), SamplingPlan.every(9)
        )

    def test_native_paths_skip_emulator(self, compiled, monkeypatch):
        def forbidden(st, c, p, k):
            raise AssertionError("emulator kernel called")

        monkeypatch.setattr(schemes, "_FUSED_FN", dict.fromkeys(Scheme, forbidden))
        args = (self.S, OscillatorParams(), Fraction("0.01"), 1)
        # final-only and every step: one call through the plan
        for sampling in (SamplingPlan.final_only(), SamplingPlan.every(1)):
            for p in filter(self.native, COMPILED_PS):
                integrate(*args, PrecisionConfig(p), sampling)
            for p in NATIVE_PS:
                python_kernels(integrate, *args, PrecisionConfig(p), sampling)
        with pytest.raises(AssertionError, match="emulator kernel"):
            python_kernels(integrate, *args, PrecisionConfig(113))

    @pytest.mark.parametrize("p", (10, 24, 30, 40, 53, 113))
    def test_one_choice(self, compiled, monkeypatch, p):
        # _native_kernel's compiled flag says whether the channel calls a
        # Kernels method, and starts_compiled returns it for the start (1, 0):
        # so the manifest's compiled_kernels and the sweep's pool decision
        # read the channel's own choice
        calls = []
        for method in ("binary64", "midpoint_int"):
            right = getattr(type(compiled), method)
            monkeypatch.setattr(type(compiled), method, lambda *args, right=right: calls.append(args) or right(*args))
        dt, one, zero = Fraction("0.01"), Fraction(1), Fraction(0)
        usual, far = OscillatorParams(), OscillatorParams(Fraction(1, 2**300), Fraction(2**290))
        covered = channel_backend(p) == BINARY64 or self.S is Scheme.MIDPOINT_IMPLICIT
        # a start inside the state window, one outside it, constants outside theirs
        for params, (x0, y0), want in ((usual, (one, zero), covered), (usual, OUT_OF_WINDOW_STARTS[0], False),
                                       (far, (one, zero), False)):
            st = (*_fraction_to_raw(x0, p), *_fraction_to_raw(y0, p))
            kernel = schemes._native_kernel(self.S, p, st, schemes._consts(self.S, params, dt, p))
            calls.clear()
            schemes._channel(self.S, params, dt, PrecisionConfig(p), x0, y0, (0, 3, 10))
            assert (kernel is not None and kernel[2]) is want, (params, x0)
            assert bool(calls) is want, (params, x0)
            if (x0, y0) == (one, zero):
                assert starts_compiled(self.S, params, dt, p) is want, params

    def wrong_kernels(self, compiled):
        """(attribute of Kernels, a wrong version of it) pairs: the scheme's
        binary64 kernel one step ahead at every sample, and recording
        nothing; and residual keys that drop the low words of the
        coefficients."""
        right, name = type(compiled).binary64, self.S.value
        right_keys = type(compiled).residual_keys

        def off_by_one_step(kernels, scheme, xy, c, C, plan, out):
            if scheme == name:
                plan = array("q", (k + 1 for k in plan))
            return right(kernels, scheme, xy, c, C, plan, out)

        def records_nothing(kernels, scheme, xy, c, C, plan, out):
            return right(kernels, scheme, xy, c, C, plan, array("d") if scheme == name else out)

        def drops_lo(kernels, xy, m, keys):
            return right_keys(kernels, xy, [v if k % 2 == 0 else 0.0 for k, v in enumerate(m)], keys)

        return [("binary64", off_by_one_step), ("binary64", records_nothing), ("residual_keys", drops_lo)]

    def test_known_answers_refuse_a_wrong_kernel(self, compiled, monkeypatch):
        assert schemes._known_answers(compiled)
        for name, wrong in self.wrong_kernels(compiled):
            with monkeypatch.context() as mp:
                mp.setattr(type(compiled), name, wrong)
                assert not schemes._known_answers(compiled), (name, wrong)


class TestCompiledEuler(CompiledKernels):
    S = Scheme.FORWARD_EULER


class TestCompiledMidpoint(CompiledKernels):
    S = Scheme.MIDPOINT_IMPLICIT

    def wrong_kernels(self, compiled):
        right = type(compiled).midpoint_int

        def off_by_one_step(kernels, p, st, c, plan, out):
            return right(kernels, p, st, c, array("q", (k + 1 for k in plan)), out)

        def rounds_at_113_bits(kernels, p, st, c, plan, out):
            return right(kernels, 113, st, c, plan, out)

        return [*super().wrong_kernels(compiled), ("midpoint_int", off_by_one_step),
                ("midpoint_int", rounds_at_113_bits)]


class TestCompiledRK3(CompiledKernels):
    S = Scheme.RK3

    def wrong_kernels(self, compiled):
        # a name-to-number map that sends RK3 to rt_binary64's Euler: Euler
        # reads RK3's first three constants, which are its own
        numbers = type(compiled).SCHEMES
        return [*super().wrong_kernels(compiled), ("SCHEMES", {**numbers, "rk3": numbers["euler"]})]


def _data_columns(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, col in enumerate(rows[0]) if col != "wall_time_s"]
    return [[row[i] for i in keep] for row in rows]


@pytest.mark.parametrize("argv, name", [
    (["sweep", "--t-end", "3", "--dt-list", "1e-1,3e-2,1e-2", "--jobs", "1"], "sweep.csv"),
    (["longrun", "--dt", "1e-2", "--t-end", "5", "--samples", "40", "--p-run", "10"], "timeseries.csv"),
    (["diagnose", "residual", "--scheme", "rk3", "--dt", "1e-2", "--t-end", "1"], "diagnostics.csv"),
])
def test_cli_outputs_identical_under_both_backends(tmp_path, argv, name):
    native, emu, python = tmp_path / "native", tmp_path / "emulated", tmp_path / "python"
    assert main([*argv, "--out-dir", str(native)]) == 0
    assert emulated(main, [*argv, "--out-dir", str(emu)]) == 0
    assert python_kernels(main, [*argv, "--out-dir", str(python)]) == 0
    assert _data_columns(native / name) == _data_columns(emu / name)
    assert _data_columns(native / name) == _data_columns(python / name)


# ---------------------------------------------------------------------------
# The plan convention: a native kernel follows a channel's whole sampling
# plan in one call, and agrees with the emulator at every sampled step
# ---------------------------------------------------------------------------

PLAN_STEPS = 60
PLANS = {
    "final-only": (PLAN_STEPS,),
    "every-step": tuple(range(PLAN_STEPS + 1)),
    "stride-2": tuple(range(0, PLAN_STEPS + 1, 2)),
    "log-spaced": tuple(sorted({round(PLAN_STEPS ** (i / 12)) for i in range(13)})),
    "step-1": (1,),
}
PLAN_KERNELS = [*((scheme, p) for scheme in Scheme for p in (10, 24, 53)),
                (Scheme.MIDPOINT_IMPLICIT, 40), (Scheme.MIDPOINT_IMPLICIT, 113)]


def emulator_plan(scheme, st, c, p, plan):
    """The values of the raw states at the plan's steps, by the emulator."""
    out, i = [], 0
    for k in plan:
        st, i = schemes._FUSED_FN[scheme](st, c, p, k - i), k
        out += st
    return schemes._raw_values(out)


def plan_runs(compiled, scheme, p, st, c, plan):
    """{kernel: (samples done, steps done, values of the sampled states,
    values of the last state)} for each native kernel of the scheme at p
    bits, from the raw start st through the plan in one call."""
    plan = array("q", plan)
    if channel_backend(p) != BINARY64:
        out = []
        done, steps, last = compiled.midpoint_int(p, st, c, plan, out)
        return {"integer": (done, steps, schemes._raw_values(out), schemes._raw_values(last))}
    args = _native_floats(st), _native_floats(c), _split_factor(p), plan
    runs = {}
    for name, kernel in (("compiled", functools.partial(compiled.binary64, scheme.value)),
                         ("python", schemes._NATIVE_FN[scheme])):
        out = array("d")
        done, steps, last = kernel(*args, out)
        runs[name] = done, steps, [Fraction(v) for v in out], [Fraction(v) for v in last]
    return runs


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("scheme, p", PLAN_KERNELS)
def test_plan_bit_identical(compiled, scheme, p, plan):
    steps = PLANS[plan]
    for a, b in PAIRS:
        c = schemes._consts(scheme, OscillatorParams(Fraction(a), Fraction(b)), Fraction("0.03"), p)
        want = emulator_plan(scheme, schemes._ONE_ZERO, c, p, steps)
        for kernel, got in plan_runs(compiled, scheme, p, schemes._ONE_ZERO, c, steps).items():
            assert got == (len(steps), steps[-1], want, want[-2:]), (kernel, a, b)


@pytest.mark.parametrize("scheme, p", PLAN_KERNELS)
def test_plan_guard_trip_inside_a_gap(compiled, scheme, p):
    # the kernel stops at the exact step before the first state outside the
    # window, with the samples before it recorded and j the first one not
    for (a, b), x0, y0 in CompiledKernels.HAND_OFFS:
        c = schemes._consts(scheme, OscillatorParams(Fraction(a), Fraction(b)), Fraction("0.03"), p)
        st = start = (*_fraction_to_raw(x0, p), *_fraction_to_raw(y0, p))
        trip = 0
        while schemes._raw_in_window(nxt := schemes._FUSED_FN[scheme](st, c, p, 1), schemes._STATE_EXP):
            st, trip = nxt, trip + 1
        assert 60 < trip < 2000, (a, b)
        steps = (0, 1, 7, 40, trip - 20, trip + 30, trip + 100)  # the trip falls in the gap after trip - 20
        want = emulator_plan(scheme, start, c, p, steps[:5])
        for kernel, got in plan_runs(compiled, scheme, p, start, c, steps).items():
            assert got == (5, trip, want, schemes._raw_values(st)), (kernel, a, b)


@pytest.mark.parametrize("scheme, p", PLAN_KERNELS)
def test_plan_cut_beyond_max_index(compiled, monkeypatch, scheme, p):
    # indices past _compiled._MAX_K leave the native plan; the emulator
    # steps from the last index in it to the end
    monkeypatch.setattr(_compiled, "_MAX_K", 25)
    wanted = (0, 1, 2, 5, 25, 30, 40, 60)
    plans, emulator_steps = [], []
    native, fused = schemes._native_kernel, schemes._FUSED_FN[scheme]

    def recorded(*args):
        kernel = native(*args)
        if kernel is None:  # an emulated channel
            return None
        form, run, flag = kernel
        return form, lambda plan, out: plans.append(tuple(plan)) or run(plan, out), flag

    def counted(st, c, q, k):
        emulator_steps.append(k)
        return fused(st, c, q, k)

    monkeypatch.setattr(schemes, "_native_kernel", recorded)
    monkeypatch.setattr(schemes, "_FUSED_FN", {scheme: counted})
    args = (scheme, OscillatorParams(), Fraction("0.03"), PrecisionConfig(p), Fraction(1), Fraction(0), wanted)
    for channel in (schemes._channel, functools.partial(python_kernels, schemes._channel)):
        if channel_backend(p) != BINARY64 and channel is not schemes._channel:
            continue  # the integer kernel has no Python twin
        plans.clear()
        emulator_steps.clear()
        got = channel(*args)
        assert plans == [wanted[:5]] and emulator_steps == [5, 10, 20]
        assert got == emulated(schemes._channel, *args)
