"""The native backends against the emulator, which stays the oracle: every
native trajectory must equal the emulated one bit for bit, including runs
that leave the guarded range and hand off to the emulator.  The native
kernels are the Python binary64 kernels and, for the midpoint scheme, the
compiled binary64 and binary128 kernels, which must also equal the Python
kernels."""

import csv
import math
import random
from fractions import Fraction

import pytest

from roundtrap import schemes
from roundtrap.cli import main
from roundtrap.fpcore import PrecisionConfig, _add_raw, _float_to_raw, _fraction_to_raw, _round_raw
from roundtrap.oscillator import OscillatorParams, State
from roundtrap.schemes import (
    BINARY64,
    EMULATED,
    SamplingPlan,
    Scheme,
    _CONST_EXP,
    _native_floats,
    _split_factor,
    channel_backend,
    integrate,
    step,
)

# the benchmark's seed table, plus a pair with coefficients above one
PAIRS = (
    ("0.1", "0.2"), ("0.2", "0.1"), ("0.05", "0.4"), ("0.4", "0.05"),
    ("0.025", "0.8"), ("0.8", "0.025"), ("3", "7"),
)
NATIVE_PS = (2, 10, 24, 25, 53)
COMPILED_PS = (*NATIVE_PS, 113)
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
)
OUT_OF_WINDOW_STARTS = (
    (Fraction(2**400), Fraction(1)),
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

    assert [emulator_steps(x, y) for x, y in IN_WINDOW_STARTS] == [0, 0, 0, 1]
    assert [emulator_steps(x, y) for x, y in OUT_OF_WINDOW_STARTS] == [1] * len(OUT_OF_WINDOW_STARTS)


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
        assert _native_floats(schemes._consts(scheme, params, Fraction("0.01"), 24), _CONST_EXP) is None
        assert_same_as_emulator(
            scheme, params, Fraction("0.01"), 1, PrecisionConfig(24), SamplingPlan.every(9)
        )

    @pytest.mark.parametrize("kernel", list(schemes._NATIVE_FN.values()))
    @pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
    def test_nonfinite_state_trips(self, kernel, bad):
        n_consts = {schemes._euler_native: 3, schemes._midpoint_native: 4, schemes._rk3_native: 6}[kernel]
        done, x, y = kernel(bad, 0.5, 5, (0.25,) * n_consts, _split_factor(24))
        assert done == 0 and y == 0.5

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


class TestCompiledMidpoint:
    """The compiled midpoint kernels against the emulator and the Python
    kernels.  At p = 113 the emulator is the only other path."""

    M = Scheme.MIDPOINT_IMPLICIT

    @pytest.mark.parametrize("sampling", SAMPLINGS)
    @pytest.mark.parametrize("p", COMPILED_PS)
    def test_bit_identical(self, compiled, p, sampling):
        for a, b in PAIRS:
            params = OscillatorParams(Fraction(a), Fraction(b))
            args = (self.M, params, Fraction("0.03"), Fraction("4.5"), PrecisionConfig(p), SAMPLINGS[sampling])
            got = integrate(*args).samples
            assert got == emulated(integrate, *args).samples, (a, b)
            assert got == python_kernels(integrate, *args).samples, (a, b)

    @pytest.mark.parametrize("p", COMPILED_PS)
    def test_step_bit_identical(self, compiled, p):
        cfg, dt, t = PrecisionConfig(p), Fraction("0.03"), Fraction(1, 3)
        for a, b in PAIRS:
            params = OscillatorParams(Fraction(a), Fraction(b))
            for x, y in IN_WINDOW_STARTS + OUT_OF_WINDOW_STARTS:
                got = step(self.M, params, State(x, y, t), dt, cfg)
                assert got == emulated(step, self.M, params, State(x, y, t), dt, cfg), (a, b, x, y)
                assert got == python_kernels(step, self.M, params, State(x, y, t), dt, cfg), (a, b, x, y)

    # Starts whose orbit leaves the state window about a quarter period
    # (370 steps) in: y's amplitude is sqrt(b/a) = 5.66 times x's, so from
    # x = 2**398 it passes 2**400; with a and b swapped, x falls from
    # 2**-395 and crosses zero in steps of about 2**-403.
    HAND_OFFS = (
        (("0.025", "0.8"), Fraction(2**398), Fraction(0)),
        (("0.8", "0.025"), Fraction(1, 2**395), Fraction(1, 2**397)),
    )

    @pytest.mark.parametrize("p", (10, 24, 53, 113))  # p=2 distorts the orbits too much
    def test_guard_trips_mid_run_and_hands_off(self, compiled, monkeypatch, p):
        emulator_steps = []

        def counted(st, c, q, k):
            emulator_steps.append(k)
            return schemes._midpoint_fused(st, c, q, k)

        wanted = (0, 1, 7, 40, 200, 300, 350, 400, 600)
        for (a, b), x0, y0 in self.HAND_OFFS:
            params = OscillatorParams(Fraction(a), Fraction(b))
            args = (self.M, params, Fraction("0.03"), PrecisionConfig(p), x0, y0, wanted)
            emulator_steps.clear()
            with monkeypatch.context() as mp:
                mp.setattr(schemes, "_FUSED_FN", {self.M: counted})
                got = schemes._channel(*args)
            assert 0 < sum(emulator_steps) < wanted[-1], (a, b)  # both backends stepped
            assert got == emulated(schemes._channel, *args), (a, b)
            if p != 113:
                assert got == python_kernels(schemes._channel, *args), (a, b)

    @pytest.mark.parametrize("p", (24, 113))
    def test_out_of_range_constants(self, compiled, monkeypatch, p):
        def forbidden(*args):
            raise AssertionError("compiled kernel called")

        monkeypatch.setattr(type(compiled), "midpoint_b64", forbidden)
        monkeypatch.setattr(type(compiled), "midpoint_b128", forbidden)
        params = OscillatorParams(Fraction(1, 2**300), Fraction(2**290))
        assert_same_as_emulator(
            self.M, params, Fraction("0.01"), 1, PrecisionConfig(p), SamplingPlan.every(9)
        )

    def test_native_paths_skip_emulator(self, compiled, monkeypatch):
        def forbidden(st, c, p, k):
            raise AssertionError("emulator kernel called")

        monkeypatch.setattr(schemes, "_FUSED_FN", dict.fromkeys(Scheme, forbidden))
        args = (self.M, OscillatorParams(), Fraction("0.01"), 1)
        for p in COMPILED_PS:
            integrate(*args, PrecisionConfig(p))
        for p in NATIVE_PS:
            python_kernels(integrate, *args, PrecisionConfig(p))
        with pytest.raises(AssertionError, match="emulator kernel"):
            python_kernels(integrate, *args, PrecisionConfig(113))

    def test_known_answers_refuse_a_wrong_kernel(self, compiled, monkeypatch):
        right = type(compiled).midpoint_b128

        def off_by_one_step(self, st, c):
            advance = right(self, st, c)
            return lambda k: advance(k + 1)

        assert schemes._known_answers(compiled)
        monkeypatch.setattr(type(compiled), "midpoint_b128", off_by_one_step)
        assert not schemes._known_answers(compiled)


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
