"""The contract of the 13 immutable records: construction with defaults and
checks, no assignment or deletion, equality and hash by class and field
values, the repr a frozen dataclass printed, and pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from roundtrap.analysis import BoundMode, ErrorBoundModel, ErrorTriple, ErrorVec, SpectralInfo, error_separation
from roundtrap.experiments import (
    DESK_DT_LIST,
    DESK_MAX_STEPS,
    STATUS_OK,
    STATUS_SKIPPED_GUARD,
    SweepConfig,
    SweepRecord,
    TimeSeriesRecord,
)
from roundtrap.fpcore import QUAD, SINGLE, ParameterError, PrecisionConfig, RValue
from roundtrap.oscillator import OscillatorParams, State
from roundtrap.schemes import SamplingPlan, Scheme, Trajectory, UpdateMatrix, integrate

T = Fraction(3)
EULER_RUN = integrate(Scheme.FORWARD_EULER, OscillatorParams(), Fraction(1, 4), Fraction(1, 2),
                      PrecisionConfig(10), SamplingPlan.every(1))
TRIPLE = error_separation(State(Fraction(5, 4), Fraction(-3, 8), T), State(Fraction(1), Fraction(1, 8), T),
                          State(Fraction(1), Fraction(0), T))

# (class, positional arguments, the repr that the frozen dataclass printed
# for them); the reprs were recorded from the dataclass implementation
CASES = {
    "PrecisionConfig": (PrecisionConfig, (24,), "PrecisionConfig(significand_bits=24)"),
    "RValue": (RValue, (3, -5), "RValue(significand=3, exponent=-5)"),
    "OscillatorParams": (
        OscillatorParams, ("0.4", 0.05),
        "OscillatorParams(a=Fraction(2, 5), b=Fraction(3602879701896397, 72057594037927936))"),
    "State": (State, (1, Fraction(1, 3), "0.5"), "State(x=Fraction(1, 1), y=Fraction(1, 3), t=Fraction(1, 2))"),
    "SamplingPlan.stride": (SamplingPlan, (3, None), "SamplingPlan(stride=3, at_steps=None)"),
    "SamplingPlan.at": (SamplingPlan, (None, (5, 1, 5)), "SamplingPlan(stride=None, at_steps=(1, 5))"),
    "Trajectory": (
        Trajectory, (EULER_RUN.params, EULER_RUN.scheme, EULER_RUN.dt, EULER_RUN.precision, EULER_RUN.n_steps,
                     EULER_RUN.record),
        "Trajectory(params=OscillatorParams(a=Fraction(1, 10), b=Fraction(1, 5)), "
        "scheme=<Scheme.FORWARD_EULER: 'euler'>, dt=Fraction(1, 4), precision=PrecisionConfig(significand_bits=10), "
        "n_steps=2, record=_Record(steps=3, form='float'))"),
    "UpdateMatrix": (
        UpdateMatrix, (((Fraction(1), Fraction(-1, 4)), (Fraction(1, 8), Fraction(1))),),
        "UpdateMatrix(entries=((Fraction(1, 1), Fraction(-1, 4)), (Fraction(1, 8), Fraction(1, 1))))"),
    "ErrorTriple": (
        ErrorTriple, (TRIPLE.total, TRIPLE.truncation, TRIPLE.roundoff, TRIPLE.t),
        "ErrorTriple(total=ErrorVec(x=Fraction(1, 4), y=Fraction(-3, 8), "
        "norm=Fraction(796307210995188666575671501970372616193920515099996415092451822255241711, "
        "1766847064778384329583297500742918515827483896875618958121606201292619776)), "
        "truncation=ErrorVec(x=Fraction(0, 1), y=Fraction(1, 8), norm=Fraction(1, 8)), "
        "roundoff=ErrorVec(x=Fraction(1, 4), y=Fraction(-1, 2), "
        "norm=Fraction(987697535672610439821713400627858065178957356166726927971361380515768417, "
        "1766847064778384329583297500742918515827483896875618958121606201292619776)), t=Fraction(3, 1))"),
    "ErrorBoundModel": (
        ErrorBoundModel, (BoundMode.RANDOM_WALK, "1e-7"),
        "ErrorBoundModel(mode=<BoundMode.RANDOM_WALK: 'random_walk'>, per_step_eps=Fraction(1, 10000000))"),
    "SpectralInfo": (
        SpectralInfo, (Fraction(9, 8), (Fraction(3, 2), Fraction(3, 4))),
        "SpectralInfo(det=Fraction(9, 8), eigenvalue_moduli=(Fraction(3, 2), Fraction(3, 4)))"),
    "SweepConfig": (
        SweepConfig, (Scheme.RK3, OscillatorParams(), 3, ("1e-1", Fraction(1, 100)), PrecisionConfig(30), QUAD, 10**6),
        "SweepConfig(scheme=<Scheme.RK3: 'rk3'>, params=OscillatorParams(a=Fraction(1, 10), b=Fraction(1, 5)), "
        "t_end=Fraction(3, 1), dt_list=(Fraction(1, 10), Fraction(1, 100)), "
        "run_precision=PrecisionConfig(significand_bits=30), ref_precision=PrecisionConfig(significand_bits=113), "
        "max_steps=1000000)"),
    "SweepRecord": (
        SweepRecord, (Fraction(1, 10), 30, Fraction(1), Fraction(2), Fraction(3), 0.25, STATUS_OK),
        "SweepRecord(dt=Fraction(1, 10), n_steps=30, e_total=Fraction(1, 1), e_trunc=Fraction(2, 1), "
        "e_round=Fraction(3, 1), wall_time_s=0.25, status='ok')"),
    "SweepRecord.skipped": (
        SweepRecord, (Fraction(1, 10**6), 3 * 10**6, None, None, None, 0.0, STATUS_SKIPPED_GUARD),
        "SweepRecord(dt=Fraction(1, 1000000), n_steps=3000000, e_total=None, e_trunc=None, e_round=None, "
        "wall_time_s=0.0, status='skipped_guard')"),
    "TimeSeriesRecord": (
        TimeSeriesRecord, (Fraction(1), Fraction(1, 2**30), Fraction(3, 2**20)),
        "TimeSeriesRecord(t=Fraction(1, 1), e_round=Fraction(1, 1073741824), e_trunc=Fraction(3, 1048576))"),
}

# a value of another type for each field, to assign and to compare against
OTHER = object()


def build(name):
    cls, args, _ = CASES[name]
    return cls(*args)


def test_all_thirteen_records():
    assert len({cls for cls, _, _ in CASES.values()}) == 13


@pytest.mark.parametrize("name", CASES)
class TestContract:
    def test_positional_and_keyword(self, name):
        cls, args, _ = CASES[name]
        assert cls(*args) == cls(**dict(zip(cls.__match_args__, args)))

    def test_repr_as_the_dataclass(self, name):
        assert repr(build(name)) == CASES[name][2]

    def test_no_assignment_or_deletion(self, name):
        record = build(name)
        before = repr(record)
        for field in (*type(record).__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(record, field, OTHER)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert repr(record) == before

    def test_eq_and_hash_by_field_values(self, name):
        cls, args, _ = CASES[name]
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        values = tuple(getattr(a, field) for field in cls.__match_args__)
        assert hash(a) == hash(b) == hash(values)  # as the dataclass hashed
        assert a.__eq__(values) is NotImplemented and a != values
        for field in cls.__match_args__:  # a copy with one field changed
            changed = copy.copy(a)
            getattr(cls, field).__set__(changed, OTHER)
            assert changed != a and a != changed

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, name, protocol):
        record = build(name)
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record and repr(back) == repr(record)
        assert hash(back) == hash(record)
        with pytest.raises(AttributeError):
            back.other = OTHER


def test_eq_goes_by_class():
    # the same three Fractions in two record classes
    values = (Fraction(1), Fraction(2), Fraction(3))
    assert State(*values) != TimeSeriesRecord(*values)
    assert State(*values).__eq__(TimeSeriesRecord(*values)) is NotImplemented
    assert hash(State(*values)) == hash(TimeSeriesRecord(*values))  # as with the dataclasses


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_runs_no_checks(monkeypatch, protocol):
    data = [pickle.dumps(build(name), protocol) for name in CASES]

    def refuse(self, *args, **kwargs):
        raise AssertionError("__init__ ran")

    for cls, _, _ in CASES.values():
        monkeypatch.setattr(cls, "__init__", refuse)
    for name, blob in zip(CASES, data):
        assert repr(pickle.loads(blob)) == CASES[name][2]


def test_defaults():
    assert OscillatorParams() == OscillatorParams(Fraction(1, 10), Fraction(1, 5))
    assert OscillatorParams(b=3) == OscillatorParams(Fraction(1, 10), Fraction(3))
    assert SamplingPlan(stride=2).at_steps is None
    assert SamplingPlan(at_steps=[4, 2]).stride is None
    assert SweepRecord(Fraction(1), 1, None, None, None, 0.0).status == STATUS_OK
    cfg = SweepConfig()
    assert (cfg.scheme, cfg.params, cfg.t_end, cfg.dt_list, cfg.run_precision, cfg.ref_precision, cfg.max_steps) == (
        Scheme.MIDPOINT_IMPLICIT, OscillatorParams(), Fraction(100), DESK_DT_LIST, SINGLE, QUAD, DESK_MAX_STEPS)
    assert SweepConfig(dt_list=("1e-1",)).dt_list == (Fraction(1, 10),)


def test_conversions():
    params = OscillatorParams("0.1", 2)
    assert type(params.a) is type(params.b) is Fraction and params == OscillatorParams(Fraction(1, 10), Fraction(2))
    state = State(1, 0.5, "3")
    assert all(type(v) is Fraction for v in (state.x, state.y, state.t))
    assert state == State(Fraction(1), Fraction(1, 2), Fraction(3))
    assert SamplingPlan(at_steps=[5, 1, 5, 3]).at_steps == (1, 3, 5)
    assert ErrorBoundModel(BoundMode.WORST_CASE, 0.5).per_step_eps == Fraction(1, 2)
    cfg = SweepConfig(t_end=2, dt_list=["0.5", 0.25])
    assert cfg.t_end == Fraction(2) and cfg.dt_list == (Fraction(1, 2), Fraction(1, 4))
    assert all(type(v) is Fraction for v in (cfg.t_end, *cfg.dt_list))


@pytest.mark.parametrize("build_bad, error", [
    (lambda: PrecisionConfig(24.0), TypeError),
    (lambda: PrecisionConfig("24"), TypeError),
    (lambda: PrecisionConfig(1), ParameterError),
    (lambda: PrecisionConfig(114), ParameterError),
    (lambda: OscillatorParams(0, 1), ParameterError),
    (lambda: OscillatorParams(1, "-0.5"), ParameterError),
    (lambda: SamplingPlan(), ParameterError),
    (lambda: SamplingPlan(stride=1, at_steps=(1,)), ParameterError),
    (lambda: SamplingPlan(stride=0), ParameterError),
    (lambda: ErrorBoundModel(BoundMode.WORST_CASE, 0), ParameterError),
    (lambda: ErrorBoundModel(BoundMode.RANDOM_WALK, "-1e-7"), ParameterError),
    (lambda: SweepConfig(run_precision=QUAD), ParameterError),
    (lambda: SweepConfig(t_end=0), ParameterError),
    (lambda: SweepConfig(dt_list=()), ParameterError),
    (lambda: SweepConfig(dt_list=("1e-1", 0)), ParameterError),
    (lambda: SweepConfig(t_end=Fraction(10**4400), dt_list=(Fraction(1),)), ParameterError),
    (lambda: SweepConfig(max_steps=0), ParameterError),
])
def test_checks(build_bad, error):
    with pytest.raises(error):
        build_bad()


def test_trajectory_samples_stay_out_of_eq_hash_and_repr():
    fresh = build("Trajectory")
    read = build("Trajectory")
    assert len(read.samples) == 3
    assert fresh == read and hash(fresh) == hash(read) and repr(fresh) == repr(read) == CASES["Trajectory"][2]
    assert Trajectory.__match_args__ == Trajectory.__slots__
    assert pickle.loads(pickle.dumps(read)).samples == read.samples


def test_slot_descriptors_set_fields():
    # experiments and analysis build some records through the slots'
    # descriptors, without __init__
    row = object.__new__(TimeSeriesRecord)
    TimeSeriesRecord.t.__set__(row, Fraction(1))
    TimeSeriesRecord.e_round.__set__(row, Fraction(1, 2**30))
    TimeSeriesRecord.e_trunc.__set__(row, Fraction(3, 2**20))
    assert row == build("TimeSeriesRecord") and repr(row) == CASES["TimeSeriesRecord"][2]
    triple = object.__new__(ErrorTriple)
    for field in ErrorTriple.__match_args__:
        getattr(ErrorTriple, field).__set__(triple, getattr(TRIPLE, field))
    assert triple == TRIPLE and isinstance(triple.total, ErrorVec)
