"""The wide layer against its earlier implementations and against a
correctly rounded cosine and sine.

The square-root and norm oracles below are the wide layer as it was
written, first on mpmath's ``mpf`` objects inside ``workprec``, then on
mpmath's raw ``libmp`` kernels.  The implementation on fpcore's kernels
must give the same Fraction, bit for bit, on every input: any difference
would change the CLI's data columns.  The cosine and sine oracle evaluates
mpmath at 1200 + log2|x| bits and rounds once to 240 bits, so it is
correctly rounded; mpmath at 240 bits is not (see ``MISROUNDED_PHASES``).
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, from_man_exp, mpf_cos_sin, mpf_div, mpf_sqrt

from conftest import mpf_to_fraction
from roundtrap import _wide, fpcore, oscillator
from roundtrap.analysis import ErrorTriple, ErrorVec, error_separation
from roundtrap.experiments import TimeSeriesRecord, longtime_run
from roundtrap.fpcore import PrecisionConfig
from roundtrap.oscillator import INITIAL_STATE, OscillatorParams, State, analytic_solution
from roundtrap.schemes import SamplingPlan, Scheme, integrate_pair

# ---------------------------------------------------------------------------
# Oracle: the mpf-object implementation
# ---------------------------------------------------------------------------


def oracle_to_mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def oracle_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise ValueError("square root of a negative value")
    if x == 0:
        return Fraction(0)
    n = math.isqrt(x.numerator)
    d = math.isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    with mpmath.workprec(_wide.WIDE_PREC_BITS):
        return mpf_to_fraction(mpmath.sqrt(oracle_to_mpf(x)))


def oracle_norm2(x: Fraction, y: Fraction) -> Fraction:
    return oracle_sqrt(x * x + y * y)


def oracle_cos_sin(x: Fraction) -> tuple[Fraction, Fraction]:
    """cos and sin of x's wide value, correctly rounded at 240 bits: mpmath
    at 1200 + log2|x| bits, rounded once."""
    m, e = _wide._to_raw(x.numerator, x.denominator)
    prec = 1200 + max(e + abs(m).bit_length(), 0)
    c, s = ((-int(man) if sign else int(man), exp)
            for sign, man, exp, _ in mpf_cos_sin(from_man_exp(m, e), prec, "n"))
    return (fpcore._raw_to_fraction(*fpcore._round_raw(*c, _wide.WIDE_PREC_BITS)),
            fpcore._raw_to_fraction(*fpcore._round_raw(*s, _wide.WIDE_PREC_BITS)))


# ---------------------------------------------------------------------------
# Oracle: the mpmath-raw implementation
# ---------------------------------------------------------------------------


def raw_oracle_fraction(raw: tuple) -> Fraction:
    sign, man, exp, _ = raw
    man = int(man)
    if man == 0:
        return Fraction(0)
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def raw_oracle_to_raw(num: int, den: int) -> tuple:
    zeros = (den & -den).bit_length() - 1
    odd = den >> zeros
    if odd == 1:
        return from_man_exp(num, -zeros, _wide.WIDE_PREC_BITS, "n")
    return mpf_div(from_int(num, _wide.WIDE_PREC_BITS, "n"), from_man_exp(odd, zeros),
                   _wide.WIDE_PREC_BITS, "n")


def raw_oracle_sqrt_ratio(num: int, den: int) -> Fraction:
    return raw_oracle_fraction(mpf_sqrt(raw_oracle_to_raw(num, den), _wide.WIDE_PREC_BITS, "n"))


def raw_oracle_norm2(x: Fraction, y: Fraction) -> Fraction:
    xd, yd = x.denominator, y.denominator
    n = (x.numerator * yd) ** 2 + (y.numerator * xd) ** 2
    r = math.isqrt(n)
    dd = xd * yd
    if r * r == n:
        return Fraction(r, dd)
    d = dd * dd
    if dd & (dd - 1):
        g = math.gcd(n, d)
        n, d = n // g, d // g
    return raw_oracle_sqrt_ratio(n, d)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def random_bits(seed: int, bits: int, sign: int) -> int:
    """A signed integer of exactly ``bits`` bits, every bit below the
    leading one random."""
    return sign * (random.Random(seed).getrandbits(bits) | 1 << (bits - 1))


# Signed integers up to 300 bits.  Hypothesis favours small and boundary
# values such as 2**k and 2**k - 1, which a 240-bit conversion rounds exactly
# or almost exactly; the random-bit integers make conversions really round.
numerators = st.one_of(
    st.integers(-(1 << 300), 1 << 300),
    st.builds(random_bits, st.integers(0, 2**32), st.integers(1, 300), st.sampled_from((1, -1))),
)
dyadic = st.builds(Fraction, numerators, st.integers(0, 600).map(lambda k: 1 << k))
non_dyadic = st.builds(
    Fraction,
    numerators,
    st.one_of(
        st.just(3),
        st.integers(1, 40).map(lambda k: 10**k),
        st.just(7 << 40),
    ),
)
rationals = st.one_of(dyadic, non_dyadic)
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))


@st.composite
def exact_norm_pairs(draw):
    """(x, y, hypot) with hypot rational: a scaled Pythagorean triple over a
    dyadic or non-dyadic denominator, in either order and sign."""
    a, b, c = draw(st.sampled_from(TRIPLES))
    scale = draw(st.integers(1, 1 << 200))
    den = draw(st.one_of(st.integers(0, 600).map(lambda k: 1 << k),
                         st.sampled_from((3, 10**7, 7 << 40))))
    x, y = Fraction(a * scale, den), Fraction(b * scale, den)
    if draw(st.booleans()):
        x, y = y, x
    return draw(st.sampled_from((1, -1))) * x, draw(st.sampled_from((1, -1))) * y, Fraction(c * scale, den)


# ---------------------------------------------------------------------------
# Bit identity
# ---------------------------------------------------------------------------


class TestNorm2:
    @given(x=dyadic, y=dyadic)
    @settings(max_examples=300)
    def test_dyadic(self, x, y):
        assert _wide.wide_norm2(x, y) == oracle_norm2(x, y)

    @given(x=rationals, y=non_dyadic)
    @settings(max_examples=300)
    def test_non_dyadic(self, x, y):
        assert _wide.wide_norm2(x, y) == oracle_norm2(x, y)
        assert _wide.wide_norm2(y, x) == oracle_norm2(y, x)

    @given(xyz=exact_norm_pairs())
    @settings(max_examples=200)
    def test_exact_squares(self, xyz):
        x, y, hypot = xyz
        assert _wide.wide_norm2(x, y) == hypot == oracle_norm2(x, y)

    @given(x=rationals)
    def test_zero_coordinate(self, x):
        assert _wide.wide_norm2(x, Fraction(0)) == abs(x) == oracle_norm2(x, Fraction(0))
        assert _wide.wide_norm2(Fraction(0), x) == abs(x) == oracle_norm2(Fraction(0), x)

    def test_both_zero(self):
        assert _wide.wide_norm2(Fraction(0), Fraction(0)) == 0 == oracle_norm2(Fraction(0), Fraction(0))


# numerators up to 1200 bits: a conversion then shifts away up to 960 bits,
# past the 230 of fpcore's half-ulp table
wide_numerators = st.one_of(
    numerators,
    st.builds(random_bits, st.integers(0, 2**32), st.integers(231, 1200), st.sampled_from((1, -1))),
)
denominators = st.one_of(
    st.integers(0, 600).map(lambda k: 1 << k),
    st.sampled_from((3, 10**7, 7 << 40, 3 << 300)),
    st.integers(1, 1 << 400),
)


class TestAgainstRawOracle:
    """fpcore's kernels against mpmath's raw kernels, at 240 bits."""

    @given(num=wide_numerators, den=denominators)
    @settings(max_examples=500)
    def test_to_raw(self, num, den):
        got = fpcore._raw_to_fraction(*_wide._to_raw(num, den))
        assert got == raw_oracle_fraction(raw_oracle_to_raw(num, den))

    @pytest.mark.parametrize("bits", (241, 242, 470, 471, 472, 473, 1000))
    def test_to_raw_table_edge(self, bits):
        # excesses over 240 bits around 230, the last one fpcore's table holds;
        # the last numerator lies halfway between two 240-bit values
        tie = ((1 << 240) - 1) << (bits - 240) | 1 << (bits - 241)
        for num in ((1 << bits) - 1, (1 << (bits - 1)) | 1, tie):
            for den in (1, 1 << 77, 3, 10**30):
                for signed in (num, -num):
                    got = fpcore._raw_to_fraction(*_wide._to_raw(signed, den))
                    assert got == raw_oracle_fraction(raw_oracle_to_raw(signed, den))

    @given(num=wide_numerators.map(abs).filter(bool), den=denominators)
    @settings(max_examples=300)
    def test_sqrt_ratio(self, num, den):
        assert _wide._sqrt_ratio(num, den) == raw_oracle_sqrt_ratio(num, den)

    @given(x=rationals, y=rationals)
    @settings(max_examples=300)
    def test_norm2_fractions(self, x, y):
        assert _wide.wide_norm2(x, y) == raw_oracle_norm2(x, y)

    @given(u=wide_numerators, v=wide_numerators, den=denominators)
    @settings(max_examples=500)
    def test_norm2_integer_form(self, u, v, den):
        want = raw_oracle_norm2(Fraction(u, den), Fraction(v, den))
        assert _wide.wide_norm2(u, v, den) == want
        assert _wide.wide_norm2(-v, u, den) == want

    @given(xyz=exact_norm_pairs(), k=st.integers(0, 300))
    @settings(max_examples=200)
    def test_norm2_integer_form_exact_squares(self, xyz, k):
        x, y, hypot = xyz
        (u, v), den = _wide.align(x, y)
        assert _wide.wide_norm2(u << k, v << k, den << k) == hypot == raw_oracle_norm2(x, y)

    @given(u=wide_numerators, den=denominators)
    def test_norm2_integer_form_zero(self, u, den):
        assert _wide.wide_norm2(0, 0, den) == 0
        assert _wide.wide_norm2(u, 0, den) == abs(Fraction(u, den)) == _wide.wide_norm2(0, u, den)

    @given(xs=st.lists(rationals, min_size=1, max_size=6))
    def test_align(self, xs):
        nums, den = _wide.align(*xs)
        assert [Fraction(n, den) for n in nums] == xs
        if all(x.denominator & (x.denominator - 1) == 0 for x in xs):
            assert den == max(x.denominator for x in xs)


def eager_error(a: State, b: State) -> tuple[Fraction, Fraction, Fraction]:
    """The error vector as error_separation computed it before it became
    lazy: Fraction differences, then the mpmath-raw norm."""
    dx, dy = a.x - b.x, a.y - b.y
    return dx, dy, raw_oracle_norm2(dx, dy)


def run_like(rng: random.Random, bits: int) -> Fraction:
    """A dyadic value of ``bits`` significant bits near the orbit's scale."""
    return Fraction(random_bits(rng.getrandbits(32), bits, rng.choice((1, -1))),
                    1 << (bits + rng.randrange(-2, 6)))


class TestErrorVec:
    def test_matches_eager_form_on_random_states(self):
        rng = random.Random(20081)
        for _ in range(300):
            t = Fraction(rng.randrange(1, 10**6), 100)
            kind = rng.choice(("channels", "general"))
            if kind == "channels":
                # run (24 bits), reference (113 bits) and analytic (240 bits) values;
                # the run sometimes equals the reference in one coordinate
                actual = State(run_like(rng, 24), run_like(rng, 24), t)
                reference = State(run_like(rng, 113), run_like(rng, 113), t)
                if rng.random() < 0.2:
                    reference = State(actual.x, reference.y, t)
                analytic = State(run_like(rng, 240), run_like(rng, 240), t)
            else:
                actual, reference, analytic = (
                    State(Fraction(rng.randrange(-10**20, 10**20), rng.randrange(1, 10**12)),
                          Fraction(rng.randrange(-10**20, 10**20), rng.choice((3, 10**9, 1 << 40))), t)
                    for _ in range(3))
            triple = error_separation(actual, reference, analytic)
            for vec, (a, b) in ((triple.total, (actual, analytic)),
                                (triple.truncation, (reference, analytic)),
                                (triple.roundoff, (actual, reference))):
                dx, dy, norm = eager_error(a, b)
                if rng.random() < 0.5:  # the norm read before or after the components
                    assert vec.norm == norm
                assert (vec.x, vec.y, vec.norm) == (dx, dy, norm)

    def test_value_equality(self):
        t = Fraction(3)
        actual = State(Fraction(5, 4), Fraction(-3, 8), t)
        analytic = State(Fraction(1), Fraction(1, 8), t)
        triple = error_separation(actual, actual, analytic)
        assert triple.total == triple.truncation
        assert hash(triple.total) == hash(triple.truncation)
        assert triple.total != triple.roundoff
        assert triple == error_separation(actual, actual, analytic)
        # equal components from different states: equal vectors
        shifted = error_separation(State(Fraction(9, 4), Fraction(5, 8), t), actual, actual)
        assert shifted.total == ErrorVec(State(Fraction(1), Fraction(1), t), State(0, 0, t))
        assert shifted.total != ErrorVec(State(Fraction(1), Fraction(-1), t), State(0, 0, t))
        # the public fields are read-only, as in the former frozen dataclass
        for field in ("x", "y", "norm"):
            with pytest.raises(AttributeError):
                setattr(shifted.total, field, Fraction(0))


class TestSquareFilter:
    """``wide_norm2`` takes the square root of n = u**2 + v**2 only for the n
    that pass four residue tables; an exact root must still come out exact."""

    @pytest.mark.parametrize("m", (64, 63, 65, 11))
    def test_tables_are_the_squares(self, m):
        table = getattr(_wide, f"_SQUARE_{m}")
        assert len(table) == m
        assert {r for r in range(m) if table[r]} == {k * k % m for k in range(m)}

    @pytest.mark.parametrize("k", (0, 1, 7, 64, 301))
    @pytest.mark.parametrize("u, v, w", ((3, 4, 5), (5, 12, 13), (20, 21, 29), (119, 120, 169)))
    def test_scaled_triples_are_exact(self, u, v, w, k):
        for den in (1, 1 << 40, 3, 10**7, 7 << 40):  # powers of two and others
            assert _wide.wide_norm2(u << k, v << k, den) == Fraction(w << k, den)
            assert _wide.wide_norm2(-(v << k), u << k, den) == Fraction(w << k, den)

    def test_zero(self):
        assert _wide.wide_norm2(0, 0, 1 << 80) == 0 == _wide.wide_norm2(0, 0, 3)


class TestSlotBuilt:
    """The objects a long-run sample builds through slot descriptors equal
    the public constructors' under == and hash."""

    def test_state(self):
        x, y, t = Fraction(-3, 7), Fraction(5, 2**60), Fraction(123, 100)
        built = oscillator._state(x, y, t)
        assert built == State(x, y, t) and hash(built) == hash(State(x, y, t))
        assert (built.x, built.y, built.t) == (x, y, t)
        params = OscillatorParams()
        s = analytic_solution(params, t)
        assert s == State(s.x, s.y, s.t) and hash(s) == hash(State(s.x, s.y, s.t))

    def test_error_triple(self):
        t = Fraction(3)
        a, r, e = State(Fraction(5, 4), Fraction(-3, 8), t), State(Fraction(1), Fraction(1, 3), t), State(1, 0, t)
        triple = error_separation(a, r, e)
        public = ErrorTriple(ErrorVec(a, e), ErrorVec(r, e), ErrorVec(a, r), t)
        assert triple == public and hash(triple) == hash(public)
        assert repr(triple) == repr(public)

    def test_time_series_record(self):
        params, dt = OscillatorParams(), Fraction(1, 100)
        args = (Scheme.MIDPOINT_IMPLICIT, params, dt, 1, PrecisionConfig(24), PrecisionConfig(113))
        recs = longtime_run(*args, 10, spacing="linear")
        run, ref = integrate_pair(*args, SamplingPlan.at([r.t / dt for r in recs]))
        assert len(recs) == len(run.samples) == 10
        for rec, (_, s), (_, sr) in zip(recs, run.samples, ref.samples):
            triple = error_separation(s, sr, analytic_solution(params, s.t))
            public = TimeSeriesRecord(s.t, triple.roundoff.norm, triple.truncation.norm)
            assert rec == public and hash(rec) == hash(public) and repr(rec) == repr(public)


class TestSqrt:
    @given(x=rationals.map(abs))
    @settings(max_examples=300)
    def test_matches_oracle(self, x):
        assert _wide.wide_sqrt(x) == oracle_sqrt(x)

    @given(n=st.integers(0, 1 << 200), d=st.integers(1, 1 << 200))
    def test_rational_square_exact(self, n, d):
        x = Fraction(n, d) ** 2
        assert _wide.wide_sqrt(x) == Fraction(n, d) == oracle_sqrt(x)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _wide.wide_sqrt(Fraction(-1, 3))


def pi_multiple(k: int) -> Fraction:
    """k pi/2 rounded to 240 bits: its cosine or sine is about 2**-240 k."""
    with mpmath.workprec(1500):
        _, man, exp, _ = (mpmath.pi * k / 2)._mpf_
    return fpcore._raw_to_fraction(*fpcore._round_raw(int(man), exp, _wide.WIDE_PREC_BITS))


# longrun phases w t, w = sqrt(1/50) as the wide layer holds it, whose sine
# mpmath at 240 bits rounds to the wrong neighbour (found among the 10**4
# distinct phases of the golden argvs and the longrun-dense workload)
OMEGA = OscillatorParams(Fraction("0.1"), Fraction("0.2")).angular_frequency()
MISROUNDED_PHASES = tuple(OMEGA * Fraction(t) for t in ("2", "3.96", "6.54", "6.56"))
HARD_ARGUMENTS = (
    Fraction(1, 1 << 1000), Fraction(3, 1 << 5000),  # sin x = x and cos x = 1 after rounding
    Fraction((1 << 1000) + 1), Fraction(10**4000),  # reduced by pi/2 at over 1000 bits
    *(pi_multiple(k) for k in (1, 2, 3, 1001, 10**6 + 1, 10**12 + 3)),  # a result near 0
    *MISROUNDED_PHASES,
)


class TestCosSin:
    @given(x=rationals)
    @settings(max_examples=300)
    def test_matches_oracle(self, x):
        assert _wide.wide_cos_sin(x) == oracle_cos_sin(x)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 1 << 500), Fraction(-7, 10**30),
                                   Fraction(10**6, 3), Fraction(355, 113)])
    def test_edge_arguments(self, x):
        assert _wide.wide_cos_sin(x) == oracle_cos_sin(x)

    @pytest.mark.parametrize("x", HARD_ARGUMENTS)
    def test_hard_arguments(self, x):
        c, s = oracle_cos_sin(x)
        assert _wide.wide_cos_sin(x) == (c, s)
        assert _wide.wide_cos_sin(-x) == (c, -s)

    def test_retry(self, monkeypatch):
        # with 2 guard bits the first attempt cannot decide the rounding, so
        # the kernel reruns with 4, 8, ... guard bits, asking for a wider pi
        widths = []
        pi = _wide._pi

        def counted(bits):
            widths.append(bits)
            return pi(bits)

        monkeypatch.setattr(_wide, "_GUARD_BITS", 2)
        monkeypatch.setattr(_wide, "_pi", counted)
        rng = random.Random(12)
        xs = [*HARD_ARGUMENTS, *(Fraction(random_bits(rng.getrandbits(32), 240, 1), 1 << 238) for _ in range(50))]
        for x in xs:
            assert _wide.wide_cos_sin(x) == oracle_cos_sin(x)
        assert len(widths) > 2 * len(xs)


# ---------------------------------------------------------------------------
# Hints: cosine and sine carried from sample to sample
# ---------------------------------------------------------------------------

W = _wide._HINT_BITS


@st.composite
def hinted_runs(draw):
    """(theta, ascending steps): theta = omega dt with omega a 240-bit dyadic
    or an exact non-dyadic constant, dt dyadic or decimal, and the steps
    linear, log-spaced or with gaps up to 2**40; a scale of omega puts the
    phases anywhere up to about 2**200."""
    omega = draw(st.one_of(
        st.integers(1 << 239, (1 << 240) - 1).map(lambda m: Fraction(m, 1 << 239)),
        st.sampled_from((Fraction(3, 10), Fraction(1, 3), Fraction(7, 5)))))
    dt = draw(st.one_of(st.integers(0, 20).map(lambda k: Fraction(1, 1 << k)),
                        st.integers(1, 10**4).map(lambda k: Fraction(k, 10**5))))
    scale = Fraction(2) ** draw(st.integers(-10, 150))
    kind = draw(st.sampled_from(("linear", "log", "gaps")))
    if kind == "linear":
        step, count = draw(st.integers(1, 5)), draw(st.integers(1, 30))
        steps = [step * i for i in range(1, count + 1)]
    elif kind == "log":
        n, count = draw(st.integers(2, 10**7)), draw(st.integers(2, 30))
        steps = sorted({round(n ** (i / count)) for i in range(1, count + 1)})
    else:
        gaps = draw(st.lists(st.integers(1, 1 << 40), min_size=1, max_size=6))
        steps = [sum(gaps[:i + 1]) for i in range(len(gaps))]
    return omega * dt * scale, steps


def exact_cos_sin(x: Fraction, bits: int = 600):
    """cos x and sin x times 2**W as mpmath values at ``bits`` + log2|x| bits."""
    with mpmath.workprec(bits + max(x.numerator.bit_length() - x.denominator.bit_length(), 0)):
        xm = mpmath.mpf(x.numerator) / x.denominator
        return mpmath.cos(xm) * 2**W, mpmath.sin(xm) * 2**W


def hinted_terms(x: Fraction, near, monkeypatch):
    """(c, s, err): the hint turned to x's wide value, as wide_cos_sin hands
    it to Ziv's test."""
    seen = []
    decided = _wide._decided
    monkeypatch.setattr(_wide, "_decided", lambda *args: seen.append(args) or decided(*args))
    _wide.wide_cos_sin(x, near)
    monkeypatch.undo()
    c, s, u, err, _ = seen[0]
    assert u == W
    return c, s, err


# theta = omega dt for the benchmark's seed constants at dt = 1e-2, and
# thetas whose phases reach 2**90 - 2**120, where the second-order term of
# the turn to the wide phase outweighs the floors
OMEGA_DT = OMEGA * Fraction(1, 100)
BOUND_CASES = {
    "dense": (OMEGA_DT, [2, 4, 6, 1000, 20000]),
    "log": (OMEGA_DT, [1, 2, 3, 5, 9, 17, 100, 1234, 65536, (1 << 20) + 3]),
    "exact constant": (Fraction(3, 10) * Fraction(1, 128), [1, 2, 3, 1 << 33, (1 << 40) + (1 << 39) + 7]),
    "phase 2**90": (OMEGA_DT * 2**96, [1, 2, 3, 1000, 1 << 20]),
    "phase 2**110": (OMEGA_DT * 2**116, [1, 7, 1 << 10, 3 << 10]),
    "phase 2**119": (OMEGA_DT * 2**125, [1, 2, 3, 4]),
}


class TestHints:
    @given(run=hinted_runs())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_hinted_equals_kernel(self, run):
        theta, steps = run
        for k, near in zip(steps, _wide.cos_sin_steps(theta, steps)):
            assert _wide.wide_cos_sin(k * theta, near) == _wide.wide_cos_sin(k * theta)

    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_bounds_hold(self, case, monkeypatch):
        theta, steps = BOUND_CASES[case]
        hints = list(_wide.cos_sin_steps(theta, steps))
        assert None not in hints
        second_order = False
        for k, (C, S, E) in zip(steps, hints):
            x = k * theta
            cos_x, sin_x = exact_cos_sin(x)
            assert mpmath.hypot(C - cos_x, S - sin_x) < E
            wide = fpcore._raw_to_fraction(*_wide._to_raw(x.numerator, x.denominator))
            c, s, err = hinted_terms(x, (C, S, E), monkeypatch)
            cos_w, sin_w = exact_cos_sin(wide)
            assert mpmath.hypot(c - cos_w, s - sin_w) < err
            second_order |= err - E > 1 << 10
        assert second_order == case.startswith("phase")

    def test_no_hint_past_the_phase_cap(self):
        # a = b = 1e300: omega = 1e300, every phase is past 2**120
        params = OscillatorParams(Fraction(10**300), Fraction(10**300))
        theta = params.angular_frequency() * Fraction(1, 100)
        steps = [1, 2, 3, 50]
        hints = list(_wide.cos_sin_steps(theta, steps))
        assert hints == [None] * len(steps)
        for k, near in zip(steps, hints):
            t = k * Fraction(1, 100)
            assert _wide.wide_cos_sin(k * theta, near) == oracle_cos_sin(k * theta)
            assert analytic_solution(params, t, near) == analytic_solution(params, t)
        # a hint from below the cap, None from the first phase at it on
        hints = _wide.cos_sin_steps(Fraction(1 << 118), [1, 2, 3, 4])
        assert [near is None for near in hints] == [False, False, False, True]

    def test_kernel_runs_only_when_undecided(self, monkeypatch):
        calls = []
        kernel = _wide._cos_sin_raw
        monkeypatch.setattr(_wide, "_cos_sin_raw", lambda *args: calls.append(args) or kernel(*args))
        steps = list(range(2, 20001, 2))  # the dense long run's phases
        hints = list(_wide.cos_sin_steps(OMEGA_DT, steps))
        for k in steps[::50]:
            near = hints[k // 2 - 1]
            x = k * OMEGA_DT
            assert _wide.wide_cos_sin(x, near) == oracle_cos_sin(x)
        assert calls == []
        # a bound too wide to decide: the kernel runs, once, and agrees
        C, S, _ = hints[0]
        x = 2 * OMEGA_DT
        assert _wide.wide_cos_sin(x, (C, S, 1 << 250)) == oracle_cos_sin(x)
        assert len(calls) == 1

    def test_reanchors(self, monkeypatch):
        # gaps of 2**40 push the bound past 2**40: the kernel anchors the
        # hint afresh and its bound falls back to a few units
        anchors = []
        anchor = _wide._anchor
        monkeypatch.setattr(_wide, "_anchor", lambda *args: anchors.append(args) or anchor(*args))
        steps = [1 << 40, 2 << 40, (2 << 40) + 1]
        hints = list(_wide.cos_sin_steps(OMEGA_DT, steps))
        assert len(anchors) == 3  # the first power and the two long gaps
        assert max(E for _, _, E in hints) < 1 << 10
        for k, near in zip(steps, hints):
            assert _wide.wide_cos_sin(k * OMEGA_DT, near) == oracle_cos_sin(k * OMEGA_DT)


class TestMpfToFraction:
    @pytest.mark.parametrize("x", [mpmath.inf, -mpmath.inf, mpmath.nan])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError):
            mpf_to_fraction(x)

    def test_finite_values(self):
        assert mpf_to_fraction(mpmath.mpf(0)) == 0
        assert mpf_to_fraction(mpmath.mpf(-0.375)) == Fraction(-3, 8)
        assert mpf_to_fraction(mpmath.mpf(3) * 2**70) == 3 << 70


# ---------------------------------------------------------------------------
# The analytic solution and its memoised orbit constants
# ---------------------------------------------------------------------------

# the benchmark's seed pairs (a*b = 1/50), a pair with another frequency, and
# pairs whose orbit constants are exact and not dyadic: omega = 3/10, 1/10,
# 1/5 and amp = 1/3, 1, 2
PARAM_PAIRS = [("0.1", "0.2"), ("0.2", "0.1"), ("0.05", "0.4"), ("0.4", "0.05"),
               ("0.025", "0.8"), ("0.8", "0.025"), ("3", "7"),
               ("0.9", "0.1"), ("0.1", "0.1"), ("0.1", "0.4")]
TIMES = [Fraction(1, 100), Fraction(7, 2), Fraction(200), Fraction(123456789, 1000)]


def oracle_analytic(a: Fraction, b: Fraction, t: Fraction) -> State:
    c, s = oracle_cos_sin(oracle_sqrt(a * b) * t)
    return State(c, oracle_sqrt(b / a) * s, t)


@pytest.mark.parametrize("first, second", list(zip(PARAM_PAIRS, PARAM_PAIRS[1:] + PARAM_PAIRS[:1])))
def test_analytic_solution_alternating_params(first, second):
    # alternating between two params makes a memo keyed on the wrong thing
    # hand one params' constants to the other
    params = [OscillatorParams(*first), OscillatorParams(*second)]
    for t in TIMES:
        for p in params + params[::-1]:
            assert p.angular_frequency() == oracle_sqrt(p.a * p.b)
            assert p.amplitude_y() == oracle_sqrt(p.b / p.a)
            assert analytic_solution(p, t) == oracle_analytic(p.a, p.b, t)
            assert analytic_solution(p, 0) == INITIAL_STATE
