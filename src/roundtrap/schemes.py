"""Time integrators with per-operation rounding control.

Three one-step schemes for the oscillator, each available in exact rational
arithmetic (``cfg=None``) or with every elementary operation rounded at an
emulated precision:

* forward Euler, first order:
      x' = x + dt*(-a*y),  y' = y + dt*(b*x)
* the implicit midpoint rule in its solved closed form, second order and
  exactly conservative in exact arithmetic: with k = (a*dt/2)*(b*dt/2),
      x' = (x*(1-k) - a*dt*y) / (1+k),
      y' = (y*(1-k) + b*dt*x) / (1+k)
* Kutta's explicit third-order rule (stages at 0, 1/2, 1 with weights
  1/6, 2/3, 1/6); not conservative, included for the order sweep.

Exact arithmetic has one definition per scheme, the pencil (B, C) with
B u' = C u of ``_pencil``: exact steps apply ``update_matrix`` = B^-1 C.

One loop, ``_channel``, advances a channel from a start state from sample
to sample, in one of three ways: exactly, natively in binary64, or in the
emulator.  ``integrate`` runs it from (1, 0) and ``step`` for one step.

Rounded-mode operation order is fixed (see the kernels) so runs are
bit-reproducible: constants such as a*dt and 1+-k are rounded once per run,
which is bit-identical to recomputing them each step because rounding is
deterministic.  The requested step size is itself rounded to the run
precision before integrating -- decimal step sizes are not binary
representable -- while bookkeeping times stay at the exact requested
step_index * dt, so trajectories at different precisions share a time grid
and the step-size representation error is accounted to the round-off
channel.

Backends.  A rounded channel at p <= 25 or p = 53 significand bits steps in
native binary64: each operation is one float operation followed by one
rounding to p bits by a Veltkamp split (T. J. Dekker, Numer. Math. 18,
1971), which at p = 53 is the identity.  That equals the emulator's single
rounding, because rounding twice is innocuous when 53 >= 2p + 2
(S. A. Figueroa, "When is double rounding innocuous?", SIGNUM Newsletter
30(3), 1995) -- but only while no value overflows or leaves the normal
range.  A range guard checks the state after every step; when it trips,
the channel continues in the emulator from the last in-range state.  A
channel whose start state or scheme constants lie outside their windows
runs in the emulator throughout, as does every other p.  Both backends give
bit-identical trajectories.

Compiled kernels.  Each scheme's binary64 step has a C twin, and the
midpoint scheme, the paper's conservative scheme, also an integer step for
every other p up to 113 (``_kernels.c``, built and loaded through ctypes by
``_compiled``); one plan loop per arithmetic runs them.  The integer step
works on integer significands with an unbounded exponent, as the emulator
does, and rounds each +, -, * and / once to p bits, to nearest with ties to
even.  The library is built on first use, not at import, with the flags
``_kernels.c`` explains, and used only after each kernel follows a 40-step
plan of mixed gaps as the Python kernels do.  When anything fails (no gcc,
a compile error, an unwritable cache, no ``unsigned __int128``, a wrong
answer) the channel silently keeps the Python kernels, which for a midpoint
channel outside binary64 is the emulator.  ``_native_kernel`` alone picks a
channel's kernel; ``starts_compiled``, which the manifest's environment
block and the sweep's pool decision read, returns its choice.  The guard
and the hand-off to the emulator are the same on every kernel, so
``channel_backend``, the manifest's backends and every output bit stay the
same.

Records.  A trajectory keeps its sampled states as the kernels produced
them, in one flat sequence of one form (``_Record``): floats from the
binary64 kernels, raw pairs from the emulator and the integer kernel,
Fractions from exact steps.  A native kernel runs the channel's whole
sampling plan in one call, stepping between samples in its own loop and
writing each sampled state into the record (integer significands cross as
two words, joined after the call).  When the range guard trips, the float
record is converted in place to raw pairs, exactly, before the emulator
extends it.  ``Trajectory.samples`` builds the (i, State) pairs on each
read; a long run's error split takes them one at a time and keeps none, and
the residual stencil of ``analysis`` reads the record as integers without
them.

The emulator runs one fused kernel per scheme (``_FUSED_FN``): each
advances the raw state k steps in its own loop on ``fpcore``'s raw kernels,
so ``fpcore._round_raw`` is its only rounding.  The native kernels fix the
operation order, and tests require both backends to agree bit for bit.
``_midpoint_step`` is the midpoint rule one ``fpcore`` operation at a time.
"""

from __future__ import annotations

import functools
import math
import struct
from array import array
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from typing import Optional

from .fpcore import (
    ParameterError,
    PrecisionConfig,
    _Frozen,
    _add_raw,
    _div_raw,
    _float_to_raw,
    _fraction,
    _fraction_to_raw,
    _mul_raw,
    _raw_to_fraction,
    _round_raw,
    _set,
    _sub_raw,
)
from .oscillator import OscillatorParams, State, _as_fraction

DEFAULT_MAX_STEPS = 50_000_000


class StepLimitError(RuntimeError):
    """Requested step count exceeds the configured guard."""

    def __init__(self, requested: int, limit: int):
        super().__init__(f"integration would take {requested} steps, limit is {limit}")
        self.requested = requested
        self.limit = limit


class Scheme(Enum):
    """Integrator selector; ``order`` is the theoretical truncation order."""

    FORWARD_EULER = "euler"
    MIDPOINT_IMPLICIT = "midpoint"
    RK3 = "rk3"

    @property
    def order(self) -> int:
        return _ORDERS[self]

    @classmethod
    def from_name(cls, name: str) -> "Scheme":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ParameterError(f"unknown scheme {name!r} (expected one of: {valid})") from None


_ORDERS = {Scheme.FORWARD_EULER: 1, Scheme.MIDPOINT_IMPLICIT: 2, Scheme.RK3: 3}


class SamplingPlan(_Frozen):
    """Which step indices of a trajectory to record.

    Either a stride (every ``stride``-th step, starting at 0) or an explicit
    index set.  The final step is always recorded.
    """

    __slots__ = ("stride", "at_steps")

    def __init__(self, stride: Optional[int] = None, at_steps: Optional[tuple[int, ...]] = None):
        if (stride is None) == (at_steps is None):
            raise ParameterError("specify exactly one of stride or at_steps")
        if stride is not None and stride < 1:
            raise ParameterError("stride must be >= 1")
        if at_steps is not None:
            at_steps = tuple(sorted(set(at_steps)))
        _set(self, "stride", stride)
        _set(self, "at_steps", at_steps)

    @classmethod
    def every(cls, k: int = 1) -> "SamplingPlan":
        return cls(stride=k)

    @classmethod
    def final_only(cls) -> "SamplingPlan":
        return cls(at_steps=())

    @classmethod
    def at(cls, steps) -> "SamplingPlan":
        return cls(at_steps=tuple(int(s) for s in steps))

    def resolve(self, n_steps: int) -> tuple[int, ...]:
        if self.stride is not None:
            idx = range(0, n_steps + 1, self.stride)
        else:  # at_steps is sorted and distinct
            idx = [s for s in self.at_steps if 0 <= s < n_steps]
        return tuple(idx) if idx and idx[-1] == n_steps else (*idx, n_steps)


# the forms of a record: floats (x, y), raw pairs (mx, ex, my, ey) and
# Fractions (x, y), in one flat sequence; compared by value, since a record
# unpickled in another process holds copies of them
_FLOAT, _RAW, _EXACT = "float", "raw", "exact"


class _Record:
    """A channel's states at its sampled steps, as its kernels produced
    them, in one form.  Two records are equal when their steps and the
    values of their states are."""

    __slots__ = ("steps", "form", "values")

    def __init__(self, steps: tuple[int, ...], form: str):
        self.steps = steps  # the sampled step indices, ascending
        self.form = form
        self.values = array("d") if form == _FLOAT else []  # flat, for the kernels to extend

    # a slotted class pickles at protocols 0 and 1 only with its own __getstate__
    def __getstate__(self):
        return self.steps, self.form, self.values

    def __setstate__(self, state):
        self.steps, self.form, self.values = state

    def to_raw(self, p: int):
        """Convert a float record of p-bit values to raw pairs, exactly."""
        self.form, self.values = _RAW, [w for v in self.values for w in _float_to_raw(v, p)]

    def fractions(self, ordinals):
        """(x, y) as Fractions for each of the sample ordinals."""
        v = self.values
        if self.form == _RAW:
            for o in ordinals:
                k = 4 * o
                yield _raw_to_fraction(v[k], v[k + 1]), _raw_to_fraction(v[k + 2], v[k + 3])
        else:  # floats and Fractions, from the exact ratio, which is in lowest terms
            for o in ordinals:
                k = 2 * o
                yield _fraction(*v[k].as_integer_ratio()), _fraction(*v[k + 1].as_integer_ratio())

    def integers(self, ordinals):
        """(nx, ny, q) for each of the sample ordinals: the state is
        (nx/q, ny/q), q > 0 (a power of two for a rounded run)."""
        v, lcm = self.values, math.lcm
        if self.form == _RAW:
            for o in ordinals:
                k = 4 * o
                mx, ex, my, ey = v[k:k + 4]
                e = min(ex, ey, 0)
                yield mx << (ex - e), my << (ey - e), 1 << -e
        else:  # floats and Fractions
            for o in ordinals:
                k = 2 * o
                nx, dx = v[k].as_integer_ratio()
                ny, dy = v[k + 1].as_integer_ratio()
                q = lcm(dx, dy)
                yield nx * (q // dx), ny * (q // dy), q

    def _values(self):
        return self.steps, tuple(self.fractions(range(len(self.steps))))

    def __eq__(self, other):
        if not isinstance(other, _Record):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"_Record(steps={len(self.steps)}, form={self.form!r})"


class Trajectory(_Frozen):
    """Recorded integration output.  ``dt`` is the exact requested step size;
    sample times are step_index * dt.  ``precision`` is None for exact
    arithmetic runs.  ``record`` holds the sampled states as the kernels
    produced them, and ``samples`` is built from it on each read."""

    __slots__ = ("params", "scheme", "dt", "precision", "n_steps", "record")

    def __init__(self, params: OscillatorParams, scheme: Scheme, dt: Fraction,
                 precision: Optional[PrecisionConfig], n_steps: int, record: _Record):
        _set(self, "params", params)
        _set(self, "scheme", scheme)
        _set(self, "dt", dt)
        _set(self, "precision", precision)
        _set(self, "n_steps", n_steps)
        _set(self, "record", record)

    @property
    def steps(self) -> tuple[int, ...]:
        """The sampled step indices, ascending."""
        return self.record.steps

    @property
    def samples(self) -> tuple[tuple[int, State], ...]:
        """The (i, State at time i*dt) samples."""
        steps, time = self.record.steps, self._time
        pairs = self.record.fractions(range(len(steps)))
        return tuple((i, State(x, y, time(i))) for i, (x, y) in zip(steps, pairs))

    def _time(self, i: int) -> Fraction:
        """i*dt in lowest terms, without a Fraction product."""
        dn, dd = self.dt.numerator, self.dt.denominator
        g = math.gcd(i, dd)
        return _fraction(dn * (i // g), dd // g)

    @property
    def machine_dt(self) -> Fraction:
        """The step size actually iterated with: dt rounded at the run
        precision (dt itself for exact runs)."""
        if self.precision is None:
            return self.dt
        m, e = _fraction_to_raw(self.dt, self.precision.significand_bits)
        return _raw_to_fraction(m, e)

    @property
    def final_state(self) -> State:
        steps = self.record.steps
        [(x, y)] = self.record.fractions(range(len(steps) - 1, len(steps)))
        return State(x, y, self._time(steps[-1]))


# ---------------------------------------------------------------------------
# Rounded-mode states are (mx, ex, my, ey) integer quadruples; constants are
# precomputed per run by _consts().  _midpoint_step is one midpoint step, one
# fpcore operation at a time.
# ---------------------------------------------------------------------------


def _midpoint_step(st, c, p):
    mx, ex, my, ey = st
    omm, ome, opm, ope, am, ae, bm, be = c
    u1m, u1e = _mul_raw(mx, ex, omm, ome, p)  # x (x) (1-k)
    u2m, u2e = _mul_raw(am, ae, my, ey, p)  # a*dt (x) y
    nxm, nxe = _sub_raw(u1m, u1e, u2m, u2e, p)
    v1m, v1e = _mul_raw(my, ey, omm, ome, p)  # y (x) (1-k)
    v2m, v2e = _mul_raw(bm, be, mx, ex, p)  # b*dt (x) x
    nym, nye = _add_raw(v1m, v1e, v2m, v2e, p)
    qxm, qxe = _div_raw(nxm, nxe, opm, ope, p)  # (/) (1+k)
    qym, qye = _div_raw(nym, nye, opm, ope, p)
    return qxm, qxe, qym, qye


def _consts(scheme: Scheme, params: OscillatorParams, dt: Fraction, p: int):
    """Per-run rounded constants, flattened to raw pairs."""
    am, ae = _fraction_to_raw(params.a, p)
    bm, be = _fraction_to_raw(params.b, p)
    dm, de = _fraction_to_raw(dt, p)
    if scheme is Scheme.FORWARD_EULER:
        return (-am, ae, bm, be, dm, de)
    if scheme is Scheme.MIDPOINT_IMPLICIT:
        adm, ade = _mul_raw(am, ae, dm, de, p)  # a (x) dt
        bdm, bde = _mul_raw(bm, be, dm, de, p)  # b (x) dt
        km, ke = _mul_raw(adm, ade - 1, bdm, bde - 1, p)  # halvings are exact
        omm, ome = _sub_raw(1, 0, km, ke, p)  # 1 (-) k
        opm, ope = _add_raw(1, 0, km, ke, p)  # 1 (+) k
        return (omm, ome, opm, ope, adm, ade, bdm, bde)
    if scheme is Scheme.RK3:
        d6m, d6e = _div_raw(dm, de, 6, 0, p)  # dt (/) 6, rounded
        return (-am, ae, bm, be, dm, de, dm, de - 1, dm, de + 1, d6m, d6e)
    raise ValueError(f"unsupported scheme {scheme}")


# ---------------------------------------------------------------------------
# Fused emulator kernels, one per scheme.  Each advances a raw state k steps
# in its own loop and does the operations of its native twin below on the
# same operands.  They call fpcore's _round_raw, _add_raw and _div_raw
# directly, with no per-operation wrapper.
# ---------------------------------------------------------------------------


def _euler_fused(st, c, p, k):
    mx, ex, my, ey = st
    nam, nae, bm, be, dm, de = c
    rn, add = _round_raw, _add_raw
    for _ in range(k):
        t1m, t1e = rn(nam * my, nae + ey, p)  # (-a) (x) y
        t2m, t2e = rn(dm * t1m, de + t1e, p)  # dt (x) .
        u1m, u1e = rn(bm * mx, be + ex, p)
        u2m, u2e = rn(dm * u1m, de + u1e, p)
        mx, ex = add(mx, ex, t2m, t2e, p)  # x (+) .
        my, ey = add(my, ey, u2m, u2e, p)
    return mx, ex, my, ey


def _midpoint_fused(st, c, p, k):
    mx, ex, my, ey = st
    omm, ome, opm, ope, am, ae, bm, be = c
    rn, add, div = _round_raw, _add_raw, _div_raw
    for _ in range(k):
        u1m, u1e = rn(mx * omm, ex + ome, p)  # x (x) (1-k)
        u2m, u2e = rn(am * my, ae + ey, p)  # a*dt (x) y
        v1m, v1e = rn(my * omm, ey + ome, p)  # y (x) (1-k)
        v2m, v2e = rn(bm * mx, be + ex, p)  # b*dt (x) x
        nxm, nxe = add(u1m, u1e, -u2m, u2e, p)
        nym, nye = add(v1m, v1e, v2m, v2e, p)
        mx, ex = div(nxm, nxe, opm, ope, p)  # (/) (1+k)
        my, ey = div(nym, nye, opm, ope, p)
    return mx, ex, my, ey


def _rk3_fused(st, c, p, k):
    mx, ex, my, ey = st
    nam, nae, bm, be, dm, de, hm, he, d2m, d2e, d6m, d6e = c
    rn, add = _round_raw, _add_raw
    for _ in range(k):
        k1xm, k1xe = rn(nam * my, nae + ey, p)
        k1ym, k1ye = rn(bm * mx, be + ex, p)
        tm, te = rn(hm * k1xm, he + k1xe, p)
        x2m, x2e = add(mx, ex, tm, te, p)
        tm, te = rn(hm * k1ym, he + k1ye, p)
        y2m, y2e = add(my, ey, tm, te, p)
        k2xm, k2xe = rn(nam * y2m, nae + y2e, p)
        k2ym, k2ye = rn(bm * x2m, be + x2e, p)
        tm, te = rn(dm * k1xm, de + k1xe, p)
        x3m, x3e = add(mx, ex, -tm, te, p)
        tm, te = rn(d2m * k2xm, d2e + k2xe, p)
        x3m, x3e = add(x3m, x3e, tm, te, p)
        tm, te = rn(dm * k1ym, de + k1ye, p)
        y3m, y3e = add(my, ey, -tm, te, p)
        tm, te = rn(d2m * k2ym, d2e + k2ye, p)
        y3m, y3e = add(y3m, y3e, tm, te, p)
        k3xm, k3xe = rn(nam * y3m, nae + y3e, p)
        k3ym, k3ye = rn(bm * x3m, be + x3e, p)
        # x + dt/6 * ((k1 + 4 k2) + k3); 4*k2 is an exact scaling
        sm, se = add(k1xm, k1xe, k2xm << 2, k2xe, p)
        sm, se = add(sm, se, k3xm, k3xe, p)
        tm, te = rn(d6m * sm, d6e + se, p)
        nxm, nxe = add(mx, ex, tm, te, p)
        sm, se = add(k1ym, k1ye, k2ym << 2, k2ye, p)
        sm, se = add(sm, se, k3ym, k3ye, p)
        tm, te = rn(d6m * sm, d6e + se, p)
        my, ey = add(my, ey, tm, te, p)
        mx, ex = nxm, nxe
    return mx, ex, my, ey


_FUSED_FN = {
    Scheme.FORWARD_EULER: _euler_fused,
    Scheme.MIDPOINT_IMPLICIT: _midpoint_fused,
    Scheme.RK3: _rk3_fused,
}


# ---------------------------------------------------------------------------
# Native binary64 kernels.  Each follows its emulator kernel above line for
# line, one line per rounded operation: the float operation, then its
# rounding to p bits in place by a Veltkamp split, u = v*C; v = u - (u - v)
# with C = 2**(53-p) + 1.  A kernel follows a sampling plan, an array('q')
# of ascending step indices: it steps from (x, y) at step 0 to each index in
# its own loop and appends the state there to out.  It returns (samples
# done, steps done, (x, y)): it stops before the first step whose result
# fails the range guard, leaving the last in-range state.
#
# Windows.  Nonzero state components lie in [2**-400, 2**400] (checked on
# the start state and after every step) and nonzero constants in
# [2**-64, 2**64] (checked once per run).  Along any kernel's data flow a
# value is a state component times at most six constants (or reciprocals),
# combined by at most three additions
# that can cancel (RK3's x2 -> x3 -> s chain; Euler and midpoint need
# fewer).  Upward, sums grow a value at most 2**4-fold, so every
# intermediate stays below 2**(400 + 6*64 + 4) = 2**788, and v*C below
# 2**840 < 2**1024.  Downward, a cancelling sum of p-bit values is a nonzero
# multiple of the smaller operand's ulp, at least 2**-p times that operand,
# so a nonzero intermediate is at least 2**(-400 - 6*64 - 3*53) = 2**-943,
# above the smallest normal 2**-1022.  So no value overflows or leaves the
# normal range, every float operation is correctly rounded at 53 bits, and
# the split's one further rounding matches the emulator exactly.  NaN and
# inf fail the comparisons and so trip the guard too.
# ---------------------------------------------------------------------------

BINARY64 = "binary64"
EMULATED = "emulated"

_STATE_EXP, _CONST_EXP = 400, 64
_STATE_LO, _STATE_HI = 2.0**-_STATE_EXP, 2.0**_STATE_EXP


def channel_backend(p: int) -> str:
    """The backend a rounded channel at p significand bits runs on."""
    return BINARY64 if p <= 25 or p == 53 else EMULATED


def _split_factor(p: int) -> float:
    """Veltkamp's C for rounding a double to p bits."""
    return float((1 << (53 - p)) + 1)


def _in_window(v: float) -> bool:
    return v == 0.0 or _STATE_LO <= abs(v) <= _STATE_HI


def _raw_in_window(raws, exp: int) -> bool:
    """Whether every nonzero one of the flattened raw pairs lies in
    [2**-exp, 2**exp], the window of _in_window: for m * 2**e that is
    floor(log2|v|) >= -exp and ceil(log2|v|) <= exp."""
    return all(not m or -exp <= e + abs(m).bit_length() - 1 and e + (abs(m) - 1).bit_length() <= exp
               for m, e in zip(raws[::2], raws[1::2]))


def _native_floats(raws):
    """Flattened raw pairs of at most 53 bits, inside their window, as floats."""
    return tuple(math.ldexp(m, e) for m, e in zip(raws[::2], raws[1::2]))  # exact


def _euler_native(xy, c, C, plan, out):
    x, y = xy
    na, b, d = c
    lo, hi = _STATE_LO, _STATE_HI
    i = 0
    for j, stop in enumerate(plan):
        for i in range(i, stop):
            t1 = na * y; u = t1 * C; t1 = u - (u - t1)
            t2 = d * t1; u = t2 * C; t2 = u - (u - t2)
            nx = x + t2; u = nx * C; nx = u - (u - nx)
            u1 = b * x; u = u1 * C; u1 = u - (u - u1)
            u2 = d * u1; u = u2 * C; u2 = u - (u - u2)
            ny = y + u2; u = ny * C; ny = u - (u - ny)
            if not (lo <= abs(nx) <= hi and lo <= abs(ny) <= hi):
                if not (_in_window(nx) and _in_window(ny)):
                    return j, i, (x, y)
            x, y = nx, ny
        i = stop
        out.extend((x, y))
    return len(plan), i, (x, y)


def _midpoint_native(xy, c, C, plan, out):
    x, y = xy
    om, op, ad, bd = c
    lo, hi = _STATE_LO, _STATE_HI
    i = 0
    for j, stop in enumerate(plan):
        for i in range(i, stop):
            u1 = x * om; u = u1 * C; u1 = u - (u - u1)
            u2 = ad * y; u = u2 * C; u2 = u - (u - u2)
            nx = u1 - u2; u = nx * C; nx = u - (u - nx)
            v1 = y * om; u = v1 * C; v1 = u - (u - v1)
            v2 = bd * x; u = v2 * C; v2 = u - (u - v2)
            ny = v1 + v2; u = ny * C; ny = u - (u - ny)
            qx = nx / op; u = qx * C; qx = u - (u - qx)
            qy = ny / op; u = qy * C; qy = u - (u - qy)
            if not (lo <= abs(qx) <= hi and lo <= abs(qy) <= hi):
                if not (_in_window(qx) and _in_window(qy)):
                    return j, i, (x, y)
            x, y = qx, qy
        i = stop
        out.extend((x, y))
    return len(plan), i, (x, y)


def _rk3_native(xy, c, C, plan, out):
    x, y = xy
    na, b, d, h, d2, d6 = c
    lo, hi = _STATE_LO, _STATE_HI
    i = 0
    for j, stop in enumerate(plan):
        for i in range(i, stop):
            k1x = na * y; u = k1x * C; k1x = u - (u - k1x)
            k1y = b * x; u = k1y * C; k1y = u - (u - k1y)
            t = h * k1x; u = t * C; t = u - (u - t)
            x2 = x + t; u = x2 * C; x2 = u - (u - x2)
            t = h * k1y; u = t * C; t = u - (u - t)
            y2 = y + t; u = y2 * C; y2 = u - (u - y2)
            k2x = na * y2; u = k2x * C; k2x = u - (u - k2x)
            k2y = b * x2; u = k2y * C; k2y = u - (u - k2y)
            t = d * k1x; u = t * C; t = u - (u - t)
            x3 = x - t; u = x3 * C; x3 = u - (u - x3)
            t = d2 * k2x; u = t * C; t = u - (u - t)
            x3 = x3 + t; u = x3 * C; x3 = u - (u - x3)
            t = d * k1y; u = t * C; t = u - (u - t)
            y3 = y - t; u = y3 * C; y3 = u - (u - y3)
            t = d2 * k2y; u = t * C; t = u - (u - t)
            y3 = y3 + t; u = y3 * C; y3 = u - (u - y3)
            k3x = na * y3; u = k3x * C; k3x = u - (u - k3x)
            k3y = b * x3; u = k3y * C; k3y = u - (u - k3y)
            # x + dt/6 * ((k1 + 4 k2) + k3); 4*k2 is an exact scaling
            s = k1x + 4.0 * k2x; u = s * C; s = u - (u - s)
            s = s + k3x; u = s * C; s = u - (u - s)
            t = d6 * s; u = t * C; t = u - (u - t)
            nx = x + t; u = nx * C; nx = u - (u - nx)
            s = k1y + 4.0 * k2y; u = s * C; s = u - (u - s)
            s = s + k3y; u = s * C; s = u - (u - s)
            t = d6 * s; u = t * C; t = u - (u - t)
            ny = y + t; u = ny * C; ny = u - (u - ny)
            if not (lo <= abs(nx) <= hi and lo <= abs(ny) <= hi):
                if not (_in_window(nx) and _in_window(ny)):
                    return j, i, (x, y)
            x, y = nx, ny
        i = stop
        out.extend((x, y))
    return len(plan), i, (x, y)


_NATIVE_FN = {
    Scheme.FORWARD_EULER: _euler_native,
    Scheme.MIDPOINT_IMPLICIT: _midpoint_native,
    Scheme.RK3: _rk3_native,
}


def _native_kernel(scheme: Scheme, p: int, st, consts):
    """The native kernel of a rounded channel from the raw start st, as
    (form, run, compiled): run(plan, out) follows the sampling plan as the
    kernels above do, appending each sampled state to ``out``, a record's
    values in the form ``form``, and returns (samples done, steps
    done, the last in-range state); compiled is whether run is compiled.
    None when the channel runs on the emulator throughout: a precision
    without a native kernel, or a start or constants outside their windows,
    which are checked here and nowhere else."""
    binary64 = channel_backend(p) == BINARY64
    if not ((binary64 or scheme is Scheme.MIDPOINT_IMPLICIT)  # the integer kernel covers every p
            and _raw_in_window(st, _STATE_EXP) and _raw_in_window(consts, _CONST_EXP)):
        return None
    kernels = _load_kernels()
    if not binary64:
        return None if kernels is None else (_RAW, functools.partial(kernels.midpoint_int, p, st, consts), True)
    kernel = _NATIVE_FN[scheme] if kernels is None else functools.partial(kernels.binary64, scheme.value)
    run = functools.partial(kernel, _native_floats(st), _native_floats(consts), _split_factor(p))
    return _FLOAT, run, kernels is not None


@functools.cache
def _load_kernels():
    """The compiled kernels (a ``_compiled.Kernels``), or None when they
    cannot be built or loaded or disagree with the Python kernels; looked
    up once per process, on first use."""
    from . import _compiled

    kernels = _compiled.load()
    return kernels if kernels is not None and _known_answers(kernels) else None


_ONE_ZERO = (1, 0, 0, 0)  # the raw start (1, 0) of integrate, at every p


def starts_compiled(scheme: Scheme, params: OscillatorParams, dt, p: int) -> bool:
    """Whether a rounded channel of the scheme at p bits, integrated from
    (1, 0) with step size dt, steps on the compiled kernels: the channel's
    own choice, on the constants rounded for this dt."""
    kernel = _native_kernel(scheme, p, _ONE_ZERO, _consts(scheme, params, _as_fraction(dt), p))
    return kernel is not None and kernel[2]


def _raw_values(raws) -> list[Fraction]:
    """The values of flattened raw pairs."""
    return [_raw_to_fraction(m, e) for m, e in zip(raws[::2], raws[1::2])]


def _known_answers(kernels) -> bool:
    """Whether the compiled kernels follow a plan of mixed gaps from (1, 0)
    as the Python kernels do: each scheme's binary64 kernel at p = 10, 24
    and 53 against its Python twin, and the integer midpoint kernel at
    p = 30, 55 and 113 against the emulator.  And whether the residual keys
    of each scheme's first 8 steps at p = 24 are all decided and equal the
    exact keys."""
    from . import analysis  # imported with the package; it imports this module

    params, dt = OscillatorParams(Fraction(1, 10), Fraction(1, 5)), Fraction(3, 100)
    plan = array("q", (0, 1, 2, 5, 6, 13, 40))  # a sample at the start, gaps of 1, 3, 7 and 27 steps
    every = tuple(range(9))
    try:
        for scheme in Scheme:
            for p in (10, 24, 53):
                args = (1.0, 0.0), _native_floats(_consts(scheme, params, dt, p)), _split_factor(p), plan
                want, got = array("d"), array("d")
                if kernels.binary64(scheme.value, *args, got) != _NATIVE_FN[scheme](*args, want) or got != want:
                    return False
            record = _Record(every, _FLOAT)
            kernels.binary64(scheme.value, (1.0, 0.0), _native_floats(_consts(scheme, params, dt, 24)),
                             _split_factor(24), array("q", every), record.values)
            run = Trajectory(params, scheme, dt, PrecisionConfig(24), every[-1], record)
            keys = array("d", bytes(8 * every[-1]))
            kernels.residual_keys(record.values, analysis._key_coefficients(run, params), keys)
            if keys != array("d", (analysis._float_key(*form[1:])
                                   for form in analysis._residual_forms(run, params, range(len(every))))):
                return False
        for p in (30, 55, 113):
            c = _consts(Scheme.MIDPOINT_IMPLICIT, params, dt, p)
            want, got, st, i = [], [], _ONE_ZERO, 0
            for k in plan:
                st, i = _midpoint_fused(st, c, p, k - i), k
                want += st
            done, steps, last = kernels.midpoint_int(p, _ONE_ZERO, c, plan, got)
            if (done, steps, _raw_values([*got, *last])) != (len(plan), i, _raw_values([*want, *st])):
                return False
        return True
    except Exception:  # a library that misbehaves is not used
        return False


# ---------------------------------------------------------------------------
# One-step update matrix and integration drivers
# ---------------------------------------------------------------------------


class UpdateMatrix(_Frozen):
    """Exact 2x2 one-step matrix A with (x', y') = A (x, y)."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]):
        _set(self, "entries", entries)

    def det(self) -> Fraction:
        (p, q), (r, s) = self.entries
        return p * s - q * r

    def trace(self) -> Fraction:
        return self.entries[0][0] + self.entries[1][1]

    def apply(self, x, y) -> tuple[Fraction, Fraction]:
        (p, q), (r, s) = self.entries
        x, y = _as_fraction(x), _as_fraction(y)
        return p * x + q * y, r * x + s * y


def _pencil(scheme: Scheme, params: OscillatorParams, dt: Fraction):
    """The scheme's exact pencil (B, C), B u' = C u, as two 2x2 tuples of
    Fractions; J = [[0, -a], [b, 0]] is the system matrix."""
    a, b = params.a, params.b
    one, zero = Fraction(1), Fraction(0)
    identity = ((one, zero), (zero, one))
    if scheme is Scheme.FORWARD_EULER:  # B = I, C = I + dt*J
        return identity, ((one, -a * dt), (b * dt, one))
    if scheme is Scheme.MIDPOINT_IMPLICIT:  # B = I - dt*J/2, C = I + dt*J/2
        ha, hb = a * dt / 2, b * dt / 2
        return ((one, ha), (-hb, one)), ((one, -ha), (hb, one))
    if scheme is Scheme.RK3:
        # B = I; explicit 3-stage third order on a linear system is the cubic
        # Taylor polynomial of exp(dt*J), and J**2 = -a*b * I collapses it
        w = a * b * dt * dt
        diag = 1 - w / 2
        off = 1 - w / 6
        return identity, ((diag, -a * dt * off), (b * dt * off, diag))
    raise ValueError(f"unsupported scheme {scheme}")


def update_matrix(scheme: Scheme, params: OscillatorParams, dt) -> UpdateMatrix:
    """The exact one-step matrix B^-1 C of the scheme's pencil at step size
    dt (dt=0 gives the identity for every scheme)."""
    dt = _as_fraction(dt)
    if dt < 0:
        raise ParameterError("dt must be nonnegative")
    ((p, q), (r, s)), ((c00, c01), (c10, c11)) = _pencil(scheme, params, dt)
    det = p * s - q * r
    return UpdateMatrix((
        ((s * c00 - q * c10) / det, (s * c01 - q * c11) / det),
        ((p * c10 - r * c00) / det, (p * c11 - r * c01) / det),
    ))


# str() refuses ints of more than 4300 digits (Python's default
# int_max_str_digits), so a longer step count could not be reported.
_MAX_STEP_DIGITS = 4300
_STEP_COUNT_LIMIT = 10**_MAX_STEP_DIGITS


def num_steps(t_end, dt) -> int:
    """Nearest integer to t_end/dt (the experiments use commensurate pairs).
    Rejects a count of more than 4300 digits."""
    dt = _as_fraction(dt)
    if dt <= 0:
        raise ParameterError("dt must be positive")
    n = round(_as_fraction(t_end) / dt)
    if abs(n) >= _STEP_COUNT_LIMIT:
        raise ParameterError(f"t_end/dt is too large: the step count has more than {_MAX_STEP_DIGITS} digits")
    return n


def _check_steps(t_end: Fraction, dt: Fraction, max_steps: int) -> int:
    n = num_steps(t_end, dt)
    if t_end <= 0:
        raise ParameterError("t_end must be positive")
    if n < 1:
        raise ParameterError(f"t_end/dt = {float(t_end / dt):g} rounds to zero steps")
    if n > max_steps:
        raise StepLimitError(n, max_steps)
    return n


def integrate(
    scheme: Scheme,
    params: OscillatorParams,
    dt,
    t_end,
    cfg: Optional[PrecisionConfig] = None,
    sampling: SamplingPlan = SamplingPlan.final_only(),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Trajectory:
    """Integrate from (1, 0) for round(t_end/dt) steps; cfg=None for exact
    arithmetic.

    Runs are deterministic: identical arguments give bit-identical
    trajectories.  Raises StepLimitError beyond max_steps.
    """
    dt = _as_fraction(dt)
    n = _check_steps(_as_fraction(t_end), dt, max_steps)
    record = _channel(scheme, params, dt, cfg, Fraction(1), Fraction(0), sampling.resolve(n))
    return Trajectory(params, scheme, dt, cfg, n, record)


def step(
    scheme: Scheme,
    params: OscillatorParams,
    state: State,
    dt,
    cfg: Optional[PrecisionConfig] = None,
) -> State:
    """One step from ``state``; cfg=None for exact arithmetic.  A rounded
    step first rounds the state to the precision."""
    dt = _as_fraction(dt)
    if dt <= 0:
        raise ParameterError("dt must be positive")
    [(x, y)] = _channel(scheme, params, dt, cfg, state.x, state.y, (1,)).fractions((0,))
    return State(x, y, state.t + dt)


def _exact_fused(st, m: UpdateMatrix, p, k):
    """k exact steps in the fused kernels' calling convention: st is (x, y)
    in Fractions and m the update matrix."""
    (a, b), (c, d) = m.entries
    x, y = st
    for _ in range(k):
        x, y = a * x + b * y, c * x + d * y
    return x, y


def _channel(scheme: Scheme, params: OscillatorParams, dt: Fraction, cfg, x0, y0, wanted) -> _Record:
    """Advance one channel from (x0, y0) at step 0 through the ascending
    step indices ``wanted``; returns the record of its states there.

    cfg=None steps exactly with ``update_matrix``.  A rounded channel rounds
    the start to p bits, then steps on a native kernel while the range
    guard holds and on the fused emulator kernel otherwise.  Kernels run the
    steps between two samples in their own loops."""
    i = j = 0
    if cfg is None:
        fused, consts, p = _exact_fused, update_matrix(scheme, params, dt), None
        st, record = (x0, y0), _Record(wanted, _EXACT)
    else:
        p = cfg.significand_bits
        fused, consts = _FUSED_FN[scheme], _consts(scheme, params, dt, p)
        st = (*_fraction_to_raw(x0, p), *_fraction_to_raw(y0, p))
        native = _native_kernel(scheme, p, st, consts)
        if native is None:
            record = _Record(wanted, _RAW)
        else:  # one call, up to the last index an array('q') holds
            from ._compiled import _MAX_K

            form, run, _ = native
            record = _Record(wanted, form)
            # packed by one struct call, about 2.5 times as fast as array('q', wanted)
            k = bisect_right(wanted, _MAX_K)
            j, i, st = run(array("q", struct.Struct(f"{k}q").pack(*wanted[:k])), record.values)
            if form == _FLOAT and j < len(wanted):  # the emulator goes on from the last in-range state
                record.to_raw(p)
                st = (*_float_to_raw(st[0], p), *_float_to_raw(st[1], p))
    out = record.values
    for j in range(j, len(wanted)):
        st = fused(st, consts, p, wanted[j] - i)
        i = wanted[j]
        out.extend(st)
    return record


def integrate_pair(
    scheme: Scheme,
    params: OscillatorParams,
    dt,
    t_end,
    cfg_run: PrecisionConfig,
    cfg_ref: PrecisionConfig,
    sampling: SamplingPlan = SamplingPlan.final_only(),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[Trajectory, Trajectory]:
    """Integrate the same scheme at two precisions: two integrate() calls.

    The two channels never share rounded values; each rounds dt and the
    scheme constants at its own precision and may run on its own backend.
    """
    return (
        integrate(scheme, params, dt, t_end, cfg_run, sampling, max_steps),
        integrate(scheme, params, dt, t_end, cfg_ref, sampling, max_steps),
    )
