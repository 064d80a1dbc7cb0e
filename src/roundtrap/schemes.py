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

Compiled kernels.  The midpoint scheme, the paper's conservative scheme,
also has a C twin of its binary64 kernel and a binary128 kernel for
p = 113 (``_kernels.c``, loaded through ctypes by ``_compiled``).  IEEE
binary128 has exactly a 113-bit significand, and GCC's ``_Float128`` rounds
each +, -, * and / once, correctly, to nearest with ties to even: the
emulator's single rounding, as long as no value leaves the normal range,
which the same state and constant windows guarantee with a wide margin.
The library is built with ``-ffp-contract=off``, because GCC would
otherwise fuse a multiplication and an addition into one FMA, which rounds
once instead of twice, and without ``-ffast-math``, which would simplify
the Veltkamp split away.  It is built on first use, not at import, into
``${XDG_CACHE_HOME:-~/.cache}/roundtrap/``, and used only after 40 steps of
each kernel reproduce the Python kernels.  When anything fails (no gcc, a
compile error, an unwritable cache, no ``_Float128``, a wrong answer) the
channel silently keeps the Python kernels.  The guard and the hand-off to
the emulator are the same, so ``channel_backend``, the manifest's backends
and every output bit stay the same; the manifest's environment block
records whether the compiled kernels stepped.

The emulator runs one fused kernel per scheme (``_FUSED_FN``): each
advances the raw state k steps in its own loop, rounding with
``fpcore._round_raw`` (the midpoint kernel inlines it).  The native kernels
fix the operation order, and tests require both backends to agree bit for
bit.  ``_midpoint_step``, the midpoint rule one ``fpcore`` operation at a
time, also fixes the order of the inlined midpoint kernel, whose rounding
and division shift depend on p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .fpcore import (
    ParameterError,
    PrecisionConfig,
    _HALF,
    _add_raw,
    _div_raw,
    _fraction_to_raw,
    _mul_raw,
    _raw_to_fraction,
    _round_raw,
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


@dataclass(frozen=True, slots=True)
class SamplingPlan:
    """Which step indices of a trajectory to record.

    Either a stride (every ``stride``-th step, starting at 0) or an explicit
    index set.  The final step is always recorded.
    """

    stride: Optional[int] = None
    at_steps: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if (self.stride is None) == (self.at_steps is None):
            raise ParameterError("specify exactly one of stride or at_steps")
        if self.stride is not None and self.stride < 1:
            raise ParameterError("stride must be >= 1")
        if self.at_steps is not None:
            object.__setattr__(self, "at_steps", tuple(sorted(set(self.at_steps))))

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
            idx = set(range(0, n_steps + 1, self.stride))
        else:
            idx = {s for s in self.at_steps if 0 <= s <= n_steps}
        idx.add(n_steps)
        return tuple(sorted(idx))


@dataclass(frozen=True, slots=True)
class Trajectory:
    """Recorded integration output.  ``dt`` is the exact requested step size;
    sample times are step_index * dt.  ``precision`` is None for exact
    arithmetic runs."""

    params: OscillatorParams
    scheme: Scheme
    dt: Fraction
    precision: Optional[PrecisionConfig]
    n_steps: int
    samples: tuple[tuple[int, State], ...]

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
        return self.samples[-1][1]


# ---------------------------------------------------------------------------
# Rounded-mode states are (mx, ex, my, ey) integer quadruples; constants are
# precomputed per run by _consts().  _midpoint_step is one midpoint step, one
# fpcore operation at a time: the oracle of the inlined _midpoint_fused.
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
# same operands.  Euler and RK3 call fpcore's _round_raw and _add_raw
# directly, with no per-operation wrapper.
#
# The midpoint kernel, the reference channel of the default sweep, does the
# operations of _midpoint_step above and returns the same integer quadruple,
# but inlines each of them, _round_raw's floor-shift rounding included (_HALF is
# fpcore's table).  It divides by 1+k at the constant shift 2p+4: dividends
# and divisors carry at most p bits, so that leaves a quotient of at least
# p+5 bits above its sticky bit, enough for one correct rounding, and
# correct rounding is unique, so _div_raw's width-dependent shift gives the
# same result.  A zero result is (0, 0), as _round_raw returns it.
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
    nam = -am  # -(a*dt (x) y) = -a*dt (x) y, so x's subtraction is an addition
    half, far, sticky, shift = _HALF, 2 * p + 1, p + 4, 2 * p + 4
    qe = ope + shift
    for _ in range(k):
        # x (x) (1-k) and -a*dt (x) y
        u1 = mx * omm; u1e = ex + ome
        s = u1.bit_length() - p
        if s > 0:
            u1 = (u1 + half[s] + ((u1 >> s) & 1)) >> s; u1e += s
            if u1.bit_length() > p: u1 >>= 1; u1e += 1
        elif not u1: u1e = 0
        u2 = nam * my; u2e = ae + ey
        s = u2.bit_length() - p
        if s > 0:
            u2 = (u2 + half[s] + ((u2 >> s) & 1)) >> s; u2e += s
            if u2.bit_length() > p: u2 >>= 1; u2e += 1
        elif not u2: u2e = 0
        # y (x) (1-k) and b*dt (x) x
        v1 = my * omm; v1e = ey + ome
        s = v1.bit_length() - p
        if s > 0:
            v1 = (v1 + half[s] + ((v1 >> s) & 1)) >> s; v1e += s
            if v1.bit_length() > p: v1 >>= 1; v1e += 1
        elif not v1: v1e = 0
        v2 = bm * mx; v2e = be + ex
        s = v2.bit_length() - p
        if s > 0:
            v2 = (v2 + half[s] + ((v2 >> s) & 1)) >> s; v2e += s
            if v2.bit_length() > p: v2 >>= 1; v2e += 1
        elif not v2: v2e = 0
        # nx = u1 (+) u2, then (/) (1+k)
        if u1 and u2:
            d = u1e - u2e
            if d >= 0:
                if d <= far: n = (u1 << d) + u2; ne = u2e
                else: n = (u1 << sticky) + (1 if u2 > 0 else -1); ne = u1e - sticky
            elif d >= -far: n = u1 + (u2 << -d); ne = u1e
            else: n = (u2 << sticky) + (1 if u1 > 0 else -1); ne = u2e - sticky
            s = n.bit_length() - p
            if s > 0:
                n = (n + half[s] + ((n >> s) & 1)) >> s; ne += s
                if n.bit_length() > p: n >>= 1; ne += 1
        elif u1: n, ne = u1, u1e
        else: n, ne = u2, u2e
        if n:
            q, r = divmod(n << shift, opm)
            if r: q |= 1
            s = q.bit_length() - p
            mx = (q + half[s] + ((q >> s) & 1)) >> s; ex = ne - qe + s
            if mx.bit_length() > p: mx >>= 1; ex += 1
        else: mx = ex = 0
        # ny = v1 (+) v2, then (/) (1+k)
        if v1 and v2:
            d = v1e - v2e
            if d >= 0:
                if d <= far: n = (v1 << d) + v2; ne = v2e
                else: n = (v1 << sticky) + (1 if v2 > 0 else -1); ne = v1e - sticky
            elif d >= -far: n = v1 + (v2 << -d); ne = v1e
            else: n = (v2 << sticky) + (1 if v1 > 0 else -1); ne = v2e - sticky
            s = n.bit_length() - p
            if s > 0:
                n = (n + half[s] + ((n >> s) & 1)) >> s; ne += s
                if n.bit_length() > p: n >>= 1; ne += 1
        elif v1: n, ne = v1, v1e
        else: n, ne = v2, v2e
        if n:
            q, r = divmod(n << shift, opm)
            if r: q |= 1
            s = q.bit_length() - p
            my = (q + half[s] + ((q >> s) & 1)) >> s; ey = ne - qe + s
            if my.bit_length() > p: my >>= 1; ey += 1
        else: my = ey = 0
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
# with C = 2**(53-p) + 1.  A kernel advances
# up to k steps and returns (steps done, x, y): it stops before the first
# step whose result fails the range guard, leaving the last in-range state.
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
_BINARY128_BITS = 113
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
    [2**-exp, 2**exp), checked on the raw exponent."""
    return all(not m or -exp <= e + abs(m).bit_length() - 1 < exp for m, e in zip(raws[::2], raws[1::2]))


def _native_floats(raws, exp: int):
    """Flattened raw pairs of at most 53 bits as floats, or None when one
    lies outside its window, before math.ldexp could overflow or leave the
    normal range."""
    if not _raw_in_window(raws, exp):
        return None
    return tuple(math.ldexp(m, e) for m, e in zip(raws[::2], raws[1::2]))  # exact


def _euler_native(x, y, k, c, C):
    na, b, d = c
    lo, hi = _STATE_LO, _STATE_HI
    for j in range(k):
        t1 = na * y; u = t1 * C; t1 = u - (u - t1)
        t2 = d * t1; u = t2 * C; t2 = u - (u - t2)
        nx = x + t2; u = nx * C; nx = u - (u - nx)
        u1 = b * x; u = u1 * C; u1 = u - (u - u1)
        u2 = d * u1; u = u2 * C; u2 = u - (u - u2)
        ny = y + u2; u = ny * C; ny = u - (u - ny)
        if not (lo <= abs(nx) <= hi and lo <= abs(ny) <= hi):
            if not (_in_window(nx) and _in_window(ny)):
                return j, x, y
        x, y = nx, ny
    return k, x, y


def _midpoint_native(x, y, k, c, C):
    om, op, ad, bd = c
    lo, hi = _STATE_LO, _STATE_HI
    for j in range(k):
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
                return j, x, y
        x, y = qx, qy
    return k, x, y


def _rk3_native(x, y, k, c, C):
    na, b, d, h, d2, d6 = c
    lo, hi = _STATE_LO, _STATE_HI
    for j in range(k):
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
                return j, x, y
        x, y = nx, ny
    return k, x, y


_NATIVE_FN = {
    Scheme.FORWARD_EULER: _euler_native,
    Scheme.MIDPOINT_IMPLICIT: _midpoint_native,
    Scheme.RK3: _rk3_native,
}


def _python_native(kernel, xy, c, C):
    """A Python kernel above in the calling convention of ``_native_kernel``."""
    x, y = xy

    def advance(k):
        nonlocal x, y
        done, x, y = kernel(x, y, k, c, C)
        # from the exact ratio: Fraction(float) takes a slower path to it
        return done, Fraction(*x.as_integer_ratio()), Fraction(*y.as_integer_ratio())

    return advance


def _native_kernel(scheme: Scheme, p: int, st, consts):
    """The native kernel of a rounded channel from the raw start st: a
    function k -> (steps done, x, y) that advances the channel up to k steps
    and returns its last in-range state as Fractions.  None when the channel
    runs on the emulator throughout: a precision without a native kernel,
    or a start or constants outside their windows."""
    compiled = _load_kernels() if _compiled_precision(scheme, p) else None
    binary64 = channel_backend(p) == BINARY64
    if not (binary64 or compiled):
        return None
    if not (_raw_in_window(st, _STATE_EXP) and _raw_in_window(consts, _CONST_EXP)):
        return None
    if not binary64:
        return compiled.midpoint_b128(st, consts)
    xy, c, C = _native_floats(st, _STATE_EXP), _native_floats(consts, _CONST_EXP), _split_factor(p)
    if compiled is not None:
        return compiled.midpoint_b64(xy, c, C)
    return _python_native(_NATIVE_FN[scheme], xy, c, C)


def _compiled_precision(scheme: Scheme, p: int) -> bool:
    """Whether the compiled kernels cover the scheme at p bits: the
    midpoint scheme in binary64 where channel_backend says so, and in
    binary128 at p = 113."""
    return scheme is Scheme.MIDPOINT_IMPLICIT and (channel_backend(p) == BINARY64 or p == _BINARY128_BITS)


@functools.cache
def _load_kernels():
    """The compiled midpoint kernels (a ``_compiled.Kernels``), or None when
    they cannot be built or loaded or disagree with the Python kernels;
    looked up once per process, on first use."""
    from . import _compiled

    kernels = _compiled.load()
    return kernels if kernels is not None and _known_answers(kernels) else None


def compiled_kernels(scheme: Scheme, p: int) -> bool:
    """Whether a rounded channel of the scheme at p bits steps on the
    compiled kernels (while its values stay inside the windows)."""
    return _compiled_precision(scheme, p) and _load_kernels() is not None


def _known_answers(kernels) -> bool:
    """Whether 40 compiled midpoint steps from (1, 0) give the Python
    kernels' results at p = 10, 24, 53 and 113."""
    params, dt, k = OscillatorParams(Fraction(1, 10), Fraction(1, 5)), Fraction(3, 100), 40
    start = (1, 0, 0, 0)
    try:
        for p in (10, 24, 53, _BINARY128_BITS):
            c = _consts(Scheme.MIDPOINT_IMPLICIT, params, dt, p)
            if p == _BINARY128_BITS:
                mx, ex, my, ey = _midpoint_fused(start, c, p, k)
                want = (k, _raw_to_fraction(mx, ex), _raw_to_fraction(my, ey))
                got = kernels.midpoint_b128(start, c)(k)
            else:
                xy, cf, C = (1.0, 0.0), _native_floats(c, _CONST_EXP), _split_factor(p)
                want = _python_native(_midpoint_native, xy, cf, C)(k)
                got = kernels.midpoint_b64(xy, cf, C)(k)
            if got != want:
                return False
    except Exception:  # a library that misbehaves is not used
        return False
    return True


# ---------------------------------------------------------------------------
# One-step update matrix and integration drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class UpdateMatrix:
    """Exact 2x2 one-step matrix A with (x', y') = A (x, y)."""

    entries: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

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
    samples = _channel(scheme, params, dt, cfg, Fraction(1), Fraction(0), sampling.resolve(n))
    return Trajectory(params, scheme, dt, cfg, n, tuple(samples))


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
    [(_, s)] = _channel(scheme, params, dt, cfg, state.x, state.y, (1,))
    return State(s.x, s.y, state.t + dt)


def _exact_fused(st, m: UpdateMatrix, p, k):
    """k exact steps in the fused kernels' calling convention: st is (x, y)
    in Fractions and m the update matrix."""
    (a, b), (c, d) = m.entries
    x, y = st
    for _ in range(k):
        x, y = a * x + b * y, c * x + d * y
    return x, y


def _channel(scheme: Scheme, params: OscillatorParams, dt: Fraction, cfg, x0, y0, wanted):
    """Advance one channel from (x0, y0) at step 0 through the ascending
    step indices ``wanted``; returns the (i, State at time i*dt) samples.

    cfg=None steps exactly with ``update_matrix``.  A rounded channel rounds
    the start to p bits, then steps on a native kernel while the range
    guard holds and on the fused emulator kernel otherwise.  Kernels run the
    steps between two samples in their own loops."""
    native = None
    if cfg is None:
        fused, consts, p = _exact_fused, update_matrix(scheme, params, dt), None
        st = (x0, y0)
    else:
        p = cfg.significand_bits
        fused, consts = _FUSED_FN[scheme], _consts(scheme, params, dt, p)
        st = (*_fraction_to_raw(x0, p), *_fraction_to_raw(y0, p))
        native = _native_kernel(scheme, p, st, consts)
    samples = []
    i = 0
    for target in wanted:
        if native is not None:
            done, x, y = native(target - i)
            if done == target - i:
                i = target  # the caller's int: a long run keeps no int per sample of its own
                samples.append((i, State(x, y, i * dt)))
                continue
            i += done
            # the guard tripped: the emulator takes over from the last
            # in-range state for the rest of the channel
            st = (*_fraction_to_raw(x, p), *_fraction_to_raw(y, p))
            native = None
        st = fused(st, consts, p, target - i)
        i = target
        x, y = st if cfg is None else (_raw_to_fraction(st[0], st[1]), _raw_to_fraction(st[2], st[3]))
        samples.append((i, State(x, y, i * dt)))
    return samples


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
