"""Error decomposition, residual diagnostics, and convergence-economics
measures.

The decomposition compares three states at one time: the computed solution
(run precision), a reference carrying only discretization error (same scheme
and step, much wider precision), and the analytic solution.  Differences are
formed exactly -- states store exact rationals -- so total = truncation +
round-off holds componentwise by construction, not approximately.  Norms and
other irrational quantities are evaluated wide (240 bits) and returned as
exact rationals of the evaluated value.  An error's components and norm are
evaluated when first read, the norm from integer numerators over one
common denominator.

The consistency residual (B u1 - C u0)/delta is formed exactly over integers
from the scheme's pencil (B, C), the definition exact steps also use.  Its
median and max are selected on the exact squared norms, with a wide norm
only for the pairs that can decide them.  The pairs are ranked by float
keys, the squared norms correctly rounded.  For a run at p <= 25 recorded
in binary64 the compiled kernel gives them in double-double, leaving NaN
where its error bound cannot prove the rounding; those pairs, other runs
(a run whose range guard tripped among them) and hosts without the
compiled kernels take their keys from the exact integers.  At p = 53 the
residual cancels too many bits for double-double, and every key is exact.
"""

from __future__ import annotations

import bisect
import math
from array import array
from enum import Enum
from fractions import Fraction
from itertools import compress
from typing import Optional, Sequence

from . import _wide, schemes
from .fpcore import ParameterError, PrecisionConfig, _Frozen, _set
from .oscillator import OscillatorParams, State, invariant_value, _as_fraction
from .schemes import Scheme, Trajectory, UpdateMatrix, _pencil, update_matrix


class ErrorVec:
    """The error ``a - b`` of one state against another: its components and
    its Euclidean norm, each evaluated when first read.  The norm comes from
    the four coordinates' numerators over one denominator, without forming
    the components.  Two ErrorVecs are equal when their components are (the
    norm is a function of them)."""

    __slots__ = ("_a", "_b", "_norm")

    def __init__(self, a: State, b: State):
        self._a = a
        self._b = b
        self._norm = None

    # a slotted class pickles at protocols 0 and 1 only with its own __getstate__
    def __getstate__(self):
        return self._a, self._b, self._norm

    def __setstate__(self, state):
        self._a, self._b, self._norm = state

    @property
    def x(self) -> Fraction:
        return self._a.x - self._b.x

    @property
    def y(self) -> Fraction:
        return self._a.y - self._b.y

    @property
    def norm(self) -> Fraction:
        if self._norm is None:
            a, b = self._a, self._b
            ax, ay, bx, by = a.x, a.y, b.x, b.y
            dax, day, dbx, dby = ax.denominator, ay.denominator, bx.denominator, by.denominator
            if (dax & (dax - 1)) | (day & (day - 1)) | (dbx & (dbx - 1)) | (dby & (dby - 1)):
                (nax, nay, nbx, nby), den = _wide.align(ax, ay, bx, by)
                u, v = nax - nbx, nay - nby
            else:  # all powers of two: shift each numerator to the largest one
                k = max(dax, day, dbx, dby).bit_length()
                u = (ax.numerator << (k - dax.bit_length())) - (bx.numerator << (k - dbx.bit_length()))
                v = (ay.numerator << (k - day.bit_length())) - (by.numerator << (k - dby.bit_length()))
                den = 1 << (k - 1)
            self._norm = _wide.wide_norm2(u, v, den)
        return self._norm

    def __eq__(self, other):
        if not isinstance(other, ErrorVec):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"ErrorVec(x={self.x!r}, y={self.y!r}, norm={self.norm!r})"


class ErrorTriple(_Frozen):
    """Total, truncation, and round-off error at time t, with
    total = truncation + roundoff exact componentwise."""

    __slots__ = ("total", "truncation", "roundoff", "t")

    def __init__(self, total: ErrorVec, truncation: ErrorVec, roundoff: ErrorVec, t: Fraction):
        _set(self, "total", total)
        _set(self, "truncation", truncation)
        _set(self, "roundoff", roundoff)
        _set(self, "t", t)


_SET_TOTAL, _SET_TRUNCATION, _SET_ROUNDOFF, _SET_T = (
    ErrorTriple.total.__set__, ErrorTriple.truncation.__set__, ErrorTriple.roundoff.__set__, ErrorTriple.t.__set__)


def error_separation(actual: State, reference: State, analytic: State) -> ErrorTriple:
    """Split the error of ``actual`` against ``analytic`` into the
    truncation part (carried by ``reference``) and the round-off part
    (actual minus reference).  All three states must share the same t.
    Nothing is computed until a component or norm is read."""
    if not (actual.t is reference.t is analytic.t or actual.t == reference.t == analytic.t):
        raise ParameterError(
            f"states are at different times: {actual.t}, {reference.t}, {analytic.t}"
        )
    triple = object.__new__(ErrorTriple)  # set through the slots' descriptors, as ErrorTriple(...) would
    _SET_TOTAL(triple, ErrorVec(actual, analytic))
    _SET_TRUNCATION(triple, ErrorVec(reference, analytic))
    _SET_ROUNDOFF(triple, ErrorVec(actual, reference))
    _SET_T(triple, actual.t)
    return triple


# ---------------------------------------------------------------------------
# Consistency residual
# ---------------------------------------------------------------------------


def _residual_matrix(trajectory: Trajectory, params: OscillatorParams):
    """(m, scale): the residual's matrix [B/delta | -C/delta], which maps
    (x1, y1, x0, y0) to (B u1 - C u0)/delta, is m/scale, its two rows
    flattened into eight integers; (B, C) is the scheme's exact pencil at
    the machine step size delta."""
    delta = trajectory.machine_dt
    b, c = _pencil(trajectory.scheme, params, delta)
    entries = (*b[0], *b[1], *c[0], *c[1])
    den = math.lcm(*(e.denominator for e in entries))
    # B = Bi/den and C = Ci/den, with 1/delta folded into the integers
    b00, b01, b10, b11, c00, c01, c10, c11 = (
        e.numerator * (den // e.denominator) * delta.denominator for e in entries
    )
    return (b00, b01, -c00, -c01, b10, b11, -c10, -c11), den * delta.numerator


def _residual_forms(trajectory: Trajectory, params: OscillatorParams, ordinals):
    """(i, rx, ry, d) for each step pair (i, i + 1) among the samples at the
    ascending ordinals: the residual (B u1 - C u0)/delta is (rx, ry)/d.
    Each component is one integer linear form over the pair's common
    denominator (a power of two for a rounded run) and the matrix's.  Each
    state is read from the trajectory's record as integers once, and a
    pair's second state is the next pair's first."""
    (b00, b01, c00, c01, b10, b11, c10, c11), scale = _residual_matrix(trajectory, params)
    lcm, steps = math.lcm, trajectory.steps
    o0 = i0 = -2
    for o, i, (nx1, ny1, q1) in zip(ordinals, map(steps.__getitem__, ordinals),
                                    trajectory.record.integers(ordinals)):
        if o == o0 + 1 and i == i0 + 1:
            q = lcm(q0, q1)
            a0, a1 = q // q0, q // q1
            x0, y0, x1, y1 = nx0 * a0, ny0 * a0, nx1 * a1, ny1 * a1
            yield (i0, b00 * x1 + b01 * y1 + c00 * x0 + c01 * y0,
                   b10 * x1 + b11 * y1 + c10 * x0 + c11 * y0, scale * q)
        o0, i0, nx0, ny0, q0 = o, i, nx1, ny1, q1


_NO_PAIRS = "trajectory has no consecutive step pairs; sample with stride 1"


def consistency_residual(
    trajectory: Trajectory, params: OscillatorParams
) -> list[tuple[int, Fraction]]:
    """Norm of (B u1 - C u0)/delta for each consecutive sampled step pair,
    with (B, C) the scheme's exact pencil at the machine step size delta.

    For an exact-arithmetic trajectory this is identically zero; under
    rounding it measures the injected per-step error divided by dt: the
    quantity whose failure to vanish breaks consistency.  Keyed by the index
    of the earlier step of each pair.  The norm is taken from the two
    components' integer forms directly.
    """
    out = [
        (i, _wide.wide_norm2(rx, ry, d))
        for i, rx, ry, d in _residual_forms(trajectory, params, range(len(trajectory.steps)))
    ]
    if not out:
        raise ParameterError(_NO_PAIRS)
    return out


def _float_key(rx: int, ry: int, d: int) -> float:
    """(rx**2 + ry**2)/d**2 correctly rounded to a float (int/int true
    division rounds correctly), inf beyond the float range."""
    try:
        return (rx * rx + ry * ry) / (d * d)
    except OverflowError:
        return math.inf


def _key_coefficients(trajectory: Trajectory, params: OscillatorParams):
    """hi = float(e) and lo = float(e - hi) for each entry e of the
    residual's matrix (``_residual_matrix``); None when an entry is beyond
    the float range or rounds to 0 without being 0."""
    m, scale = _residual_matrix(trajectory, params)
    out = []
    for n in m:
        try:
            hi = n / scale  # int/int true division rounds correctly
        except OverflowError:
            return None
        if n and not hi:
            return None
        hn, hd = hi.as_integer_ratio()
        out += (hi, (n * hd - hn * scale) / (scale * hd))
    return out


_KEYS_MAX_P = 25  # at p = 53 the residual cancels too many bits for double-double keys


def _compiled_keys(trajectory: Trajectory, params: OscillatorParams):
    """(keys, undecided): a float key for each pair of adjacent samples
    (o, o + 1), from the compiled kernel for a float record of a run at
    p <= 25, else NaN; undecided counts the NaNs.  A key that is not NaN
    equals ``_float_key`` of the pair's forms."""
    n = len(trajectory.steps) - 1
    keys = array("d", [math.nan]) * n
    cfg = trajectory.precision
    if cfg is None or cfg.significand_bits > _KEYS_MAX_P or trajectory.record.form != schemes._FLOAT:
        return keys, n
    kernels = schemes._load_kernels()  # looked up at call time: tests switch the kernels off
    m = None if kernels is None else _key_coefficients(trajectory, params)
    if m is None:
        return keys, n
    return keys, kernels.residual_keys(trajectory.record.values, m, keys)


def residual_summary(
    trajectory: Trajectory, params: OscillatorParams
) -> tuple[int, Fraction, Fraction]:
    """(count, median, max) of ``consistency_residual``'s norms, the median
    being element count // 2 of the sorted norms, with ``wide_norm2``
    evaluated only for the pairs that can decide the two.

    Each pair's exact squared norm s = (rx**2 + ry**2)/d**2 is first rounded
    to a float key (``_float_key``: the key is monotone in s; inf when s is
    beyond the float range).  The compiled kernel gives the keys of a
    binary64 run's pairs, each proved to be that rounding or left NaN; the
    NaN keys, and every key of other runs, come from the exact integer
    forms.  Before its correctly rounded square root, ``wide_norm2``'s wide
    value is s times (1 + e1)(1 + e2) with |ei| <= 2**-240: the rounding of
    the numerator and the division by the denominator's odd part, in
    ``_wide._to_raw``.  So the 240-bit norms of two pairs can be out of
    order only when their exact squared norms are within 2**-238 of each
    other, relatively.  Keys two or more float steps apart imply a much
    larger gap, also at 0.0, among subnormals and at inf; equal exact values
    give equal norms.  For a rank, the band is every pair whose key lies
    within one ``math.nextafter`` step of the ranked key.  A pair keyed
    below the band is two or more steps below the ranked key, so its norm
    exceeds no norm keyed at or above it, and it sorts below the rank; a
    pair keyed above the band mirrors this.  So the element at the rank is
    the band's sorted norm at the rank minus the number of pairs keyed below
    the band.
    """
    steps = trajectory.steps
    keys, undecided = _compiled_keys(trajectory, params)
    if undecided:  # the exact keys of the undecided step pairs
        todo = [o for o in compress(range(len(keys)), map(math.isnan, keys)) if steps[o + 1] == steps[o] + 1]
        at = {steps[o]: o for o in todo}  # first step -> ordinal
        ordinals = range(len(steps)) if undecided == len(keys) else sorted({o + t for o in todo for t in (0, 1)})
        for i, rx, ry, d in _residual_forms(trajectory, params, ordinals):
            if i in at:
                keys[at[i]] = _float_key(rx, ry, d)
    if steps[-1] - steps[0] == len(keys):  # every pair of adjacent samples is a step pair
        firsts = steps[:-1]
    else:
        pairs = [o for o in range(len(keys)) if steps[o + 1] == steps[o] + 1]
        firsts, keys = [steps[o] for o in pairs], [keys[o] for o in pairs]
    if not keys:
        raise ParameterError(_NO_PAIRS)
    ranked = sorted(keys)
    bands = []  # (rank, number of keys below the band, the band's first steps)
    for rank in (len(keys) // 2, len(keys) - 1):
        lo = math.nextafter(ranked[rank], -math.inf)
        hi = math.nextafter(ranked[rank], math.inf)
        band = [i for i, key in zip(firsts, keys) if lo <= key <= hi]
        bands.append((rank, bisect.bisect_left(ranked, lo), band))
    wanted = {i for _, _, band in bands for i in band}
    ordinals = sorted({bisect.bisect_left(steps, i) + t for i in wanted for t in (0, 1)})
    norms = {
        i: _wide.wide_norm2(rx, ry, d)
        for i, rx, ry, d in _residual_forms(trajectory, params, ordinals) if i in wanted
    }
    median, top = (sorted(norms[i] for i in band)[rank - below] for rank, below, band in bands)
    return len(keys), median, top


# ---------------------------------------------------------------------------
# A-priori error bound from the error recurrence
# ---------------------------------------------------------------------------


class BoundMode(Enum):
    WORST_CASE = "worst_case"
    RANDOM_WALK = "random_walk"


class ErrorBoundModel(_Frozen):
    """Magnitude model for the per-step injected error.

    WORST_CASE accumulates n*eps (aligned errors), RANDOM_WALK sqrt(n)*eps
    (independent signs).  Neither is asserted as ground truth; measured
    round-off decides which fits.
    """

    __slots__ = ("mode", "per_step_eps")

    def __init__(self, mode: BoundMode, per_step_eps: Fraction):
        per_step_eps = _as_fraction(per_step_eps)
        if per_step_eps <= 0:
            raise ParameterError("per_step_eps must be positive")
        _set(self, "mode", mode)
        _set(self, "per_step_eps", per_step_eps)

    @classmethod
    def for_precision(
        cls, cfg: PrecisionConfig, params: OscillatorParams, mode: BoundMode = BoundMode.WORST_CASE
    ) -> "ErrorBoundModel":
        """Default eps: unit roundoff scaled by the orbit's max state norm."""
        scale = max(Fraction(1), params.amplitude_y())
        return cls(mode, cfg.unit_roundoff * scale)


def _spectral_norm(m00: float, m01: float, m10: float, m11: float) -> float:
    # largest singular value of a 2x2 real matrix, closed form
    a = m00 * m00 + m10 * m10
    b = m00 * m01 + m10 * m11
    c = m01 * m01 + m11 * m11
    half = 0.5 * (a + c)
    rad = math.sqrt(max(0.0, (0.5 * (a - c)) ** 2 + b * b))
    return math.sqrt(max(0.0, half + rad))


def _power_norm_cap(m: UpdateMatrix, n: int) -> float:
    """Upper bound for max_{k<=n} ||A^k||_2.

    For a complex eigenpair (every scheme here at dt>0) A is similar to a
    rotation-scaling; the similarity's condition number times max(1, rho)**n
    bounds all powers, and is inf when that power overflows a float.  Falls
    back to scanning a nested index ladder when the eigenvalues are real.
    """
    (p, q), (r, s) = (tuple(map(float, row)) for row in m.entries)
    det = p * s - q * r
    tr = p + s
    disc = tr * tr - 4.0 * det
    if disc < 0.0:
        mu = 0.5 * math.sqrt(-disc)
        tau = 0.5 * tr
        # real form basis from the eigenvector (q, lambda - p); q != 0 when disc < 0
        v00, v01, v10, v11 = q, 0.0, tau - p, mu
        vdet = v00 * v11 - v01 * v10
        cond = _spectral_norm(v00, v01, v10, v11) * _spectral_norm(
            v11 / vdet, -v01 / vdet, -v10 / vdet, v00 / vdet
        )
        rho = math.sqrt(det)
        try:
            growth = max(1.0, rho) ** n
        except OverflowError:
            return math.inf
        return cond * growth
    # real eigenvalues: scan 1..64 plus powers of two (nested in n, so the
    # result stays monotone nondecreasing in n)
    best = 1.0
    a00, a01, a10, a11 = 1.0, 0.0, 0.0, 1.0
    for k in range(1, min(n, 64) + 1):
        a00, a01, a10, a11 = (
            a00 * p + a01 * r,
            a00 * q + a01 * s,
            a10 * p + a11 * r,
            a10 * q + a11 * s,
        )
        best = max(best, _spectral_norm(a00, a01, a10, a11))
    b00, b01, b10, b11 = p, q, r, s
    k = 1
    while 2 * k <= n:
        b00, b01, b10, b11 = (
            b00 * b00 + b01 * b10,
            b00 * b01 + b01 * b11,
            b10 * b00 + b11 * b10,
            b10 * b01 + b11 * b11,
        )
        k *= 2
        best = max(best, _spectral_norm(b00, b01, b10, b11))
    return best


def predict_error_bound(
    params: OscillatorParams,
    scheme: Scheme,
    dt,
    n: int,
    model: ErrorBoundModel,
) -> float:
    """A-priori bound for the global error after n steps.

    K * (accumulated per-step eps + n*dt*c) where K bounds the powers of the
    one-step matrix and c is the scheme's local truncation scale
    (~ state_scale * w**(order+1) * dt**order / (order+1)!).  With eps = 0
    this is the classical discretization bound and vanishes as dt -> 0 at
    fixed T = n*dt; with eps > 0 the accumulated term diverges instead.
    Order-of-magnitude tool, monotone in n and in per_step_eps; inf when
    its float evaluation overflows.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    dt = _as_fraction(dt)
    try:
        k_const = _power_norm_cap(update_matrix(scheme, params, dt), n)
        omega = float(params.angular_frequency())
        amp = max(1.0, float(params.amplitude_y()))
        order = scheme.order
        c_bound = amp * omega ** (order + 1) * float(dt) ** order / math.factorial(order + 1)
        eps = float(model.per_step_eps)
        if model.mode is BoundMode.RANDOM_WALK:
            eps_term = math.sqrt(n) * eps
        else:
            eps_term = n * eps
        return k_const * (eps_term + n * float(dt) * c_bound)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Spectral diagnostics
# ---------------------------------------------------------------------------


class SpectralInfo(_Frozen):
    """Determinant and eigenvalue moduli of a one-step matrix."""

    __slots__ = ("det", "eigenvalue_moduli")

    def __init__(self, det: Fraction, eigenvalue_moduli: tuple[Fraction, Fraction]):
        _set(self, "det", det)
        _set(self, "eigenvalue_moduli", eigenvalue_moduli)


def spectral_analysis(m: UpdateMatrix) -> SpectralInfo:
    """Exact determinant and wide-precision eigenvalue moduli of a one-step
    matrix.  A complex pair has both moduli equal to sqrt(det)."""
    det = m.det()
    tr = m.trace()
    disc = tr * tr - 4 * det
    if disc < 0:
        mod = _wide.wide_sqrt(det)
        return SpectralInfo(det, (mod, mod))
    root = _wide.wide_sqrt(disc)
    lam1 = (tr + root) / 2
    lam2 = (tr - root) / 2
    return SpectralInfo(det, (abs(lam1), abs(lam2)))


# ---------------------------------------------------------------------------
# Relative-convergence measures over experiment output
# ---------------------------------------------------------------------------


def effective_computation_time(series: Sequence[tuple], threshold) -> Optional[Fraction]:
    """Earliest t at which the error reaches the admissible bound; None if
    it never does.  ``series`` is (t, error_norm) pairs with strictly
    increasing t."""
    threshold = _as_fraction(threshold)
    if threshold <= 0:
        raise ParameterError("threshold must be positive")
    if len(series) == 0:
        raise ParameterError("empty series")
    pairs = [(_as_fraction(t), _as_fraction(err)) for t, err in series]
    if any(t1 >= t2 for (t1, _), (t2, _) in zip(pairs, pairs[1:])):
        raise ParameterError("series times must be strictly increasing")
    for t, err in pairs:
        if err >= threshold:
            return t
    return None


def optimal_step_size(sweep: Sequence):
    """The sweep record with minimal total error norm; ties go to the larger
    (cheaper) dt.  Records whose error is missing (guard-tripped legs) are
    ignored."""
    candidates = [r for r in sweep if getattr(r, "e_total", None) is not None]
    if not candidates:
        raise ParameterError("sweep contains no completed records")
    return min(candidates, key=lambda r: (r.e_total, -r.dt))


def conservation_drift(
    trajectory: Trajectory, params: OscillatorParams
) -> list[tuple[Fraction, Fraction]]:
    """|invariant - invariant at (1, 0)| at each sample, computed exactly.
    The baseline is b: every integration starts at (1, 0)."""
    baseline = params.b
    return [
        (state.t, abs(invariant_value(params, state) - baseline))
        for _, state in trajectory.samples
    ]
