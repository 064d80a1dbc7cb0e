"""Command-line front end.

Three subcommands drive the experiments and diagnostics and emit plot-ready
CSV files plus a manifest.json recording the fully resolved configuration
and the backend (binary64 or emulated) of each integrated channel:

    roundtrap sweep    [flags]          -> sweep.csv, manifest.json
    roundtrap longrun  [flags]          -> timeseries.csv, manifest.json
    roundtrap diagnose MODE [flags]     -> diagnostics.csv, manifest.json

Flag values override a --config JSON file, which overrides built-in defaults
(the headline sweep: a=0.1, b=0.2, midpoint scheme, desk-scale step list).
Numeric flags are parsed as exact decimals, so "0.1" means 1/10, not the
nearest double.  Error norms are printed with 25 significant digits, enough
to round-trip the wide-precision value.  Replaying a manifest's resolved
configuration reproduces every data column bit for bit (wall_time_s and the
manifest timestamp are excluded from that guarantee).

Exit codes: 0 success, 2 usage error (a ParameterError), 3 step-count
guard, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .analysis import (
    BoundMode,
    ErrorBoundModel,
    consistency_residual,
    conservation_drift,
    effective_computation_time,
    optimal_step_size,
    predict_error_bound,
    spectral_analysis,
)
from .fpcore import ParameterError, PrecisionConfig
from .oscillator import OscillatorParams
from .schemes import (
    SamplingPlan,
    Scheme,
    StepLimitError,
    channel_backend,
    integrate,
    num_steps,
    update_matrix,
)
from .experiments import (
    DESK_DT_STRINGS,
    STATUS_OK,
    SweepConfig,
    SweepRecord,
    longtime_run,
    stepsize_sweep,
)

SCHEMA_VERSION = 1
OUT_DIR_ENV = "ROUNDTRAP_OUT_DIR"

SWEEP_CSV = "sweep.csv"
TIMESERIES_CSV = "timeseries.csv"
DIAGNOSTICS_CSV = "diagnostics.csv"
MANIFEST_JSON = "manifest.json"

_LOG10_2 = math.log10(2)


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"{flag}: cannot parse {text!r} as a number") from None


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{flag}: cannot parse {text!r} as an integer") from None


def _parse_precision(text: str, flag: str) -> PrecisionConfig:
    try:
        return PrecisionConfig(_parse_int(text, flag))
    except ParameterError as exc:
        raise ParameterError(f"{flag}: {exc}") from None


def format_wide(x: Optional[Fraction], digits: int = 25) -> str:
    """Deterministic decimal rendering with enough digits to round-trip the
    wide value; 'nan' for missing values.  The text is decimal's for
    Decimal(numerator) / Decimal(denominator) at precision ``digits``, but
    found by integer scaling, in time near-linear in the size of x (the
    Decimal conversions take quadratic time)."""
    if x is None:
        return "nan"
    if x == 0:
        return "0"
    num, den = abs(x.numerator), x.denominator
    low, high = 10 ** (digits - 1), 10**digits
    # q = num/den / 10**e in [low, high), from an estimate of e; then round
    # q half to even, and drop an exact result's trailing zeros down to units
    e = math.floor((num.bit_length() - den.bit_length()) * _LOG10_2) - digits + 1
    while True:
        n, d = (num * 10**-e, den) if e < 0 else (num, den * 10**e)
        q, r = divmod(n, d)
        if q >= high:
            e += 1
        elif q < low:
            e -= 1
        else:
            break
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
        if q == high:
            q, e = low, e + 1
    elif not r:
        while e < 0 and q % 10 == 0:
            q, e = q // 10, e + 1
    return str(decimal.Decimal(f"{'-' if x < 0 else ''}{q}E{e}"))  # decimal's layout


def parse_wide(text: str) -> Optional[Fraction]:
    if text == "nan":
        return None
    return Fraction(text)


# the library's defaults as flag strings; a sweep's are SweepConfig()'s
_SWEEP = SweepConfig()
_PARAMS = {"a": format_wide(OscillatorParams().a), "b": format_wide(OscillatorParams().b)}

DEFAULTS = {
    "sweep": {
        "scheme": _SWEEP.scheme.value,
        **_PARAMS,
        "t_end": format_wide(_SWEEP.t_end),
        "dt_list": ",".join(DESK_DT_STRINGS),
        "p_run": str(_SWEEP.run_precision.significand_bits),
        "p_ref": str(_SWEEP.ref_precision.significand_bits),
        "max_steps": str(_SWEEP.max_steps),
        "jobs": None,
        "out_dir": None,
    },
    "longrun": {
        "scheme": _SWEEP.scheme.value,
        **_PARAMS,
        "t_end": "1000",
        "dt": "1e-3",
        "samples": "100",
        "spacing": "log",
        "p_run": str(_SWEEP.run_precision.significand_bits),
        "p_ref": str(_SWEEP.ref_precision.significand_bits),
        "max_steps": str(_SWEEP.max_steps),
        "out_dir": None,
    },
    "diagnose": {
        "scheme": _SWEEP.scheme.value,
        **_PARAMS,
        "dt": "1e-2",
        "t_end": "10",
        "p_run": str(_SWEEP.run_precision.significand_bits),
        "series": "E_r",
        "threshold": None,
        "input": None,
        "mode": None,
        "bound_model": "worst",
        "out_dir": None,
    },
}


# ---------------------------------------------------------------------------
# Argument parsing and config-file precedence
# ---------------------------------------------------------------------------

# the allowed values of the flags that have a fixed set: argparse checks a
# flag's value, _resolve a config file's
_CHOICES = {
    "scheme": tuple(s.value for s in Scheme),
    "spacing": ("log", "linear"),
    "series": ("E_r", "E_t"),
    "bound_model": ("worst", "random"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roundtrap",
        description="Round-off vs. truncation error experiments for difference schemes.",
    )
    parser.add_argument("--version", action="version", version=f"roundtrap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--scheme", choices=_CHOICES["scheme"])
        p.add_argument("--a", dest="a")
        p.add_argument("--b", dest="b")
        p.add_argument("--config", help="JSON file with flag defaults")
        p.add_argument("--out-dir", dest="out_dir", help=f"output directory (or ${OUT_DIR_ENV})")

    p = sub.add_parser("sweep", help="error vs. step size at fixed final time")
    common(p)
    p.add_argument("--t-end", dest="t_end")
    p.add_argument("--dt-list", dest="dt_list", help="comma-separated step sizes")
    p.add_argument("--p-run", dest="p_run", help="run significand bits")
    p.add_argument("--p-ref", dest="p_ref", help="reference significand bits")
    p.add_argument("--max-steps", dest="max_steps")
    p.add_argument("--jobs", help="worker processes for sweep legs")

    p = sub.add_parser("longrun", help="error vs. time at fixed step size")
    common(p)
    p.add_argument("--t-end", dest="t_end")
    p.add_argument("--dt", dest="dt")
    p.add_argument("--samples", help="number of sample times (>= 2)")
    p.add_argument("--spacing", choices=_CHOICES["spacing"])
    p.add_argument("--p-run", dest="p_run")
    p.add_argument("--p-ref", dest="p_ref")
    p.add_argument("--max-steps", dest="max_steps")

    p = sub.add_parser("diagnose", help="diagnostics over stored results or short runs")
    p.add_argument(
        "mode",
        choices=["ect", "os", "spectral", "drift", "residual", "bound"],
        help="which diagnostic to run",
    )
    common(p)
    p.add_argument("--input", help="input CSV (ect: timeseries.csv, os: sweep.csv)")
    p.add_argument("--threshold", help="error threshold for ect")
    p.add_argument("--series", choices=_CHOICES["series"], help="which series ect scans")
    p.add_argument("--dt", dest="dt")
    p.add_argument("--t-end", dest="t_end")
    p.add_argument("--p-run", dest="p_run")
    p.add_argument("--bound-model", dest="bound_model", choices=_CHOICES["bound_model"])
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """flags > config file > defaults; returns a plain string-keyed dict."""
    defaults = dict(DEFAULTS[args.subcommand])
    from_file = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParameterError(f"config file {path}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise ParameterError(f"config file {path}: expected a JSON object")
        unknown = set(loaded) - (set(defaults) - {"mode"})  # diagnose's mode is positional only
        if unknown:
            raise ParameterError(f"config file {path}: unknown keys {sorted(unknown)}")
        from_file = {k: (None if v is None else str(v)) for k, v in loaded.items()}
        for key, choices in _CHOICES.items():
            value = from_file.get(key)
            if value is not None and value not in choices:
                raise ParameterError(
                    f"config file {path}: {key} must be one of {', '.join(choices)}, got {value!r}")
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = str(flag_value)
        elif key in from_file and from_file[key] is not None:
            resolved[key] = from_file[key]
        else:
            resolved[key] = default
    if args.subcommand == "diagnose":
        resolved["mode"] = args.mode
    return resolved


def _out_dir(resolved: dict) -> Path:
    target = resolved.get("out_dir") or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(
    out: Path, subcommand: str, resolved: dict, argv: list[str], backends: dict
) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "command": ["roundtrap", *argv],
        "resolved": resolved,
        "backends": backends,
    }
    (out / MANIFEST_JSON).write_text(json.dumps(manifest, indent=2) + "\n")


def manifest_argv(manifest: dict, out_dir: Optional[str] = None) -> list[str]:
    """Reconstruct the CLI argument list from a manifest's resolved config;
    replaying it reproduces the data columns bit for bit."""
    resolved = dict(manifest["resolved"])
    sub = manifest["subcommand"]
    argv = [sub]
    if sub == "diagnose":
        argv.append(resolved.pop("mode"))
    if out_dir is not None:
        resolved["out_dir"] = out_dir
    for key, value in resolved.items():
        if value is None:
            continue
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    return argv


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _backends(**channels: PrecisionConfig) -> dict:
    """The backend each channel's precision selects, for the manifest."""
    return {name: channel_backend(cfg.significand_bits) for name, cfg in channels.items()}


def _warn_off_grid(dt: Fraction, t_end: Fraction, n: int) -> None:
    """Warn on stderr when the n = round(t_end/dt) steps run end short of or past t_end."""
    if n >= 1 and n * dt != t_end:
        print(f"warning: t_end={format_wide(t_end)} is not a multiple of dt={format_wide(dt)}; "
              f"{n} steps end at t={format_wide(n * dt)}", file=sys.stderr)


def _params(resolved: dict) -> OscillatorParams:
    return OscillatorParams(_parse_fraction(resolved["a"], "--a"), _parse_fraction(resolved["b"], "--b"))


def _sweep_config(resolved: dict) -> SweepConfig:
    dt_list = tuple(
        _parse_fraction(part.strip(), "--dt-list")
        for part in resolved["dt_list"].split(",")
        if part.strip()
    )
    return SweepConfig(
        scheme=Scheme.from_name(resolved["scheme"]),
        params=_params(resolved),
        t_end=_parse_fraction(resolved["t_end"], "--t-end"),
        dt_list=dt_list,
        run_precision=_parse_precision(resolved["p_run"], "--p-run"),
        ref_precision=_parse_precision(resolved["p_ref"], "--p-ref"),
        max_steps=_parse_int(resolved["max_steps"], "--max-steps"),
    )


def cmd_sweep(resolved: dict, argv: list[str]) -> int:
    cfg = _sweep_config(resolved)
    jobs = _parse_int(resolved["jobs"], "--jobs") if resolved["jobs"] else os.cpu_count() or 1
    records = stepsize_sweep(cfg, jobs=jobs)
    for r in records:
        if r.status == STATUS_OK:
            _warn_off_grid(r.dt, cfg.t_end, r.n_steps)
    out = _out_dir(resolved)
    rows = [
        [
            format_wide(r.dt),
            str(r.n_steps),
            format_wide(r.e_total),
            format_wide(r.e_trunc),
            format_wide(r.e_round),
            r.status,
            f"{r.wall_time_s:.6f}",
        ]
        for r in records
    ]
    _write_csv(out / SWEEP_CSV, ["dt", "n_steps", "E", "E_t", "E_r", "status", "wall_time_s"], rows)
    backends = _backends(run=cfg.run_precision, reference=cfg.ref_precision)
    _write_manifest(out, "sweep", resolved, argv, backends)
    print(f"wrote {out / SWEEP_CSV} ({len(rows)} rows)")
    return 0


def cmd_longrun(resolved: dict, argv: list[str]) -> int:
    p_run = _parse_precision(resolved["p_run"], "--p-run")
    p_ref = _parse_precision(resolved["p_ref"], "--p-ref")
    dt = _parse_fraction(resolved["dt"], "--dt")
    t_end = _parse_fraction(resolved["t_end"], "--t-end")
    records = longtime_run(
        Scheme.from_name(resolved["scheme"]),
        _params(resolved),
        dt,
        t_end,
        p_run,
        p_ref,
        _parse_int(resolved["samples"], "--samples"),
        spacing=resolved["spacing"],
        max_steps=_parse_int(resolved["max_steps"], "--max-steps"),
    )
    _warn_off_grid(dt, t_end, num_steps(t_end, dt))
    out = _out_dir(resolved)
    rows = [[format_wide(r.t), format_wide(r.e_round), format_wide(r.e_trunc)] for r in records]
    _write_csv(out / TIMESERIES_CSV, ["t", "E_r", "E_t"], rows)
    _write_manifest(out, "longrun", resolved, argv, _backends(run=p_run, reference=p_ref))
    print(f"wrote {out / TIMESERIES_CSV} ({len(rows)} rows)")
    return 0


def _read_csv(path_str: Optional[str], what: str) -> list[dict]:
    if not path_str:
        raise ParameterError(f"--input is required for {what}")
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    try:
        with path.open(newline="") as fh:
            return list(csv.DictReader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParameterError(f"--input: {path} is not a readable CSV file ({exc})") from None


def _float_first(x: Fraction) -> tuple[float, Fraction]:
    """Sort key ordering Fractions exactly: rounding to float is monotone,
    so the float decides every comparison but those between values with
    the same float, which the Fraction then decides."""
    try:
        return x.numerator / x.denominator, x
    except OverflowError:
        return (math.inf if x > 0 else -math.inf), x


def _diagnose_rows(resolved: dict) -> list[tuple[str, str, str]]:
    mode = resolved["mode"]
    if mode == "ect":
        if not resolved["threshold"]:
            raise ParameterError("--threshold is required for ect")
        threshold = _parse_fraction(resolved["threshold"], "--threshold")
        series_name = resolved["series"]
        rows = _read_csv(resolved["input"], "ect")
        try:
            series = [(Fraction(r["t"]), Fraction(r[series_name])) for r in rows]
        except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row
            raise ParameterError(f"--input: not a timeseries.csv with a {series_name} column ({exc})") from None
        ect = effective_computation_time(series, threshold)
        return [
            ("ect", "series", series_name),
            ("ect", "threshold", format_wide(threshold)),
            ("ect", "t", "none" if ect is None else format_wide(ect)),
        ]
    if mode == "os":
        rows = _read_csv(resolved["input"], "os")
        try:
            records = [
                SweepRecord(
                    dt=Fraction(r["dt"]),
                    n_steps=int(r["n_steps"]),
                    e_total=parse_wide(r["E"]),
                    e_trunc=parse_wide(r["E_t"]),
                    e_round=parse_wide(r["E_r"]),
                    wall_time_s=0.0,
                    status=r.get("status", STATUS_OK),
                )
                for r in rows
            ]
        except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row
            raise ParameterError(f"--input: not a sweep.csv ({exc})") from None
        best = optimal_step_size(records)
        return [
            ("os", "dt", format_wide(best.dt)),
            ("os", "E", format_wide(best.e_total)),
            ("os", "n_steps", str(best.n_steps)),
        ]

    scheme = Scheme.from_name(resolved["scheme"])
    params = _params(resolved)
    dt = _parse_fraction(resolved["dt"], "--dt")
    if mode == "spectral":
        info = spectral_analysis(update_matrix(scheme, params, dt))
        return [
            ("spectral", "det", format_wide(info.det)),
            ("spectral", "eigenvalue_modulus_1", format_wide(info.eigenvalue_moduli[0])),
            ("spectral", "eigenvalue_modulus_2", format_wide(info.eigenvalue_moduli[1])),
        ]

    t_end = _parse_fraction(resolved["t_end"], "--t-end")
    p_run = _parse_precision(resolved["p_run"], "--p-run")
    n = num_steps(t_end, dt)
    _warn_off_grid(dt, t_end, n)
    if mode == "drift":
        stride = max(1, n // 16)
        traj = integrate(scheme, params, dt, t_end, p_run, SamplingPlan.every(stride))
        drift = conservation_drift(traj, params)
        out = [("drift", format_wide(t), format_wide(d)) for t, d in drift]
        out.append(("drift", "max", format_wide(max(d for _, d in drift))))
        return out
    if mode == "residual":
        if n > 200_000:
            raise ParameterError("residual diagnostics sample every step; keep t-end/dt <= 200000")
        traj = integrate(scheme, params, dt, t_end, p_run, SamplingPlan.every(1))
        norms = [r for _, r in consistency_residual(traj, params)]
        del traj  # the sort keys reuse the trajectory's memory
        norms.sort(key=_float_first)
        median = norms[len(norms) // 2]
        return [
            ("residual", "count", str(len(norms))),
            ("residual", "median", format_wide(median)),
            ("residual", "max", format_wide(norms[-1])),
        ]
    if mode == "bound":
        bound_mode = BoundMode.RANDOM_WALK if resolved["bound_model"] == "random" else BoundMode.WORST_CASE
        model = ErrorBoundModel.for_precision(p_run, params, bound_mode)
        value = predict_error_bound(params, scheme, dt, n, model)
        # an overflowing bound is inf, which has no Fraction
        text = format_wide(Fraction(value)) if math.isfinite(value) else str(value)
        return [
            ("bound", "model", bound_mode.value),
            ("bound", "n_steps", str(n)),
            ("bound", "value", text),
        ]
    raise ParameterError(f"unknown diagnose mode {mode!r}")


def cmd_diagnose(resolved: dict, argv: list[str]) -> int:
    rows = _diagnose_rows(resolved)
    integrates = resolved["mode"] in ("drift", "residual")
    backends = _backends(run=_parse_precision(resolved["p_run"], "--p-run")) if integrates else {}
    out = _out_dir(resolved)
    _write_csv(out / DIAGNOSTICS_CSV, ["kind", "key", "value"], [list(r) for r in rows])
    _write_manifest(out, "diagnose", resolved, argv, backends)
    for kind, key, value in rows:
        print(f"{kind} {key} = {value}")
    return 0


DISPATCH = {"sweep": cmd_sweep, "longrun": cmd_longrun, "diagnose": cmd_diagnose}


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        resolved = _resolve(args)
        return DISPATCH[args.subcommand](resolved, list(argv))
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
