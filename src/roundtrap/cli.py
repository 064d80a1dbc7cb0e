"""Command-line front end.

Three subcommands drive the experiments and diagnostics and emit plot-ready
CSV files plus a manifest.json recording the fully resolved configuration,
the backend (binary64 or emulated) of each integrated channel and, in its
environment block, whether the compiled midpoint kernels stepped:

    roundtrap sweep    [flags]          -> sweep.csv, manifest.json
    roundtrap longrun  [flags]          -> timeseries.csv, manifest.json
    roundtrap diagnose MODE [flags]     -> diagnostics.csv, manifest.json

Flag values override a --config JSON file, which overrides built-in defaults
(the headline sweep: a=0.1, b=0.2, midpoint scheme, desk-scale step list).
Numeric flags are parsed as exact decimals, so "0.1" means 1/10, not the
nearest double.  Error norms are printed with 25 significant digits, enough
to round-trip the wide-precision value.  Replaying a manifest's resolved
configuration reproduces every data column bit for bit (wall_time_s, the
manifest timestamp and its environment block are excluded from that
guarantee).

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
from typing import Callable, Optional

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
    compiled_kernels,
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
MANIFEST_JSON = "manifest.json"

_LOG10_2 = math.log10(2)


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
# Flags and config-file precedence
# ---------------------------------------------------------------------------


def _fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())


def _precision(text: str) -> PrecisionConfig:
    return PrecisionConfig(int(text))


def _jobs(text: str) -> int:
    return int(text) if text else os.cpu_count() or 1


def _threshold(text: str) -> Fraction:
    if not text:
        raise ParameterError("required for ect")
    return Fraction(text)


def _read_csv(text: str) -> list[dict]:
    if not text:
        raise ParameterError("required for ect and os")
    path = Path(text)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    try:
        with path.open(newline="") as fh:
            return list(csv.DictReader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParameterError(f"{path} is not a readable CSV file ({exc})") from None


def _out_dir(text: str) -> Path:
    return Path(text or os.environ.get(OUT_DIR_ENV) or ".")


_BOUND_MODELS = {"worst": BoundMode.WORST_CASE, "random": BoundMode.RANDOM_WALK}


class Flag:
    """A resolved key's parser (its text, "" when unset), help and allowed values."""

    __slots__ = ("parse", "help", "choices")

    def __init__(self, parse: Callable[[str], object], help: str, choices: tuple[str, ...] = ()):
        self.parse, self.help, self.choices = parse, help, choices


# every key of DEFAULTS; the flag is --key-with-dashes, diagnose's mode is positional
FLAGS = {
    "scheme": Flag(Scheme.from_name, "difference scheme", tuple(s.value for s in Scheme)),
    "a": Flag(Fraction, "coefficient a of dx/dt = -a*y"),
    "b": Flag(Fraction, "coefficient b of dy/dt = b*x"),
    "t_end": Flag(Fraction, "final time"),
    "dt": Flag(Fraction, "step size"),
    "dt_list": Flag(_fractions, "comma-separated step sizes"),
    "p_run": Flag(_precision, "run significand bits"),
    "p_ref": Flag(_precision, "reference significand bits"),
    "max_steps": Flag(int, "most steps a run may take"),
    "jobs": Flag(_jobs, "worker processes for sweep legs (default: CPU count)"),
    "samples": Flag(int, "number of sample times (>= 2)"),
    "spacing": Flag(str, "spacing of the sample times", ("log", "linear")),
    "mode": Flag(str, "which diagnostic to run", ("ect", "os", "spectral", "drift", "residual", "bound")),
    "input": Flag(_read_csv, "input CSV (ect: timeseries.csv, os: sweep.csv)"),
    "threshold": Flag(_threshold, "error threshold for ect"),
    "series": Flag(str, "which series ect scans", ("E_r", "E_t")),
    "bound_model": Flag(_BOUND_MODELS.__getitem__, "worst-case or random-walk round-off",
                        tuple(_BOUND_MODELS)),
    "out_dir": Flag(_out_dir, f"output directory (or ${OUT_DIR_ENV})"),
}


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


_ECHO_CHARS = 40  # how much of an offending value a usage error repeats


def _echo(text: str) -> str:
    """text quoted for a usage error; a longer one cut, with its length."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


def _get(resolved: dict, key: str):
    """The resolved value of key, parsed by its FLAGS entry; a usage error
    names the key's flag.  Subcommands parse only the keys they use."""
    text = resolved[key] or ""
    try:
        return FLAGS[key].parse(text)
    except ParameterError as exc:
        raise ParameterError(f"{_flag(key)}: {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:  # from int() or Fraction()
        reason = ""
        if "integer string conversion" in str(exc):
            reason = (f": a number of more than {sys.get_int_max_str_digits()} digits"
                      " (Python's limit on converting text to an integer)")
        raise ParameterError(f"{_flag(key)}: cannot parse {_echo(text)}{reason}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roundtrap",
        description="Round-off vs. truncation error experiments for difference schemes.",
    )
    parser.add_argument("--version", action="version", version=f"roundtrap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in DEFAULTS.items():
        p = sub.add_parser(name, help=DISPATCH[name].__doc__)
        p.add_argument("--config", help="JSON file with flag defaults")
        for key in keys:
            name_or_flag = key if key == "mode" else _flag(key)
            p.add_argument(name_or_flag, choices=FLAGS[key].choices or None, help=FLAGS[key].help)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """flags > config file > defaults; returns a plain string-keyed dict."""
    defaults = DEFAULTS[args.subcommand]
    from_file = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            # a number keeps its text: "0.1" stays 1/10, as on the command line
            loaded = json.loads(path.read_text(), parse_float=str, parse_int=str)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParameterError(f"config file {path}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise ParameterError(f"config file {path}: expected a JSON object")
        unknown = set(loaded) - (set(defaults) - {"mode"})  # diagnose's mode is positional only
        if unknown:
            raise ParameterError(f"config file {path}: unknown keys {sorted(unknown)}")
        from_file = {k: str(v) for k, v in loaded.items() if v is not None}
        for key, value in from_file.items():
            choices = FLAGS[key].choices
            if choices and value not in choices:
                raise ParameterError(
                    f"config file {path}: {key} must be one of {', '.join(choices)}, got {_echo(value)}")
    flags = {k: v for k, v in vars(args).items() if k in defaults and v is not None}
    return {**defaults, **from_file, **flags}  # in DEFAULTS' key order


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(
    out: Path, subcommand: str, resolved: dict, argv: list[str], channels: dict
) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "command": ["roundtrap", *argv],
        "resolved": resolved,
        **channels,
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
        if value is not None:
            argv.extend([_flag(key), str(value)])
    return argv


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns its CSV file name, header and rows
# and the manifest blocks of the channels it integrated; the docstring is its
# help
# ---------------------------------------------------------------------------


def _channels(scheme: Optional[Scheme] = None, **channels: PrecisionConfig) -> dict:
    """The manifest's backends block, the backend each channel's precision
    selects, and its environment block: whether the compiled midpoint
    kernels step any of the channels.  Finding that out loads the kernels,
    so a sweep's pool workers inherit them."""
    ps = [cfg.significand_bits for cfg in channels.values()]
    return {
        "backends": {name: channel_backend(p) for name, p in zip(channels, ps)},
        "environment": {"compiled_kernels": any(compiled_kernels(scheme, p) for p in ps)},
    }


def _warn_off_grid(dt: Fraction, t_end: Fraction, n: int) -> None:
    """Warn on stderr when the n = round(t_end/dt) steps run end short of or past t_end."""
    if n >= 1 and n * dt != t_end:
        print(f"warning: t_end={format_wide(t_end)} is not a multiple of dt={format_wide(dt)}; "
              f"{n} steps end at t={format_wide(n * dt)}", file=sys.stderr)


def _params(resolved: dict) -> OscillatorParams:
    return OscillatorParams(_get(resolved, "a"), _get(resolved, "b"))


def _sweep_config(resolved: dict) -> SweepConfig:
    return SweepConfig(
        dt_list=_get(resolved, "dt_list"),
        scheme=_get(resolved, "scheme"),
        params=_params(resolved),
        t_end=_get(resolved, "t_end"),
        run_precision=_get(resolved, "p_run"),
        ref_precision=_get(resolved, "p_ref"),
        max_steps=_get(resolved, "max_steps"),
    )


def cmd_sweep(resolved: dict) -> tuple[str, list[str], list, dict]:
    """error vs. step size at fixed final time"""
    cfg = _sweep_config(resolved)
    channels = _channels(cfg.scheme, run=cfg.run_precision, reference=cfg.ref_precision)
    records = stepsize_sweep(cfg, jobs=_get(resolved, "jobs"))
    for r in records:
        if r.status == STATUS_OK:
            _warn_off_grid(r.dt, cfg.t_end, r.n_steps)
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
    header = ["dt", "n_steps", "E", "E_t", "E_r", "status", "wall_time_s"]
    return "sweep.csv", header, rows, channels


def cmd_longrun(resolved: dict) -> tuple[str, list[str], list, dict]:
    """error vs. time at fixed step size"""
    scheme, p_run, p_ref = _get(resolved, "scheme"), _get(resolved, "p_run"), _get(resolved, "p_ref")
    dt, t_end = _get(resolved, "dt"), _get(resolved, "t_end")
    records = longtime_run(scheme, _params(resolved), dt, t_end, p_run, p_ref,
                           _get(resolved, "samples"), spacing=_get(resolved, "spacing"),
                           max_steps=_get(resolved, "max_steps"))
    _warn_off_grid(dt, t_end, num_steps(t_end, dt))
    rows = [[format_wide(r.t), format_wide(r.e_round), format_wide(r.e_trunc)] for r in records]
    return "timeseries.csv", ["t", "E_r", "E_t"], rows, _channels(scheme, run=p_run, reference=p_ref)


def _float_first(x: Fraction) -> tuple[float, Fraction]:
    """Sort key ordering Fractions exactly: rounding to float is monotone,
    so the float decides every comparison but those between values with
    the same float, which the Fraction then decides."""
    try:
        return x.numerator / x.denominator, x
    except OverflowError:
        return (math.inf if x > 0 else -math.inf), x


def _diagnose_rows(resolved: dict) -> tuple[list[tuple[str, str, str]], dict]:
    mode = resolved["mode"]
    if mode == "ect":
        threshold = _get(resolved, "threshold")
        series_name = _get(resolved, "series")
        rows = _get(resolved, "input")
        try:
            series = [(Fraction(r["t"]), Fraction(r[series_name])) for r in rows]
        except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row
            raise ParameterError(f"--input: not a timeseries.csv with a {series_name} column ({exc})") from None
        ect = effective_computation_time(series, threshold)
        return [
            ("ect", "series", series_name),
            ("ect", "threshold", format_wide(threshold)),
            ("ect", "t", "none" if ect is None else format_wide(ect)),
        ], _channels()
    if mode == "os":
        rows = _get(resolved, "input")
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
        ], _channels()

    scheme, params, dt = _get(resolved, "scheme"), _params(resolved), _get(resolved, "dt")
    if mode == "spectral":
        info = spectral_analysis(update_matrix(scheme, params, dt))
        return [
            ("spectral", "det", format_wide(info.det)),
            ("spectral", "eigenvalue_modulus_1", format_wide(info.eigenvalue_moduli[0])),
            ("spectral", "eigenvalue_modulus_2", format_wide(info.eigenvalue_moduli[1])),
        ], _channels()

    t_end, p_run = _get(resolved, "t_end"), _get(resolved, "p_run")
    n = num_steps(t_end, dt)
    _warn_off_grid(dt, t_end, n)
    if mode == "bound":
        bound_mode = _get(resolved, "bound_model")
        model = ErrorBoundModel.for_precision(p_run, params, bound_mode)
        value = predict_error_bound(params, scheme, dt, n, model)
        # an overflowing bound is inf, which has no Fraction
        text = format_wide(Fraction(value)) if math.isfinite(value) else str(value)
        return [
            ("bound", "model", bound_mode.value),
            ("bound", "n_steps", str(n)),
            ("bound", "value", text),
        ], _channels()
    channels = _channels(scheme, run=p_run)  # drift and residual integrate the run channel
    if mode == "drift":
        stride = max(1, n // 16)
        traj = integrate(scheme, params, dt, t_end, p_run, SamplingPlan.every(stride))
        drift = conservation_drift(traj, params)
        out = [("drift", format_wide(t), format_wide(d)) for t, d in drift]
        out.append(("drift", "max", format_wide(max(d for _, d in drift))))
        return out, channels
    # residual
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
    ], channels


def cmd_diagnose(resolved: dict) -> tuple[str, list[str], list, dict]:
    """diagnostics over stored results or short runs"""
    rows, channels = _diagnose_rows(resolved)
    for kind, key, value in rows:
        print(f"{kind} {key} = {value}")
    return "diagnostics.csv", ["kind", "key", "value"], rows, channels


DISPATCH = {"sweep": cmd_sweep, "longrun": cmd_longrun, "diagnose": cmd_diagnose}


def _run(subcommand: str, resolved: dict, argv: list[str]) -> int:
    """Run the subcommand, then write its CSV and manifest to the output directory."""
    csv_name, header, rows, channels = DISPATCH[subcommand](resolved)
    out = _get(resolved, "out_dir")
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / csv_name, header, rows)
    _write_manifest(out, subcommand, resolved, argv, channels)
    print(f"wrote {out / csv_name} ({len(rows)} rows)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _run(args.subcommand, _resolve(args), list(argv))
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
