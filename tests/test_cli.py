import contextlib
import csv
import decimal
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundtrap import cli
from roundtrap.cli import (
    DEFAULTS,
    FLAGS,
    _get,
    _sweep_config,
    build_parser,
    format_wide,
    main,
    manifest_argv,
    parse_wide,
)
from roundtrap.analysis import consistency_residual
from roundtrap.experiments import SweepConfig
from roundtrap.fpcore import ParameterError, PrecisionConfig
from roundtrap.oscillator import OscillatorParams
from roundtrap.schemes import SamplingPlan, Scheme, integrate


def read_csv(path: Path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def strip_volatile(rows):
    return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]


# --input files for the diagnose modes that read one, by name
INPUTS = {
    "timeseries.csv": b"t,E_r,E_t\n1,1E-9,1E-6\n2,3E-9,4E-6\n",
    "decreasing.csv": b"t,E_r,E_t\n2,1E-9,1E-6\n1,3E-9,4E-6\n",
    "short.csv": b"t,E_r,E_t\n1,1E-9\n",
    "sweep.csv": b"dt,n_steps,E,E_t,E_r,status,wall_time_s\n0.1,20,1E-3,1E-3,1E-9,ok,0.1\n",
    "skipped.csv": b"dt,n_steps,E,E_t,E_r,status,wall_time_s\n"
                   b"1E-9,1000000000,nan,nan,nan,skipped_guard,0.000000\n",
    "junk.csv": b"no,such\ncolumns,here\n",
    "binary.csv": b"\xff\xfe\x00t\n",
}


def with_inputs(directory: Path, argv):
    """argv with each INPUTS name replaced by the path of that file, written to directory."""
    for name, data in INPUTS.items():
        (directory / name).write_bytes(data)
    return [str(directory / a) if a in INPUTS else a for a in argv]


def run_sweep(out, extra=()):
    return main([
        "sweep", "--scheme", "midpoint", "--a", "0.1", "--b", "0.2",
        "--t-end", "2", "--dt-list", "1e-1,1e-2", "--p-run", "24", "--p-ref", "53",
        "--out-dir", str(out), *extra,
    ])


def decimal_format(x: Fraction, digits: int) -> str:
    """The decimal-module rendering format_wide reproduces."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return str(decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator))


@st.composite
def wide_fractions(draw):
    """Nonzero Fractions of up to 3000-bit terms: dyadic, decimal with
    trailing zeros, and general, all inside decimal's default exponent range."""
    num = draw(st.integers(1, 1 << draw(st.integers(1, 3000))))
    num *= 10 ** draw(st.integers(0, 40)) * draw(st.sampled_from((1, -1)))
    den = draw(st.one_of(
        st.integers(0, 3000).map(lambda k: 1 << k),
        st.integers(0, 900).map(lambda k: 10**k),
        st.integers(1, 1 << draw(st.integers(1, 3000))),
    ))
    return Fraction(num, den)


class TestFormatting:
    def test_round_trip_precision(self, rng):
        for _ in range(100):
            x = Fraction(rng.getrandbits(90) + 1, rng.getrandbits(90) + 2)
            back = parse_wide(format_wide(x))
            assert abs(back - x) <= x * Fraction(1, 10**18)

    def test_nan(self):
        assert format_wide(None) == "nan"
        assert parse_wide("nan") is None

    def test_zero(self):
        assert format_wide(Fraction(0)) == "0"

    @settings(max_examples=1000)
    @given(wide_fractions(), st.one_of(st.just(25), st.integers(1, 40)))
    def test_matches_decimal_division(self, x, digits):
        assert format_wide(x, digits) == decimal_format(x, digits)

    @pytest.mark.parametrize("x", [
        Fraction(10**30), Fraction(12345 * 10**26), Fraction(-1, 10**10), Fraction(1, 4),
        Fraction(10**25 + 1, 10**25), Fraction(10**25 - 1), Fraction(10**26 - 1),
        Fraction(5, 10**7), Fraction(5, 10**6), Fraction(123456, 1000), Fraction(2, 3),
        Fraction(-(10**25) - 5), Fraction(10**25 + 15), Fraction(1, 3 * 2**2000),
    ])
    def test_edges_match_decimal_division(self, x):
        # carries, exact ties, trailing zeros and the plain/scientific switch
        assert format_wide(x) == decimal_format(x, 25)

    def test_beyond_decimal_exponent_range(self):
        # decimal's default context raised Overflow here, which a 600-step
        # rk3 drift at a = b = 1e300 reached (its values pass 1e1000000)
        assert format_wide(Fraction(3 * 10**1000000)) == "3.000000000000000000000000E+1000000"
        assert format_wide(Fraction(-1, 8 * 10**1000000)) == "-1.25E-1000001"


class TestSweepCommand:
    def test_row_per_dt(self, tmp_path):
        assert main([
            "sweep", "--t-end", "2", "--dt-list", "1e-1,1e-2,1e-3",
            "--p-run", "24", "--p-ref", "113", "--out-dir", str(tmp_path),
        ]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 3
        assert list(rows[0]) == ["dt", "n_steps", "E", "E_t", "E_r", "status", "wall_time_s"]
        assert [r["dt"] for r in rows] == ["0.1", "0.01", "0.001"]
        assert all(r["status"] == "ok" for r in rows)

    def test_equal_precisions_rejected(self, tmp_path):
        assert run_sweep(tmp_path, ("--p-ref", "24", "--p-run", "24")) == 2

    def test_guard_row(self, tmp_path):
        assert main([
            "sweep", "--t-end", "100", "--dt-list", "1e-9", "--max-steps", "10000000",
            "--p-run", "24", "--p-ref", "53", "--out-dir", str(tmp_path),
        ]) == 0
        [row] = read_csv(tmp_path / "sweep.csv")
        assert row["status"] == "skipped_guard"
        assert row["E"] == "nan"

    def test_zero_step_and_guard_rows(self, tmp_path):
        # dt=10 rounds t_end/dt to zero steps; dt=1e-9 trips the step guard
        assert main([
            "sweep", "--t-end", "1", "--dt-list", "10,1e-9", "--max-steps", "1000",
            "--p-run", "24", "--p-ref", "53", "--out-dir", str(tmp_path),
        ]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert [(r["dt"], r["n_steps"], r["status"], r["E"]) for r in rows] == [
            ("10", "0", "skipped_zero_steps", "nan"),
            ("1E-9", "1000000000", "skipped_guard", "nan"),
        ]

    def test_manifest_written(self, tmp_path):
        run_sweep(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "sweep"
        assert manifest["schema_version"] == 1
        assert manifest["resolved"]["dt_list"] == "1e-1,1e-2"

    @pytest.mark.parametrize("p_run, run_backend", [("24", "binary64"), ("30", "emulated")])
    def test_manifest_records_backends(self, tmp_path, p_run, run_backend):
        run_sweep(tmp_path, ["--p-run", p_run, "--p-ref", "113"])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["backends"] == {"run": run_backend, "reference": "emulated"}
        assert "backends" not in manifest["resolved"]

    def test_replay_reproduces_data_columns(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_sweep(first)
        manifest = json.loads((first / "manifest.json").read_text())
        assert main(manifest_argv(manifest, out_dir=str(second))) == 0
        assert strip_volatile(read_csv(first / "sweep.csv")) == strip_volatile(
            read_csv(second / "sweep.csv")
        )

    def test_bad_number_rejected(self, tmp_path):
        assert run_sweep(tmp_path, ("--t-end", "ten")) == 2

    def test_defaults_parse_to_library_defaults(self):
        for defaults in DEFAULTS.values():
            for key, text in defaults.items():
                assert text is None or text in (FLAGS[key].choices or (text,))
                if key in ("threshold", "input"):  # no default: the modes that read them need them
                    with pytest.raises(ParameterError, match=f"^--{key}: required for ect"):
                        _get(defaults, key)
                elif key != "mode":  # positional, always given
                    _get(defaults, key)
        assert _sweep_config(DEFAULTS["sweep"]) == SweepConfig()


class TestLongrunCommand:
    def test_rows_strictly_increasing(self, tmp_path):
        assert main([
            "longrun", "--dt", "1e-2", "--t-end", "10", "--samples", "20",
            "--p-run", "24", "--p-ref", "53", "--out-dir", str(tmp_path),
        ]) == 0
        rows = read_csv(tmp_path / "timeseries.csv")
        assert list(rows[0]) == ["t", "E_r", "E_t"]
        ts = [Fraction(r["t"]) for r in rows]
        assert ts == sorted(set(ts))
        assert ts[-1] == 10

    def test_single_sample_rejected(self, tmp_path):
        assert main([
            "longrun", "--dt", "1e-2", "--t-end", "1", "--samples", "1",
            "--out-dir", str(tmp_path),
        ]) == 2

    def test_step_guard_exit_code(self, tmp_path):
        assert main([
            "longrun", "--dt", "1e-9", "--t-end", "100", "--samples", "5",
            "--max-steps", "1000000", "--out-dir", str(tmp_path),
        ]) == 3

    def test_deterministic_reruns(self, tmp_path):
        args = [
            "longrun", "--dt", "1e-2", "--t-end", "5", "--samples", "7",
            "--p-run", "24", "--p-ref", "53",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert (a / "timeseries.csv").read_text() == (b / "timeseries.csv").read_text()

    def test_replay(self, tmp_path):
        first, second = tmp_path / "f", tmp_path / "s"
        main([
            "longrun", "--dt", "1e-2", "--t-end", "5", "--samples", "7",
            "--p-run", "24", "--p-ref", "53", "--out-dir", str(first),
        ])
        manifest = json.loads((first / "manifest.json").read_text())
        assert main(manifest_argv(manifest, out_dir=str(second))) == 0
        assert (first / "timeseries.csv").read_text() == (second / "timeseries.csv").read_text()


class TestDiagnoseCommand:
    def make_timeseries(self, out):
        main([
            "longrun", "--dt", "1e-2", "--t-end", "10", "--samples", "10",
            "--p-run", "24", "--p-ref", "53", "--out-dir", str(out),
        ])
        return out / "timeseries.csv"

    def test_ect(self, tmp_path):
        ts = self.make_timeseries(tmp_path)
        assert main([
            "diagnose", "ect", "--input", str(ts), "--threshold", "1e-30",
            "--series", "E_r", "--out-dir", str(tmp_path),
        ]) == 0
        rows = read_csv(tmp_path / "diagnostics.csv")
        assert [r["kind"] for r in rows] == ["ect", "ect", "ect"]
        got = {r["key"]: r["value"] for r in rows}
        assert got["series"] == "E_r"
        assert got["t"] != "none"

    def test_ect_threshold_never_reached(self, tmp_path):
        ts = self.make_timeseries(tmp_path)
        assert main([
            "diagnose", "ect", "--input", str(ts), "--threshold", "100",
            "--series", "E_t", "--out-dir", str(tmp_path),
        ]) == 0
        got = {r["key"]: r["value"] for r in read_csv(tmp_path / "diagnostics.csv")}
        assert got["t"] == "none"

    def test_ect_requires_threshold(self, tmp_path):
        ts = self.make_timeseries(tmp_path)
        assert main(["diagnose", "ect", "--input", str(ts), "--out-dir", str(tmp_path)]) == 2

    def test_missing_input_io_error(self, tmp_path):
        assert main([
            "diagnose", "ect", "--input", str(tmp_path / "absent.csv"),
            "--threshold", "1", "--series", "E_r", "--out-dir", str(tmp_path),
        ]) == 4

    def test_os(self, tmp_path):
        run_sweep(tmp_path)
        assert main([
            "diagnose", "os", "--input", str(tmp_path / "sweep.csv"), "--out-dir", str(tmp_path),
        ]) == 0
        got = {r["key"]: r["value"] for r in read_csv(tmp_path / "diagnostics.csv")}
        assert Fraction(got["dt"]) in (Fraction("1e-1"), Fraction("1e-2"))
        assert Fraction(got["E"]) > 0

    def test_spectral(self, tmp_path):
        assert main([
            "diagnose", "spectral", "--scheme", "midpoint", "--dt", "0.1",
            "--out-dir", str(tmp_path),
        ]) == 0
        got = {r["key"]: r["value"] for r in read_csv(tmp_path / "diagnostics.csv")}
        assert Fraction(got["det"]) == 1
        assert abs(Fraction(got["eigenvalue_modulus_1"]) - 1) < Fraction(1, 10**12)

    def test_drift_and_residual_and_bound(self, tmp_path):
        for mode in ("drift", "residual", "bound"):
            assert main([
                "diagnose", mode, "--scheme", "midpoint", "--dt", "1e-2",
                "--t-end", "2", "--p-run", "24", "--out-dir", str(tmp_path),
            ]) == 0
            rows = read_csv(tmp_path / "diagnostics.csv")
            assert rows and all(r["kind"] == mode for r in rows)

    def test_residual_step_guard(self, tmp_path):
        assert main([
            "diagnose", "residual", "--dt", "1e-6", "--t-end", "10",
            "--p-run", "24", "--out-dir", str(tmp_path),
        ]) == 2


class TestResidualMedian:
    def test_sort_key_orders_exactly(self, rng):
        # near-ties: distinct Fractions that share one float, around
        # values of every scale, including some beyond the float range
        values = [Fraction(0)]
        for base in (Fraction(1, 3), Fraction(2, 7 << 600), Fraction(10**300) * 7,
                     Fraction(3, 2) * 2**2000, Fraction(5, 1 << 1100)):
            for sign in (1, -1):
                values.extend(sign * (base + Fraction(k, 1 << 80) * base) for k in range(-6, 7))
        values += [Fraction(rng.getrandbits(60), rng.getrandbits(40) + 1) for _ in range(200)]
        near = [v for v in values if abs(v) < 2**1000]
        assert len({float(v) for v in near}) < len(set(near))  # the float alone cannot order them
        for _ in range(20):
            rng.shuffle(values)
            assert sorted(values, key=cli._float_first) == sorted(values)

    def test_median_and_max(self, tmp_path):
        assert main(["diagnose", "residual", "--scheme", "rk3", "--dt", "1e-2", "--t-end", "3",
                     "--p-run", "24", "--out-dir", str(tmp_path)]) == 0
        got = {r["key"]: r["value"] for r in read_csv(tmp_path / "diagnostics.csv")}
        traj = integrate(Scheme.RK3, OscillatorParams(), Fraction(1, 100), 3, PrecisionConfig(24),
                         SamplingPlan.every(1))
        norms = sorted(r for _, r in consistency_residual(traj, OscillatorParams()))
        assert got == {"count": "300", "median": format_wide(norms[150]), "max": format_wide(norms[-1])}


class TestConfigPrecedence:
    def test_config_numbers_keep_their_text(self, tmp_path, capsys):
        # a JSON number is read as its text, not rounded to a double
        cfg = tmp_path / "c.json"
        cfg.write_text('{"a": 0.10000000000000000001, "t_end": 12345678901234567891.5}')
        assert main(["diagnose", "spectral", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        resolved = json.loads((tmp_path / "manifest.json").read_text())["resolved"]
        assert (resolved["a"], resolved["t_end"]) == ("0.10000000000000000001", "12345678901234567891.5")
        from_config = read_csv(tmp_path / "diagnostics.csv")
        assert main(["diagnose", "spectral", "--a", "0.10000000000000000001",
                     "--out-dir", str(tmp_path)]) == 0
        assert read_csv(tmp_path / "diagnostics.csv") == from_config
        cfg.write_text('{"a": 1E400}')  # beyond binary64, but an exact number
        assert main(["diagnose", "spectral", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["resolved"]["a"] == "1E400"
        cfg.write_text('{"a": 1%s}' % ("0" * 5000))  # beyond int()'s digit limit
        capsys.readouterr()
        assert main(["diagnose", "spectral", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --a: cannot parse") and "Traceback" not in err

    def test_flags_beat_config_beat_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": "4", "dt_list": "1e-1", "p_ref": "53"}))
        assert main([
            "sweep", "--config", str(cfg), "--t-end", "2", "--out-dir", str(tmp_path),
        ]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        resolved = manifest["resolved"]
        assert resolved["t_end"] == "2"        # flag wins
        assert resolved["dt_list"] == "1e-1"   # config wins over default
        assert resolved["scheme"] == "midpoint"  # default
        [row] = read_csv(tmp_path / "sweep.csv")
        assert row["n_steps"] == "20"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": "1e-2"}))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_missing_config_io_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 4

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROUNDTRAP_OUT_DIR", str(tmp_path / "from_env"))
        assert main([
            "sweep", "--t-end", "1", "--dt-list", "1e-1", "--p-run", "24", "--p-ref", "53",
        ]) == 0
        assert (tmp_path / "from_env" / "sweep.csv").exists()


# every (subcommand, key) with allowed values but diagnose's mode, which a
# config file may not name; the order keeps the earlier cases' test ids
CONFIG_OUTSIDE_CHOICES = [
    (["sweep"], "scheme", "rk7"),
    (["longrun"], "spacing", "cubic"),
    (["diagnose", "ect"], "series", "E"),
    (["diagnose", "bound"], "bound_model", "best"),
    (["longrun"], "scheme", "rk7"),
    (["diagnose", "spectral"], "scheme", "rk7"),
]


class TestErrorContract:
    @pytest.mark.parametrize("argv, message", [
        (["longrun", "--dt", "10", "--t-end", "1"], "rounds to zero steps"),
        (["diagnose", "drift", "--dt", "10", "--t-end", "1"], "rounds to zero steps"),
        (["diagnose", "spectral", "--dt", "-1"], "dt must be nonnegative"),
        (["diagnose", "drift", "--dt", "0"], "dt must be positive"),
        (["diagnose", "residual", "--dt", "0"], "dt must be positive"),
        (["diagnose", "bound", "--dt", "0"], "dt must be positive"),
        (["longrun", "--dt", "0", "--t-end", "1", "--samples", "3"], "dt must be positive"),
        (["diagnose", "ect", "--input", "timeseries.csv", "--threshold", "0"],
         "threshold must be positive"),
        (["diagnose", "ect", "--input", "decreasing.csv", "--threshold", "1e-6"],
         "strictly increasing"),
        (["diagnose", "os", "--input", "skipped.csv"], "no completed records"),
        (["diagnose", "bound", "--dt", "1", "--t-end", "0.001"], "n must be >= 1"),
        (["sweep", "--t-end", "1e5000", "--dt-list", "1", "--max-steps", "10", "--jobs", "1"],
         "more than 4300 digits"),
        (["longrun", "--t-end", "1e5000", "--dt", "1", "--samples", "3", "--max-steps", "10"],
         "more than 4300 digits"),
        *((["longrun", "--dt", "1e-300", "--t-end", "1e300", "--samples", "3",
            "--max-steps", "1" + "0" * 700, "--spacing", spacing], "too large to place samples")
          for spacing in ("log", "linear")),
        (["diagnose", "ect", "--input", "short.csv", "--threshold", "1e-6", "--series", "E_t"],
         "not a timeseries.csv"),
        (["diagnose", "os", "--input", "binary.csv"], "not a readable CSV file"),
        (["sweep", "--config", "binary.csv"], "invalid JSON"),
    ])
    def test_rejected_argument_is_usage_error(self, tmp_path, capsys, argv, message):
        assert main([*with_inputs(tmp_path, argv), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_long_value_is_cut_with_reason(self, tmp_path, capsys, source):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python converts text of any length to an int")
        digits = "1" + "0" * 5000
        argv = ["diagnose", "spectral", "--out-dir", str(tmp_path)]
        if source == "flag":
            argv += ["--a", digits]
        else:
            (tmp_path / "c.json").write_text('{"a": %s}' % digits)
            argv += ["--config", str(tmp_path / "c.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --a: cannot parse '10000") and "(5001 characters)" in err
        assert len(err) < 300 and err.count("\n") == 1
        assert f"more than {sys.get_int_max_str_digits()} digits" in err

    def test_long_config_choice_is_cut(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text(json.dumps({"scheme": "x" * 5000}))
        assert main(["sweep", "--config", str(tmp_path / "c.json"), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "got 'xxxx" in err and "(5000 characters)" in err and len(err) < 300

    @pytest.mark.parametrize("argv, key, value", CONFIG_OUTSIDE_CHOICES)
    def test_config_value_outside_choices_is_usage_error(self, tmp_path, capsys, argv, key, value):
        # argparse checks these flags' values; a config file's go through _resolve
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([*argv, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} must be one of" in err and repr(value) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_config_mode_is_usage_error(self, tmp_path, capsys):
        # the diagnose mode is positional; a config file naming another one is rejected
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mode": "bound"}))
        assert main(["diagnose", "spectral", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mode" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "manifest.json").exists()
        # without it the manifest records the positional mode in DEFAULTS' key order
        cfg.write_text(json.dumps({"dt": "1e-1"}))
        assert main(["diagnose", "spectral", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        resolved = json.loads((tmp_path / "manifest.json").read_text())["resolved"]
        assert list(resolved) == list(DEFAULTS["diagnose"])
        assert (resolved["mode"], resolved["dt"]) == ("spectral", "1e-1")

    def test_library_defect_is_not_a_usage_error(self, tmp_path, monkeypatch):
        # only ParameterError means a rejected argument; a plain ValueError propagates
        def defect(matrix):
            raise ValueError("defect")

        monkeypatch.setattr(cli, "spectral_analysis", defect)
        with pytest.raises(ValueError, match="defect"):
            main(["diagnose", "spectral", "--out-dir", str(tmp_path)])

    @pytest.mark.parametrize("argv", [
        ["--scheme", "euler", "--dt", "0.1", "--t-end", "10000000"],
        ["--dt", "0.1", "--t-end", "1", "--a", "1e300", "--b", "1e300"],
        ["--dt", "1e300", "--t-end", "1e301"],
        ["--a", "1e400", "--b", "1e-400"],
    ])
    def test_overflowing_bound_is_inf(self, tmp_path, capsys, argv):
        assert main(["diagnose", "bound", *argv, "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        got = {r["key"]: r["value"] for r in read_csv(tmp_path / "diagnostics.csv")}
        assert got["value"] == "inf"


# Value pools for the argv fuzz, per flag (usual values, odd values); a value
# is odd about one time in four.  Runs stay short: the dt and t_end pools give
# at most 25 steps, and longer runs trip --max-steps (at most 1000) or a
# library step guard before stepping.  Short matters: with a = b = 1e300 the
# state grows up to 2**3000-fold per step, and printing it costs time
# quadratic in its size.
ODD = ("0", "-1", "nan", "1/0", "1e400", "ten", "")
NUMBER = ("0.1", "0.2", "3", "1e300", "1e-300"), ODD
DT = ("0.1", "0.3", "0.25", "1e300", "1e-300"), ODD
T_END = ("1", "0.9", "2.5", "1e300", "1e-300"), ODD
P_RUN = ("2", "10", "24", "53"), ("1", "200", "0", "x")
P_REF = ("53", "113"), ("24", "114", "x")
MAX_STEPS = ("1", "30", "1000"), ("0", "-3", "1e3", "x")
COMMON = {"--scheme": (("euler", "midpoint", "rk3"), ("rk7",)), "--a": NUMBER, "--b": NUMBER}
FUZZ_FLAGS = {  # subcommand: (flags always given, flags given half the time)
    "sweep": (
        {"--dt-list": (("0.1", "0.3,0.25", "1e300,0.1", "1e-300,1"), (",", "0.1,,x", "0.1,-1")),
         "--t-end": T_END, "--max-steps": MAX_STEPS, "--jobs": (("1", "0"), ("-2", "x"))},
        {**COMMON, "--p-run": P_RUN, "--p-ref": P_REF},
    ),
    "longrun": (
        {"--dt": DT, "--t-end": T_END, "--max-steps": MAX_STEPS},
        {**COMMON, "--samples": (("2", "3", "40"), ("1", "0", "x")),
         "--spacing": (("log", "linear"), ("cubic",)), "--p-run": P_RUN, "--p-ref": P_REF},
    ),
    "diagnose": (
        {"--dt": DT, "--t-end": T_END, "--threshold": (("1e-6", "1e-30", "1e300"), ODD),
         "--input": (tuple(INPUTS), ("absent.csv",))},
        {**COMMON, "--p-run": P_RUN, "--series": (("E_r", "E_t"), ("E",)),
         "--bound-model": (("worst", "random"), ("best",))},
    ),
}


@st.composite
def cli_argv(draw):
    def value(pools):
        usual, odd = pools
        return draw(st.sampled_from(odd if draw(st.integers(0, 3)) == 3 else usual))

    sub = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [sub]
    if sub == "diagnose":
        argv.append(draw(st.sampled_from(("ect", "os", "spectral", "drift", "residual", "bound"))))
    required, optional = FUZZ_FLAGS[sub]
    for flag, pools in required.items():
        argv += [flag, value(pools)]
    for flag, pools in optional.items():
        if draw(st.booleans()):
            argv += [flag, value(pools)]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv())
def test_argv_fuzz_keeps_error_contract(fuzz_dir, argv):
    """Any argv from the pools exits 0, 2, 3 or 4 and never raises."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*with_inputs(fuzz_dir, argv), "--out-dir", str(fuzz_dir / "out")])
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


class TestOffGridWarning:
    """A t_end that is not a multiple of dt runs round(t_end/dt) steps as
    before, and says so in one stderr line per leg or run."""

    def run(self, tmp_path, capsys, argv, t_end, out_name):
        out = tmp_path / t_end
        assert main([*argv, "--t-end", t_end, "--out-dir", str(out)]) == 0
        return strip_volatile(read_csv(out / out_name)), capsys.readouterr().err

    def test_sweep_warns_per_off_grid_leg(self, tmp_path, capsys):
        argv = ["sweep", "--dt-list", "0.3,0.25", "--p-run", "24", "--p-ref", "53", "--jobs", "1"]
        rows, err = self.run(tmp_path, capsys, argv, "1", "sweep.csv")
        assert err == "warning: t_end=1 is not a multiple of dt=0.3; 3 steps end at t=0.9\n"
        assert [(r["n_steps"], r["status"]) for r in rows] == [("3", "ok"), ("4", "ok")]
        # the leg is the on-grid run to t=0.9, byte for byte
        on_grid, err = self.run(tmp_path, capsys, argv[:2] + ["0.3"] + argv[3:], "0.9", "sweep.csv")
        assert err == ""
        assert rows[0] == on_grid[0]

    @pytest.mark.parametrize("argv, out_name", [
        (["longrun", "--dt", "0.3", "--samples", "2", "--p-run", "24", "--p-ref", "53"],
         "timeseries.csv"),
        (["diagnose", "residual", "--dt", "0.3", "--p-run", "24"], "diagnostics.csv"),
        (["diagnose", "drift", "--dt", "0.3", "--p-run", "24"], "diagnostics.csv"),
        (["diagnose", "bound", "--dt", "0.3"], "diagnostics.csv"),
    ])
    def test_run_warns_once(self, tmp_path, capsys, argv, out_name):
        rows, err = self.run(tmp_path, capsys, argv, "1", out_name)
        assert err == "warning: t_end=1 is not a multiple of dt=0.3; 3 steps end at t=0.9\n"
        on_grid, err = self.run(tmp_path, capsys, argv, "0.9", out_name)
        assert err == ""
        assert rows == on_grid


class TestParser:
    def test_usage_error_exit_code(self):
        assert main(["sweep", "--scheme", "rk7"]) == 2
        assert main([]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "roundtrap" in capsys.readouterr().out

    def test_parser_builds(self):
        build_parser()

    def test_config_choice_cases_cover_the_table(self):
        table = {(sub, key) for sub, keys in DEFAULTS.items() for key in keys
                 if FLAGS[key].choices and key != "mode"}
        assert {(argv[0], key) for argv, key, _ in CONFIG_OUTSIDE_CHOICES} == table

    @pytest.mark.parametrize("sub", sorted(DEFAULTS))
    def test_help_comes_from_the_table(self, capsys, sub):
        assert main([sub, "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        for key in DEFAULTS[sub]:
            assert " ".join(FLAGS[key].help.split()) in out
