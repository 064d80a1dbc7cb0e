"""Golden CLI outputs: small fixed configurations whose data columns must not
change by a single byte.

The files under tests/golden/ were written by the commands below, and
manifests.json holds each command's manifest ``resolved`` block (without
``out_dir``) and ``backends`` block, which pins the CLI's defaults, their key
order and the backend of each channel.  The midpoint runs are checked with
the compiled kernels and again with the Python kernels.  A change that alters a data column
or a manifest block on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change log.  ``wall_time_s`` is outside the CLI's
bit-reproducibility guarantee and is not compared.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

from roundtrap import schemes
from roundtrap.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MANIFESTS = GOLDEN_DIR / "manifests.json"
UNCHECKED_COLUMNS = ("wall_time_s",)

# golden file name -> (argv without --out-dir, CSV the command writes)
GOLDEN = {
    "sweep.csv": (
        ["sweep", "--a", "0.05", "--b", "0.4", "--t-end", "3", "--dt-list", "1e-1,3e-2,1e-2",
         "--p-run", "24", "--p-ref", "113", "--jobs", "1"],
        "sweep.csv",
    ),
    # p_run 30 and 64 and p_ref 113: both channels on the emulator
    "sweep_rk3_emulated.csv": (
        ["sweep", "--scheme", "rk3", "--a", "0.4", "--b", "0.05", "--t-end", "3",
         "--dt-list", "1e-1,3e-2,1e-2", "--p-run", "30", "--p-ref", "113", "--jobs", "1"],
        "sweep.csv",
    ),
    "sweep_euler_emulated.csv": (
        ["sweep", "--scheme", "euler", "--a", "0.025", "--b", "0.8", "--t-end", "3",
         "--dt-list", "1e-1,3e-2,1e-2", "--p-run", "64", "--p-ref", "113", "--jobs", "1"],
        "sweep.csv",
    ),
    "timeseries.csv": (
        ["longrun", "--dt", "1e-2", "--t-end", "100", "--samples", "200", "--spacing", "linear",
         "--p-run", "24", "--p-ref", "113"],
        "timeseries.csv",
    ),
    "diagnostics_residual.csv": (
        ["diagnose", "residual", "--scheme", "rk3", "--a", "0.8", "--b", "0.025",
         "--dt", "1e-3", "--t-end", "0.5", "--p-run", "24"],
        "diagnostics.csv",
    ),
    "diagnostics_residual_euler.csv": (
        ["diagnose", "residual", "--scheme", "euler", "--a", "0.8", "--b", "0.025",
         "--dt", "1e-3", "--t-end", "0.5", "--p-run", "10"],
        "diagnostics.csv",
    ),
    "diagnostics_residual_midpoint.csv": (
        ["diagnose", "residual", "--scheme", "midpoint", "--a", "0.8", "--b", "0.025",
         "--dt", "1e-3", "--t-end", "0.5", "--p-run", "53"],
        "diagnostics.csv",
    ),
    "diagnostics_spectral.csv": (
        ["diagnose", "spectral", "--scheme", "rk3", "--a", "0.4", "--b", "0.05", "--dt", "0.3"],
        "diagnostics.csv",
    ),
    "diagnostics_drift.csv": (
        ["diagnose", "drift", "--scheme", "euler", "--a", "0.2", "--b", "0.1",
         "--dt", "1e-2", "--t-end", "10", "--p-run", "24"],
        "diagnostics.csv",
    ),
    "diagnostics_bound.csv": (
        ["diagnose", "bound", "--scheme", "rk3", "--dt", "1e-2", "--t-end", "100"],
        "diagnostics.csv",
    ),
}


def data_rows(path: Path) -> list[list[str]]:
    """The CSV's rows as field strings, minus the unchecked columns."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in UNCHECKED_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


def manifest_blocks(out: Path) -> dict:
    """The manifest's resolved block without out_dir, and its backends block."""
    manifest = json.loads((out / "manifest.json").read_text())
    resolved = {k: v for k, v in manifest["resolved"].items() if k != "out_dir"}
    return {"resolved": resolved, "backends": manifest["backends"]}


def run(name: str, out: Path) -> Path:
    argv, written = GOLDEN[name]
    assert main([*argv, "--out-dir", str(out)]) == 0
    return out / written


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_columns_match_golden(name, tmp_path):
    assert data_rows(run(name, tmp_path)) == data_rows(GOLDEN_DIR / name)
    golden = json.loads(MANIFESTS.read_text())[name]
    got = manifest_blocks(tmp_path)
    # list(items()) compares the key order too, which is the manifest's
    assert {k: list(v.items()) for k, v in got.items()} == {k: list(v.items()) for k, v in golden.items()}


# the golden runs that step the midpoint scheme, which has compiled kernels
MIDPOINT_GOLDEN = ("sweep.csv", "timeseries.csv", "diagnostics_residual_midpoint.csv")


@pytest.mark.parametrize("name", MIDPOINT_GOLDEN)
def test_python_kernels_match_golden(name, tmp_path, monkeypatch):
    # the same files with the compiled kernels switched off, so that both
    # paths stay pinned
    monkeypatch.setattr(schemes, "_load_kernels", lambda: None)
    assert data_rows(run(name, tmp_path)) == data_rows(GOLDEN_DIR / name)
    assert json.loads((tmp_path / "manifest.json").read_text())["environment"] == {"compiled_kernels": False}


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    manifests = {}
    for name in GOLDEN:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN_DIR / name).write_bytes(run(name, Path(tmp)).read_bytes())
            manifests[name] = manifest_blocks(Path(tmp))
            print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
    MANIFESTS.write_text(json.dumps(manifests, indent=2) + "\n")
    print(f"wrote {MANIFESTS}", file=sys.stderr)
