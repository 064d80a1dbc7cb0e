"""Workload definitions shared by the benchmark scripts.

Each workload is one fixed roundtrap CLI invocation.  The seed picks only
the oscillator coefficients (a, b) from SEED_TABLE; every pair has
a*b = 1/50, so the angular frequency sqrt(a*b), the step counts and the
sample counts -- and so the work -- are the same for every seed, and only
the operand bit patterns change.  No coefficient is a dyadic rational, so
no seed turns a rounded multiplication into an exact one.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

SEED_TABLE = (
    ("0.1", "0.2"),
    ("0.2", "0.1"),
    ("0.05", "0.4"),
    ("0.4", "0.05"),
    ("0.025", "0.8"),
    ("0.8", "0.025"),
)

# Columns outside the bit-reproducibility guarantee of the CLI.
UNCHECKED_COLUMNS = ("wall_time_s",)

SWEEP_DT_LIST = "1e-1,3e-2,1e-2,3e-3,1e-3,3e-4,1e-4"

# Significand widths of the kernel probes: half, single, double and quad.
PRECISIONS = (10, 24, 53, 113)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    smoke_argv: tuple[str, ...]
    csv_name: str
    why: str

    def full_argv(self, seed: int, smoke: bool = False) -> list[str]:
        a, b = coefficients(seed)
        return [*(self.smoke_argv if smoke else self.argv), "--a", a, "--b", b]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-v",
            ("sweep", "--t-end", "30", "--dt-list", SWEEP_DT_LIST, "--jobs", "2"),
            ("sweep", "--t-end", "0.3", "--dt-list", SWEEP_DT_LIST, "--jobs", "2"),
            "sweep.csv",
            "the paper's V-shape step-size sweep, scaled down; step kernels and pool scheduling",
        ),
        Workload(
            "longrun-dense",
            ("longrun", "--dt", "1e-2", "--t-end", "200", "--samples", "10000", "--spacing", "linear"),
            ("longrun", "--dt", "1e-2", "--t-end", "2", "--samples", "10000", "--spacing", "linear"),
            "timeseries.csv",
            "dense error time series of a long run; the 240-bit wide layer dominates",
        ),
        Workload(
            "residual-rk3",
            ("diagnose", "residual", "--scheme", "rk3", "--dt", "1e-4", "--t-end", "2", "--p-run", "24"),
            ("diagnose", "residual", "--scheme", "rk3", "--dt", "1e-4", "--t-end", "0.02", "--p-run", "24"),
            "diagnostics.csv",
            "every-step recording plus the exact consistency-residual stencil of analysis",
        ),
    )
}


def coefficients(seed: int) -> tuple[str, str]:
    """The (a, b) decimal pair that a seed selects."""
    return SEED_TABLE[seed % len(SEED_TABLE)]


def entry_key(seed: int) -> str:
    return ",".join(coefficients(seed))


def _flag(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def work_counts(argv) -> dict[str, int]:
    """Step and sample counts implied by a workload's argv (independent of
    a and b); steps are summed over every channel the command integrates."""
    sub = argv[0]
    t_end = Fraction(_flag(argv, "--t-end"))
    if sub == "sweep":
        dts = [Fraction(d) for d in _flag(argv, "--dt-list").split(",")]
        per_channel = sum(round(t_end / dt) for dt in dts)
        return {"legs": len(dts), "steps_per_channel": per_channel, "steps": 2 * per_channel,
                "rows": len(dts)}
    n = round(t_end / Fraction(_flag(argv, "--dt")))
    if sub == "longrun":
        samples = min(int(_flag(argv, "--samples")), n)
        return {"steps_per_channel": n, "steps": 2 * n, "samples": samples, "rows": samples}
    return {"steps_per_channel": n, "steps": n, "samples": n + 1, "rows": 3}


def row_digests(csv_path: Path) -> tuple[list[str], list[str]]:
    """(data header, one digest per row) of a CLI output file.  The digest
    covers the exact text of every data column, i.e. every column except
    UNCHECKED_COLUMNS; 32 bits per row keeps the stored tables small."""
    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    keep = [i for i, col in enumerate(header) if col not in UNCHECKED_COLUMNS]
    digests = [
        hashlib.sha256(",".join(row[i] for i in keep).encode()).hexdigest()[:8]
        for row in rows[1:]
    ]
    return [header[i] for i in keep], digests
