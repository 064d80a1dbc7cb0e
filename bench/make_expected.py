"""Regenerate the expected output digests in bench/expected/.

The emulator is the oracle: the tables hold the data-column digests that
the CLI of the commit the benchmark was defined at writes for every
workload and every seed-table entry, at full and at smoke size.  Run it
from the repository root, only when the expected outputs are meant to
change:

    python3 bench/make_expected.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import EXPECTED_DIR, ROOT, SEED_TABLE, SRC, WORKLOADS, entry_key, row_digests


def main() -> int:
    import mpmath

    sys.path.insert(0, str(SRC))
    import roundtrap

    env = dict(os.environ, PYTHONPATH=str(SRC))
    EXPECTED_DIR.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        table = {"roundtrap": roundtrap.__version__, "mpmath_backend": mpmath.libmp.BACKEND}
        for size in ("full", "smoke"):
            entries = {}
            for seed in range(len(SEED_TABLE)):
                out = tempfile.mkdtemp(dir=scratch)
                try:
                    argv = wl.full_argv(seed, smoke=size == "smoke")
                    subprocess.run(
                        [sys.executable, "-m", "roundtrap.cli", *argv, "--out-dir", out],
                        env=env, check=True, stdout=subprocess.DEVNULL,
                    )
                    header, digests = row_digests(Path(out) / wl.csv_name)
                finally:
                    shutil.rmtree(out)
                entries[entry_key(seed)] = {"header": header, "rows": "".join(digests)}
                print(f"{wl.name} {size} {entry_key(seed)}: {len(digests)} rows", flush=True)
            table[size] = entries
        (EXPECTED_DIR / f"{wl.name}.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
