"""roundtrap benchmark.

Runs one fixed CLI workload as fresh processes, closed loop with one client
(each invocation starts after the previous one exits), checks every output
row against the stored expected digests, and prints the end-to-end metrics
(--trace 0) or the per-layer metrics of a separate traced run (--trace 1).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Run from the repository root:

    python3 bench/run.py --workload sweep-v --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1
    python3 bench/run.py --smoke

See bench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import (EXPECTED_DIR, PRECISIONS, ROOT, SRC, WORKLOADS, coefficients, entry_key,
                       row_digests, work_counts)

BENCH = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".bench_out"
PYTHON = sys.executable

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"fpcore.{k}_ns.p{p}": "ns" for k in ("round", "add", "mul", "div") for p in PRECISIONS},
    **{f"schemes.step_us.{s}.p{p}": "us" for s in ("euler", "midpoint", "rk3") for p in PRECISIONS},
    "schemes.run_channel_s": "s",
    "schemes.ref_channel_s": "s",
    "schemes.steps": "count",
    "schemes.record_us": "us",
    "oscillator.analytic_us": "us",
    "oscillator.analytic_calls": "count",
    "wide.norm2_us": "us",
    "wide.norm2_calls": "count",
    "wide.sqrt_calls": "count",
    "wide.cos_sin_us": "us",
    "analysis.error_separation_us": "us",
    "analysis.residual_self_us": "us",
    "experiments.leg_s.max": "s",
    "experiments.leg_s.sum": "s",
    "experiments.pool_idle_share": "share",
    "experiments.longtime_self_us": "us",
    "cli.import_s": "s",
    "cli.write_s": "s",
    **{f"share.{layer}": "share" for layer in ("schemes", "wide", "analysis", "experiments", "cli")},
    "trace.overhead_share": "share",
}

SETUP_REPEATS = 11
MIN_REPS = 3
DEADLINE_S = 170.0
SETUP_CODE = (
    "import sys\n"
    "import roundtrap.cli as cli\n"
    "cli._resolve(cli.build_parser().parse_args(sys.argv[1:]))\n"
)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Child:
    """Result of one child process: wall time, rusage of its tree, exit code
    and standard output."""

    def __init__(self, cmd: list[str], out_dir: Path, deadline: float):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        log, err = out_dir / "stdout.txt", out_dir / "stderr.txt"
        with log.open("w") as fh, err.open("w") as efh:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=efh,
                                    start_new_session=True)
            timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # leftovers of a child that died early
        self.exit = proc.returncode
        # wait4 folds in the terminated children the process waited for
        # (the sweep's pool workers); ru_maxrss is the largest RSS among them
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = log.read_text()
        self.stderr = err.read_text()

    def last_json(self) -> dict:
        lines = self.stdout.strip().splitlines()
        if self.exit != 0 or not lines:
            raise BenchError(f"child exited {self.exit}: {self.stderr[-800:]}")
        return json.loads(lines[-1])


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


class Checker:
    """Compares CLI output rows with the expected digests of one workload,
    seed-table entry and size, and counts rows attempted and failed."""

    def __init__(self, workload, seed: int, smoke: bool):
        self.workload = workload
        table = json.loads((EXPECTED_DIR / f"{workload.name}.json").read_text())
        self.backend = table["mpmath_backend"]
        entry = table["smoke" if smoke else "full"][entry_key(seed)]
        self.header = entry["header"]
        self.expected = [entry["rows"][i:i + 8] for i in range(0, len(entry["rows"]), 8)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, exit_code: int, out_dir: Path) -> None:
        self.attempted += len(self.expected)
        path = out_dir / self.workload.csv_name
        if exit_code != 0 or not path.is_file():
            self.failed += len(self.expected)
            self.problems.append(f"exit code {exit_code}, output present: {path.is_file()}")
            return
        header, digests = row_digests(path)
        if header != self.header:
            self.failed += len(self.expected)
            self.problems.append(f"header {header} != {self.header}")
            return
        bad = sum(1 for got, want in zip(digests, self.expected) if got != want)
        bad += abs(len(digests) - len(self.expected))
        if bad:
            self.problems.append(f"{bad} of {len(self.expected)} rows differ")
        if self.workload.csv_name == "sweep.csv":
            statuses = [r["status"] for r in _read_rows(path)]
            if any(s != "ok" for s in statuses):
                self.problems.append(f"sweep leg status {statuses}")
                bad = len(self.expected)
        self.failed += min(bad, len(self.expected))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def environment() -> dict:
    import importlib.metadata

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import mpmath.libmp

        backend = mpmath.libmp.BACKEND
        mp_version = importlib.metadata.version("mpmath")
    except ImportError:
        backend = mp_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mp_version,
        "mpmath_backend": backend,
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def cli_cmd(argv: list[str], out_dir: Path) -> list[str]:
    return [PYTHON, "-m", "roundtrap.cli", *argv, "--out-dir", str(out_dir)]


def fresh_dir(parent: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=parent))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(wl, seed: int, seconds: float, smoke: bool, work: Path, deadline: float,
               checker: Checker) -> dict:
    argv = wl.full_argv(seed, smoke)
    setup_cmd = [PYTHON, "-c", SETUP_CODE, *argv, "--out-dir", str(work / "setup")]
    Child(setup_cmd, work, deadline)  # untimed: fills the bytecode and page caches
    setups = []
    for _ in range(SETUP_REPEATS):
        child = Child(setup_cmd, work, deadline)
        if child.exit != 0:
            raise BenchError(f"set-up exited {child.exit}: {child.stderr[-800:]}")
        setups.append(child.wall_s)
    walls, cpus, rsss = [], [], []
    started = time.monotonic()
    min_reps = 1 if smoke else MIN_REPS
    while True:
        out = fresh_dir(work)
        child = Child(cli_cmd(argv, out), out, deadline)
        checker.check(child.exit, out)
        shutil.rmtree(out)
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rsss.append(child.rss_mb)
        next_end = time.monotonic() + statistics.median(walls)
        if len(walls) >= min_reps and (next_end - started > seconds or next_end > deadline):
            break
    series = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss, "setup_s": setups}
    for name, values in series.items():
        q1, q2, q3 = quartiles(values)
        print(f"  {name:<12} median {q2:.4f} {END_TO_END[name]:<3} quartiles [{q1:.4f}, {q3:.4f}]"
              f"  n={len(values)}")
    return {name: statistics.median(values) for name, values in series.items()}


def traced(wl, seed: int, smoke: bool, work: Path, deadline: float, checker: Checker) -> dict:
    argv = wl.full_argv(seed, smoke)
    a, b = coefficients(seed)
    metrics: dict[str, float] = {}

    # 1. The untraced CLI process: the pool's legs for sweep-v.
    out = fresh_dir(work)
    pool_run = Child(cli_cmd(argv, out), out, deadline)
    checker.check(pool_run.exit, out)
    pool_legs = ([float(r["wall_time_s"]) for r in _read_rows(out / wl.csv_name)]
                 if wl.csv_name == "sweep.csv" and pool_run.exit == 0 else None)
    shutil.rmtree(out)

    # 2. The same argv in-process, untraced then traced; the sweep with one
    # job, since spans recorded in pool workers would be lost.
    serial = list(argv)
    if "--jobs" in serial:
        serial[serial.index("--jobs") + 1] = "1"
    runs = {}
    for trace in (0, 1):
        out = fresh_dir(work)
        spans = OUT_ROOT / f"spans-{wl.name}.json"
        cmd = [PYTHON, str(BENCH / "layers.py"), "cli", "--trace", str(trace),
               "--spans", str(spans), "--", *serial, "--out-dir", str(out)]
        child = Child(cmd, out, deadline)
        result = child.last_json()
        checker.check(result["exit"], out)
        shutil.rmtree(out)
        runs[trace] = result
    plain, tr = runs[0], runs[1]
    if tr["missing"]:
        print(f"  WARNING: names not found, not traced: {', '.join(tr['missing'])}")

    # 3. Microbenchmarks outside the trace.
    probe_cmd = [PYTHON, str(BENCH / "layers.py"), "probes", "--a", a, "--b", b]
    probes = Child(probe_cmd + (["--smoke"] if smoke else []), work, deadline).last_json()
    for name, p in probes.items():
        metrics[name] = p["median"]
        print(f"  {name:<32} {p['median']:12.4f} {p['unit']:<5} "
              f"min {p['min']:.4f} max {p['max']:.4f} repeats {p['repeats']}")

    calls = tr["calls"]
    main_s = tr["main_s"]
    if pool_legs is not None:
        jobs = int(argv[argv.index("--jobs") + 1])
        legs, busy_wall = pool_legs, jobs * pool_run.wall_s
    else:
        legs, busy_wall = tr["legs_s"], main_s
    span_metrics = {
        "schemes.steps": tr["steps"],
        "oscillator.analytic_calls": calls.get("experiments.analytic_solution", 0),
        "wide.norm2_calls": calls.get("_wide.wide_norm2", 0),
        "wide.sqrt_calls": calls.get("_wide.wide_sqrt", 0),
        "experiments.leg_s.max": max(legs),
        "experiments.leg_s.sum": sum(legs),
        "experiments.pool_idle_share": 1 - sum(legs) / busy_wall,
        "cli.import_s": plain["import_s"],
        "cli.write_s": tr["write_s"],
        **{f"share.{layer}": own / main_s for layer, own in tr["self_s"].items()},
        "trace.overhead_share": main_s / plain["main_s"] - 1,
    }
    for name, value in span_metrics.items():
        print(f"  {name:<32} {value:12.4f} {PER_LAYER[name]}")
    metrics.update(span_metrics)
    top = max(tr["self_s"], key=tr["self_s"].get)
    print(f"  traced wall {main_s:.3f} s, untraced {plain['main_s']:.3f} s, {tr['spans']} spans;"
          f" largest self-time layer: {top}")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            env: dict) -> tuple[dict, Checker]:
    wl = WORKLOADS[name]
    checker = Checker(wl, seed, smoke)
    a, b = coefficients(seed)
    argv = wl.full_argv(seed, smoke)
    counts = ", ".join(f"{k} {v}" for k, v in work_counts(argv).items())
    print(f"workload {name} (seed {seed}: a={a}, b={b}): roundtrap {' '.join(argv)}")
    print(f"  work: {counts}")
    if checker.backend != env["mpmath_backend"]:
        print(f"  WARNING: mpmath backend {env['mpmath_backend']} differs from {checker.backend},"
              " the backend the expected outputs were recorded with; wide-layer timings are not"
              " comparable across backends")
    OUT_ROOT.mkdir(exist_ok=True)
    work = fresh_dir(OUT_ROOT)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if trace:
            metrics = traced(wl, seed, smoke, work, deadline, checker)
        else:
            metrics = end_to_end(wl, seed, seconds, smoke, work, deadline, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  failed_frac {frac} ({checker.failed} of {checker.attempted} rows)")
    for problem in checker.problems:
        print(f"  FAILED: {problem}")
    return metrics, checker


def smoke(env: dict) -> int:
    """Every workload at smoke size in both modes: every metric named in
    BENCHMARK.json is printed with its unit, and no output row fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        have = PER_LAYER if trace else END_TO_END
        if wanted != have:
            print(f"smoke: BENCHMARK.json {key} does not match the benchmark's metrics")
            ok = False
        for name in WORKLOADS:
            metrics, checker = measure(name, 0, 1, trace, True, env)
            if set(metrics) != set(have) or not checker.correct:
                print(f"smoke: {name} trace={int(trace)} missing"
                      f" {sorted(set(have) - set(metrics))}, failed {checker.failed}")
                ok = False
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="roundtrap benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    args = parser.parse_args()
    if not (SRC / "roundtrap" / "cli.py").is_file():
        print(f"error: no roundtrap sources under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    env = environment()
    print("environment: " + json.dumps(env))
    if args.smoke:
        return smoke(env)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    try:
        for name in names:
            values, checker = measure(name, args.seed, args.seconds, bool(args.trace), False, env)
            units = PER_LAYER if args.trace else END_TO_END
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": values[k], "unit": units[k]} for k in units})
            attempted += checker.attempted
            failed += checker.failed
            correct = correct and checker.correct
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"loadavg at end: {os.getloadavg()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
