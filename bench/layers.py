"""Per-layer measurements, run as a child process of bench/run.py.

Two modes, each printing one JSON object as its last line:

    python3 bench/layers.py cli --trace 0|1 -- ARGV...
        Imports roundtrap.cli in this fresh interpreter and runs
        cli.main(ARGV) in-process.  With --trace 1 the calls into each
        layer are wrapped, from here, at the names their callers look them
        up under (a from-import binds a name at import time, so patching
        only the defining module would miss those calls).  Spans (name,
        start, end, parent) are kept in memory and written to --spans at
        the end; the summary gives self time per layer and call counts.

    python3 bench/layers.py probes --a A --b B [--smoke]
        Microbenchmarks of the raw fpcore kernels, the scheme step kernels,
        one sweep leg's run and reference channels, the wide layer and the
        residual stencil, on operands replayed from the workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

from workloads import PRECISIONS, SRC

sys.path.insert(0, str(SRC))

perf = time.perf_counter

# (module, attribute) -> layer the span is charged to.  cli.stepsize_sweep,
# cli.longtime_run and cli._diagnose_rows are the top-level compute calls
# ("legs") of the three subcommands.
TRACED = {
    ("experiments", "integrate_pair"): "schemes",
    ("experiments", "analytic_solution"): "wide",
    ("experiments", "error_separation"): "analysis",
    ("cli", "integrate"): "schemes",
    ("cli", "consistency_residual"): "analysis",
    ("cli", "stepsize_sweep"): "experiments",
    ("cli", "longtime_run"): "experiments",
    ("cli", "_diagnose_rows"): "cli",
    ("_wide", "wide_norm2"): "wide",
    ("_wide", "wide_sqrt"): "wide",
    ("_wide", "wide_cos_sin"): "wide",
    ("cli", "_write_csv"): "cli",
    ("cli", "_write_manifest"): "cli",
}
LEG_SPANS = ("cli.stepsize_sweep", "cli.longtime_run", "cli._diagnose_rows")
LAYERS = ("schemes", "wide", "analysis", "experiments", "cli")


class Tracer:
    """Span recorder.  A span is [name, start, end, parent index, steps];
    steps is the number of step-kernel calls an integration span made."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if name.endswith("integrate_pair"):
                span[4] = 2 * result[0].n_steps
            elif name.endswith("integrate"):
                span[4] = result.n_steps
            return result

        return traced

    def patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (children of one span never overlap: tracing is single-threaded)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own


def cmd_cli(trace: bool, argv: list[str], spans_path: str | None) -> dict:
    started = perf()
    import roundtrap.cli as cli
    from roundtrap import _wide, experiments

    import_s = perf() - started
    tracer = Tracer()
    missing = []
    if trace:
        modules = {"cli": cli, "experiments": experiments, "_wide": _wide}
        for mod, attr in TRACED:
            if hasattr(modules[mod], attr):
                tracer.patch(modules[mod], attr, f"{mod}.{attr}")
            else:
                missing.append(f"{mod}.{attr}")
    main = tracer.wrap("cli.main", cli.main)
    try:
        code = main(argv)
    finally:
        tracer.unpatch()
    spans = tracer.spans
    root = spans[0]
    result = {"exit": code, "import_s": import_s, "main_s": root[2] - root[1], "missing": missing}
    if not trace:
        return result
    layer_of = {f"{mod}.{attr}": layer for (mod, attr), layer in TRACED.items()}
    layer_of["cli.main"] = "cli"
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, tracer.self_times()):
        self_s[layer_of[span[0]]] += own
    calls = Counter(span[0] for span in spans)
    legs = [s[2] - s[1] for s in spans if s[0] in LEG_SPANS]
    result.update(
        self_s=self_s,
        calls=calls,
        steps=sum(s[4] for s in spans),
        write_s=sum(s[2] - s[1] for s in spans if s[0] in ("cli._write_csv", "cli._write_manifest")),
        legs_s=legs,
        spans=len(spans),
    )
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "steps"], "spans": spans}, fh)
    return result


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

REPEATS = 7


def _per_call(fn, calls: list[tuple], loops: int) -> list[float]:
    """Seconds per call of fn over the replayed argument tuples, one value
    per repeat; each repeat replays the list ``loops`` times."""
    out = []
    for _ in range(REPEATS):
        t0 = perf()
        for _ in range(loops):
            for args in calls:
                fn(*args)
        out.append((perf() - t0) / (loops * len(calls)))
    return out


def _summary(values: list[float], scale: float) -> dict:
    v = sorted(x * scale for x in values)
    return {"median": statistics.median(v), "min": v[0], "max": v[-1], "repeats": len(v)}


def cmd_probes(a: str, b: str, smoke: bool) -> dict:
    from roundtrap import _wide, analysis, experiments, fpcore, schemes
    from roundtrap.fpcore import PrecisionConfig
    from roundtrap.oscillator import OscillatorParams
    from roundtrap.schemes import SamplingPlan, Scheme, integrate

    params = OscillatorParams(Fraction(a), Fraction(b))
    out: dict[str, dict] = {}

    def record(name, values, scale, unit):
        out[name] = dict(_summary(values, scale), unit=unit)

    # One sweep-v leg (midpoint, dt=1e-4, t_end=30) integrated alone at the
    # run and at the reference precision; its states, sampled along the
    # whole orbit, are the operand source for the fpcore kernels.
    leg_dt, leg_t = Fraction("1e-4"), Fraction("0.3" if smoke else "30")
    stride = 30 if smoke else 3000
    for metric, p in (("schemes.run_channel_s", 24), ("schemes.ref_channel_s", 113)):
        t0 = perf()
        traj = integrate(Scheme.MIDPOINT_IMPLICIT, params, leg_dt, leg_t, PrecisionConfig(p),
                         SamplingPlan.every(stride))
        record(metric, [perf() - t0], 1.0, "s")
    ref_states = [s for _, s in traj.samples]  # the p=113 channel

    # fpcore: capture the raw-kernel calls of one midpoint step from each
    # sampled reference state rounded to p, then replay them.
    for p in PRECISIONS:
        ops = {"round": [], "add": [], "mul": [], "div": []}
        orig_round = fpcore._round_raw

        def capture(kind, fn, negate_b=False):
            def wrapped(am, ae, bm, be, q):
                ops[kind].append((am, ae, -bm if negate_b else bm, be, q))
                return fn(am, ae, bm, be, q)
            return wrapped

        def capture_round(m, e, q):
            ops["round"].append((m, e, q))
            return orig_round(m, e, q)

        consts = schemes._consts(Scheme.MIDPOINT_IMPLICIT, params, leg_dt, p)
        starts = [(*fpcore._fraction_to_raw(s.x, p), *fpcore._fraction_to_raw(s.y, p))
                  for s in ref_states]
        saved = (schemes._add_raw, schemes._sub_raw, schemes._mul_raw, schemes._div_raw)
        schemes._add_raw = capture("add", fpcore._add_raw)
        schemes._sub_raw = capture("add", fpcore._sub_raw, negate_b=True)
        schemes._mul_raw = capture("mul", fpcore._mul_raw)
        schemes._div_raw = capture("div", fpcore._div_raw)
        fpcore._round_raw = capture_round
        try:
            for st in starts:
                schemes._midpoint_step(st, consts, p)
        finally:
            schemes._add_raw, schemes._sub_raw, schemes._mul_raw, schemes._div_raw = saved
            fpcore._round_raw = orig_round
        for kind, fn in (("round", fpcore._round_raw), ("add", fpcore._add_raw),
                         ("mul", fpcore._mul_raw), ("div", fpcore._div_raw)):
            loops = max(1, 20000 // len(ops[kind]))
            record(f"fpcore.{kind}_ns.p{p}", _per_call(fn, ops[kind], loops), 1e9, "ns")

    # Step kernels: a final-only integrate call, microseconds per step.
    n = 200 if smoke else 2000
    dt = Fraction("1e-2")
    for scheme in Scheme:
        for p in PRECISIONS:
            cfg = PrecisionConfig(p)
            values = []
            for _ in range(REPEATS):
                t0 = perf()
                integrate(scheme, params, dt, n * dt, cfg)
                values.append((perf() - t0) / n)
            record(f"schemes.step_us.{scheme.value}.p{p}", values, 1e6, "us")

    # Recording cost: every-step minus final-only integrate on the
    # residual-rk3 configuration, per recorded sample; repeats interleave.
    n = 500 if smoke else 5000
    dt, cfg = Fraction("1e-4"), PrecisionConfig(24)
    values = []
    for _ in range(5):
        t0 = perf()
        integrate(Scheme.RK3, params, dt, n * dt, cfg)
        t1 = perf()
        integrate(Scheme.RK3, params, dt, n * dt, cfg, SamplingPlan.every(1))
        t2 = perf()
        values.append(((t2 - t1) - (t1 - t0)) / n)
    record("schemes.record_us", values, 1e6, "us")

    # Wide layer: capture the arguments of a long run at the longrun-dense
    # step size and final time, 200 linear samples, and replay them.
    tracer = Tracer()
    captured: dict[str, list] = {"analytic": [], "norm2": [], "cos_sin": [], "error_separation": []}

    def capture_args(key, fn):
        def wrapped(*args):
            captured[key].append(args)
            return fn(*args)
        return wrapped

    wide_fns = {
        "analytic": experiments.analytic_solution,
        "error_separation": experiments.error_separation,
        "norm2": _wide.wide_norm2,
        "cos_sin": _wide.wide_cos_sin,
    }
    experiments.analytic_solution = tracer.wrap("analytic", capture_args("analytic", wide_fns["analytic"]))
    experiments.error_separation = tracer.wrap(
        "error_separation", capture_args("error_separation", wide_fns["error_separation"]))
    experiments.integrate_pair = tracer.wrap("integrate_pair", schemes.integrate_pair)
    _wide.wide_norm2 = capture_args("norm2", wide_fns["norm2"])
    _wide.wide_cos_sin = capture_args("cos_sin", wide_fns["cos_sin"])
    samples = 20 if smoke else 200
    longtime = tracer.wrap("longtime_run", experiments.longtime_run)
    try:
        longtime(Scheme.MIDPOINT_IMPLICIT, params, Fraction("1e-2"), Fraction(2 if smoke else 200),
                 PrecisionConfig(24), PrecisionConfig(113), samples, "linear")
    finally:
        experiments.analytic_solution = wide_fns["analytic"]
        experiments.error_separation = wide_fns["error_separation"]
        experiments.integrate_pair = schemes.integrate_pair
        _wide.wide_norm2 = wide_fns["norm2"]
        _wide.wide_cos_sin = wide_fns["cos_sin"]
    own = tracer.self_times()
    values = [own[i] / samples for i, s in enumerate(tracer.spans) if s[0] == "longtime_run"]
    record("experiments.longtime_self_us", values, 1e6, "us")
    for key, metric in (("analytic", "oscillator.analytic_us"), ("norm2", "wide.norm2_us"),
                        ("cos_sin", "wide.cos_sin_us"),
                        ("error_separation", "analysis.error_separation_us")):
        record(metric, _per_call(wide_fns[key], captured[key], 1), 1e6, "us")

    # Residual stencil: consistency_residual on an every-step rk3 run of the
    # residual-rk3 configuration, minus its wide_norm2 child spans, per step pair.
    n = 200 if smoke else 2000
    traj = integrate(Scheme.RK3, params, Fraction("1e-4"), n * Fraction("1e-4"),
                     PrecisionConfig(24), SamplingPlan.every(1))
    values = []
    for _ in range(5):
        tracer = Tracer()
        tracer.patch(_wide, "wide_norm2", "wide_norm2")
        residual = tracer.wrap("consistency_residual", analysis.consistency_residual)
        try:
            residual(traj, params)
        finally:
            tracer.unpatch()
        values.append(tracer.self_times()[0] / n)
    record("analysis.residual_self_us", values, 1e6, "us")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("probes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        result = cmd_cli(bool(args.trace), argv, args.spans)
    else:
        result = cmd_probes(args.a, args.b, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
