"""Benchmark runner for rankedrev.

    python3 perfbench/run.py --workload sweep2 --seed 1 --seconds 15 --trace 0

Run from the repository root. The package is imported from ./src, the
way the test suite runs it. Each run executes its workload in a child
process under an address-space cap, checks every output, prints a
summary and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ADDRESS_SPACE_CAP = 2 << 30  # bytes; a runaway table fails as a counted op
SETUP_REPEATS = (3, 11)  # at least 3 set-ups, more while they total under 1.5 s
SETUP_BUDGET_S = 1.5
CHILD_TIMEOUT_S = 170
REFERENCE_S = 1e-3  # the reference loop's duration at the nominal host speed
NEAREST = 9  # reference samples that give the host's speed around a time
REFERENCES = NEAREST // 2 + 1  # samples taken at each window and set-up

# per-layer metric -> (span name, unit, scale from seconds)
LAYER_TIMES = {
    "logic.signature_ms": ("logic.signature", "ms", 1e3),
    "ranking.parse_rank_file_ms": ("ranking.parse_rank_file", "ms", 1e3),
    "logic.parse_formula_us": ("logic.parse_formula", "us", 1e6),
    "logic.models_of_us": ("logic.models_of", "us", 1e6),
    "ranking.consequences_of_ms": ("ranking.consequences_of", "ms", 1e3),
    "revision.revise_mild_us": ("revision.revise_mild", "us", 1e6),
    "revision.revise_severe_ms": ("revision.revise_severe", "ms", 1e3),
    "revision.iterate_ms": ("revision.iterate", "ms", 1e3),
    "ranking.consequence_table_ms": ("ranking.consequence_table", "ms", 1e3),
    "ranking.random_rank_ms": ("ranking.random_rank", "ms", 1e3),
    "postulates.sampled_ms": ("postulates.sampled", "ms", 1e3),
    "postulates.kf_ms": ("postulates.kf", "ms", 1e3),
    "postulates.kkf_ms": ("postulates.kkf", "ms", 1e3),
    "postulates.kff_ms": ("postulates.kff", "ms", 1e3),
    "revision.table_ms": ("revision.table", "ms", 1e3),
    "relations.rationality_ms": ("relations.rationality", "ms", 1e3),
    "ranking.enumerate_s": ("ranking.enumerate", "s", 1.0),
    "postulates.replay_us": ("postulates.replay", "us", 1e6),
    "postulates.witness_ms": ("postulates.witness", "ms", 1e3),
    "postulates.scan_ms": ("postulates.scan", "ms", 1e3),
    "render.report_json_ms": ("render.report_json", "ms", 1e3),
}
EXACT_COUNTS = ("postulates.kf_bindings", "postulates.kkf_bindings",
                "postulates.kff_bindings", "postulates.violations",
                "revision.mild_calls", "revision.severe_calls")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main():
    args = parse_args()
    src = Path.cwd() / "src"
    if not (src / "rankedrev" / "__init__.py").is_file():
        print(f"error: no package at {src / 'rankedrev'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.child:
        return child(args, src)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the only child waited for is the workload.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        lines.insert(-1, f"  peak_rss_mb    {peak:.1f} MB (workload process)")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


def child(args, src):
    cap = ADDRESS_SPACE_CAP
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    with open(HERE / "goldens.json", encoding="utf-8") as fh:
        golden = json.load(fh)[wl.name]
    data = wl.prepare(args.seed)
    run = traced_run if args.trace else timed_run
    result = run(wl, data, args, golden, src)
    print(json.dumps(result))
    return 0


def reference_loop():
    """A fixed piece of pure-Python small-integer arithmetic; its time
    measures the interpreter's speed. It takes about REFERENCE_S on a
    2-vCPU x86-64 virtual machine."""
    x = 0
    for i in range(8000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


class Calibration:
    """The host's speed over a run. On a shared virtual machine it drifts
    by a factor of two or more within minutes, for the package as for any
    other Python code. A run times the reference loop before each window
    of ops and each set-up (and between the steps of a long op), and scales
    each measured interval by REFERENCE_S over the median reference time
    around it. That gives seconds at the nominal speed. Time spent here is
    left out of the ops' times."""

    def __init__(self):
        self.times, self.durations = [], []
        self.spent = 0.0

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.durations.append(t1 - t0)
            self.spent += t1 - t0

    def factor(self):
        """REFERENCE_S over the median of every sample so far."""
        return REFERENCE_S / statistics.median(self.durations)

    def scaled(self, dt, t0, t1):
        """``dt``, measured within [t0, t1], at the nominal speed: scaled by
        the reference samples inside the interval and the NEAREST ones
        around its middle."""
        mid = bisect_left(self.times, (t0 + t1) / 2)
        lo = max(0, min(bisect_left(self.times, t0), mid - NEAREST // 2))
        hi = max(bisect_right(self.times, t1), mid + NEAREST // 2 + 1)
        return dt * REFERENCE_S / statistics.median(self.durations[lo:hi])


def import_package(src):
    """Import rankedrev afresh from ./src (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "rankedrev" or m.startswith("rankedrev.")]:
        del sys.modules[name]
    rr = importlib.import_module("rankedrev")
    if not Path(rr.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported rankedrev from {rr.__file__}, not from {src}")
    return rr


class Tally:
    """Outcomes of a sequence of ops: counts, timings and failures.
    ``wrong`` counts the ops that make a run incorrect: a wrong output, or
    an exception other than the workload's known failure."""

    def __init__(self, wl, rr, data, golden, cal):
        self.wl, self.rr, self.data, self.golden, self.cal = wl, rr, data, golden, cal
        self.attempted = self.failed = self.wrong = 0
        self.busy = 0.0
        self.timings = []  # (time, start, end, counts as a unit, succeeded) per op
        self.failures = {}  # reason -> [count, first failing input]
        self.counts = Counter()

    def run(self, st, op, call):
        """Time ``call`` (one op), then check and count its output. The
        op's time leaves out the calibration it pauses for."""
        wl, rr, data, cal = self.wl, self.rr, self.data, self.cal
        spent = cal.spent
        t0 = time.perf_counter()
        try:
            out, reason = call(), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, reason = None, f"{type(exc).__name__} in {op.kind}"
            if not wl.known_failure(op, exc):
                self.wrong += 1
                reason = f"unexpected {reason}: {exc}"
        t1 = time.perf_counter()
        dt = t1 - t0 - (cal.spent - spent)
        if reason is None:
            problem = wl.check(rr, st, data, op, out, self.golden)
            if problem:
                self.wrong += 1
                reason = f"wrong output in {op.kind}: {problem}"
        self.counts += wl.counts(rr, st, data, op, out)
        self.attempted += 1
        self.busy += dt
        self.timings.append((dt, t0, t1, op.unit, reason is None))
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(reason, [0, op.key])[0] += 1

    def report(self):
        return [f"  failed: {n} x {reason}; first input: {first}"
                for reason, (n, first) in sorted(self.failures.items())]


def metric(value, unit):
    return {"value": value, "unit": unit}


def op_metrics(times, window):
    """ops_per_s, p50_ms and p90_ms from (time, counts as a unit,
    succeeded) per op. ops_per_s is the median over windows of ``window``
    ops, which damps bursts of contention."""
    lat = sorted(dt for dt, unit, _ in times if unit)
    # inclusive: with the few samples of sweep3, p90 stays within them
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    rates = [sum(unit and ok for _, unit, ok in w) / sum(dt for dt, _, _ in w)
             for w in (times[i:i + window] for i in range(0, len(times), window))]
    return {"ops_per_s": (statistics.median(rates), "1/s"),
            "p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "p90_ms": (p90 * 1e3, "ms")}


def timed_run(wl, data, args, golden, src):
    from tracing import NullTracer

    tr = NullTracer()
    cal = Calibration()
    setups = []
    least, most = SETUP_REPEATS
    while len(setups) < least or (len(setups) < most and sum(setups) < SETUP_BUDGET_S):
        st = None
        gc.collect()
        cal.sample(REFERENCES)
        t0 = time.perf_counter()
        rr = import_package(src)
        st = wl.setup(rr, tr, data)
        setups.append(time.perf_counter() - t0)
    tally = Tally(wl, rr, data, golden, cal)
    ops = wl.inputs(data, args.seed)
    while tally.busy < args.seconds or tally.attempted < wl.min_ops \
            or tally.attempted % wl.window:
        if tally.attempted % wl.window == 0:
            cal.sample(REFERENCES)
        op = next(ops)
        tally.run(st, op, lambda: wl.run(rr, st, op, tr, cal.sample))
    cal.sample(REFERENCES)

    raw = op_metrics([(dt, unit, ok) for dt, _, _, unit, ok in tally.timings], wl.window)
    raw["setup_s"] = (statistics.median(setups), "s")
    scaled = op_metrics([(cal.scaled(dt, t0, t1), unit, ok)
                         for dt, t0, t1, unit, ok in tally.timings], wl.window)
    # A set-up is scaled by the whole run's reference median: a run has
    # few set-ups, each far from most samples.
    scaled["setup_s"] = (raw["setup_s"][0] * cal.factor(), "s")
    metrics = {name: metric(*scaled[name]) for name in ("setup_s", "ops_per_s", "p50_ms", "p90_ms")}
    metrics["ok_share"] = metric((tally.attempted - tally.failed) / tally.attempted, "share")
    print(f"{wl.name} seed={args.seed}: {tally.attempted} ops in {tally.busy:.2f} s busy, "
          f"{len(setups)} set-ups; reference loop median "
          f"{statistics.median(cal.durations) * 1e3:.4f} ms over {len(cal.durations)} samples")
    print("  times at the nominal host speed [as measured]")
    for name, m in metrics.items():
        measured = f" [{raw[name][0]:.6g}]" if name in raw else ""
        print(f"  {name:14} {m['value']:.6g} {m['unit']}{measured}")
    for line in tally.report():
        print(line)
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def traced_run(wl, data, args, golden, src):
    """Run each op of the fixed trace list once untraced and once traced,
    each pass with its own set-up; per-layer metrics come from the traced
    pass, the tracing overhead from the difference."""
    from tracing import NullTracer, Tracer

    ops = wl.trace_inputs(data, args.seed)
    tr = Tracer()
    cal = Calibration()
    rr = import_package(src)
    passes = []
    # The traced pass sets up first, so its set-up spans run on a heap that
    # holds no other pass's state.
    for ptr in (tr, NullTracer()):
        cal.sample(REFERENCES)
        passes.insert(0, (ptr, wl.setup(rr, ptr, data), Tally(wl, rr, data, golden, cal)))
    for i, op in enumerate(ops):
        if i % wl.window == 0:
            cal.sample(REFERENCES)
        # alternate which pass goes first, so drift in machine speed cancels
        for ptr, st, tally in (passes if i % 2 == 0 else passes[::-1]):
            tally.run(st, op, lambda: ptr.op("op." + op.kind, wl.run, rr, st, op, ptr, cal.sample))
    cal.sample(REFERENCES)
    untraced, traced = (tally for _, _, tally in passes)
    summary = tr.summary(cal.scaled)  # span times at the nominal host speed
    # A span this workload should record but did not is an error, so a
    # missing call cannot read as a zero-time layer. Spans of the other
    # workloads read 0 here.
    missing = sorted(wl.spans - summary.keys())
    metrics = {}
    for name, (span, unit, scale) in LAYER_TIMES.items():
        s = summary.get(span) if span in wl.spans else None
        metrics[name] = metric(s["median_s"] * scale if s else 0.0, unit)
    for shape in ("kf", "kkf", "kff"):
        s = summary.get("postulates." + shape)
        rate = traced.counts[f"postulates.{shape}_bindings"] / s["busy_s"] if s else 0.0
        metrics[f"postulates.{shape}_bindings_per_s"] = metric(rate, "1/s")
    for name in EXACT_COUNTS:
        metrics[name] = metric(traced.counts[name], "count")
    metrics["ops"] = metric(traced.attempted, "count")
    metrics["failed_ops"] = metric(traced.failed, "count")
    busy = {t: sum(cal.scaled(dt, t0, t1) for dt, t0, t1, _, _ in t.timings)
            for t in (untraced, traced)}
    overhead = (busy[traced] / busy[untraced] - 1) * 100
    metrics["trace.overhead_pct"] = metric(overhead, "%")

    repeat_ok = (untraced.counts, untraced.failures) == (traced.counts, traced.failures)
    print(f"{wl.name} seed={args.seed} traced: {len(ops)} ops; busy untraced "
          f"{busy[untraced]:.3f} s, traced {busy[traced]:.3f} s, overhead {overhead:.2f}%; "
          f"span times at the nominal host speed")
    print(f"  {'span':32} {'calls':>7} {'busy_s':>10} {'median_ms':>11} {'self_s':>10}")
    for span, s in summary.items():
        print(f"  {span:32} {s['calls']:7d} {s['busy_s']:10.4f} "
              f"{s['median_s'] * 1e3:11.4f} {s['self_s']:10.4f}")
    for name in EXACT_COUNTS + ("ops", "failed_ops"):
        print(f"  {name:32} {metrics[name]['value']}")
    if not repeat_ok:
        print("  exact counts or failures differ between the untraced and traced pass")
    if missing:
        print(f"  spans not recorded: {', '.join(missing)}")
    for line in traced.report():
        print(line)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.dump(out_dir / f"trace-{wl.name}-seed{args.seed}.json",
            {"workload": wl.name, "seed": args.seed, "summary": summary,
             "metrics": metrics, "failures": traced.failures})
    return {"correct": untraced.wrong == 0 and traced.wrong == 0 and repeat_ok and not missing,
            "attempted": traced.attempted, "failed": traced.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
