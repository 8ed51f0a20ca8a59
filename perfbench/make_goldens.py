"""Regenerate perfbench/goldens.json from the code in ./src.

    python3 perfbench/make_goldens.py

Run from the repository root, once, on code whose outputs are trusted:
the benchmark compares every later run against these outputs. For every
op of each workload's input pool (the scan and all 75 functions on
sweep2, 8 enumeration indices on sweep3, 1024 random functions on
sampled4), keyed by the op's key, it records the verdict vector, each
violation's bindings and, where the op renders JSON, its digest. It
stops on any op that fails the benchmark's own invariant checks.
query16 has no goldens: it is checked against the benchmark's min-rank
oracle on every seed.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    src = Path.cwd() / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import workloads
    from run import import_package
    from tracing import NullTracer

    rr = import_package(src)
    tr = NullTracer()
    goldens = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        data = wl.prepare(workloads.POOL_SEED)
        pool = wl.golden_inputs(data)
        if pool is None:
            goldens[name] = None
            continue
        st = wl.setup(rr, tr, data)
        goldens[name] = {}
        t0 = time.perf_counter()
        for op in pool:
            out = wl.run(rr, st, op, tr, lambda: None)
            problem = wl.check(rr, st, data, op, out, None)
            if problem:
                raise SystemExit(f"{name} {op.key}: {problem}")
            goldens[name][op.key] = wl.outcome(op, out)
        print(f"{name}: {len(pool)} ops in {time.perf_counter() - t0:.1f} s", flush=True)
    with open(HERE / "goldens.json", "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
