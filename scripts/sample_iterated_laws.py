#!/usr/bin/env python3
"""Sampled check of the iterated-revision laws at three atoms, or at up
to sixteen with --atoms.

Draws seeded random rank functions and runs the three iterated-revision
clauses in sampled mode. Every run is replayable from the base seed
printed at the end. Exits 1 if a clause fails, 2 if the run cannot
start, and 141 if the reader of the output closes it early.
"""

import argparse
import statistics
import sys
import time

from rankedrev import (
    PostulateId,
    RankedRevision,
    Signature,
    random_rank_function,
    run_suite,
)
from rankedrev.cli import exit_code

IDS = (PostulateId.P_PHIANDPSI, PostulateId.P_PSI, PostulateId.P_GEN)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--atoms", default="p,q,r", help="comma-separated atom names")
    parser.add_argument("--functions", type=int, default=500)
    parser.add_argument("--samples", type=int, default=120, help="bindings per clause")
    parser.add_argument("--seed", type=int, default=20260810)
    args = parser.parse_args()
    if args.functions < 1:
        # no function checked would print "0 failures", a pass that checked nothing
        parser.error(f"--functions must be at least 1, got {args.functions}")

    sig = Signature(tuple(args.atoms.split(",")))
    seconds = []
    bad = 0
    for i in range(args.functions):
        seed = args.seed + i
        start = time.perf_counter()
        rank = random_rank_function(sig, levels=(i % sig.num_valuations) + 1, seed=seed)
        report = run_suite(RankedRevision(rank), IDS, mode="sampled",
                           seed=seed, samples=args.samples)
        seconds.append(time.perf_counter() - start)
        if not report.all_pass:
            bad += 1
            for pid, violation in report.results:
                if violation is not None:
                    print(f"seed {seed}: {pid.name} FAIL {violation.describe()}")
    print(
        f"{args.functions} rank functions, {args.samples} samples per clause, "
        f"base seed {args.seed}: {bad} failures ({sum(seconds):.2f}s, "
        f"median {statistics.median(seconds):.4f}s per function)"
    )
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(exit_code(main))
