#!/usr/bin/env python3
"""Sweep the whole postulate catalogue over every normalized rank
function at up to three atoms and summarize which clauses hold
universally.

Every clause is stated on model sets, so a rank function and any
relabelling of its valuations pass and fail the same clauses. The sweep
checks one representative per such orbit (8 at two atoms, 128 at three)
and weights its verdicts by the orbit's size, which gives the counts over
all 75 (or 545835) functions.

The K1-K9 block and the derived clauses pass on every rank-induced
revision; U8, U8.1 and C2 fail on every one of them (witnesses exist by
the impossibility results). Exits 1 if that picture is disturbed, 2 if
the atoms do not form a signature of at most three atoms, and 141 if the
reader of the output closes it early.
"""

import argparse
import statistics
import sys
import time
from collections import Counter

from rankedrev import (
    PostulateId,
    RankedRevision,
    Signature,
    run_suite,
    sweep_orbits,
)
from rankedrev.cli import exit_code

EXPECTED_TO_FAIL = {PostulateId.U8, PostulateId.U8_1, PostulateId.C2}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--atoms", default="p,q", help="comma-separated atom names")
    args = parser.parse_args()

    orbits = list(sweep_orbits(Signature(tuple(args.atoms.split(",")))))
    fail_counts: Counter = Counter()
    seconds = []
    for rank, weight in orbits:
        start = time.perf_counter()
        report = run_suite(RankedRevision(rank), list(PostulateId))
        seconds.append(time.perf_counter() - start)
        for pid, violation in report.results:
            if violation is not None:
                fail_counts[pid] += weight
    total = sum(weight for _, weight in orbits)

    print(f"{total} rank functions over atoms {args.atoms}, "
          f"checked on {len(orbits)} orbit representatives ({sum(seconds):.2f}s, "
          f"median {statistics.median(seconds):.4f}s per representative)")
    ok = True
    width = max(4, len(str(total)))
    for pid in PostulateId:
        failures = fail_counts.get(pid, 0)
        if pid in EXPECTED_TO_FAIL:
            status = "fails everywhere (as it must)" if failures == total else "UNEXPECTED"
            ok = ok and failures == total
        else:
            status = "holds everywhere" if failures == 0 else "UNEXPECTED"
            ok = ok and failures == 0
        print(f"  {pid.name:12} {failures:{width}}/{total} violations  {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(exit_code(main))
