#!/usr/bin/env python3
"""For every theory at two atoms, ask whether its row determines
iterated revision across all rank functions.

Prints, per anchor theory, either a witness pair of rank functions with
identical rows that later diverge, or a note that the anchor's row is
determining. The inconsistent theory is always determining: its row is
the whole default structure. Exits 141 if the reader of the output
closes it early.
"""

import sys

from rankedrev import (
    PropSet,
    Signature,
    Theory,
    WitnessNotFoundError,
    dnf_text,
    dynamic_underdetermination,
    theory_text,
)
from rankedrev.cli import exit_code


def main() -> int:
    sig = Signature(("p", "q"))
    for km in range(sig.universe_mask + 1):
        k = Theory(PropSet(sig, km))
        try:
            w = dynamic_underdetermination(sig, k)
        except WitnessNotFoundError:
            print(f"{theory_text(k):25} row determines iterated revision")
            continue
        print(
            f"{theory_text(k):25} under-determined: ranks {w.first.ranks} vs "
            f"{w.second.ranks} agree on the row, diverge after "
            f"psi={dnf_text(w.psi)}, phi={dnf_text(w.phi)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
