"""Shared signatures and shorthand constructors for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from rankedrev import (
    And,
    Iff,
    Implies,
    Not,
    Or,
    PropSet,
    RankFunction,
    Revision,
    Signature,
    Theory,
    models_of,
    parse_formula,
)

SIG1 = Signature(("p",))
SIG2 = Signature(("p", "q"))
SIG3 = Signature(("p", "q", "r"))
SIG4 = Signature(("p", "q", "r", "s"))
SIG5 = Signature(("p", "q", "r", "s", "t"))
SIG16 = Signature(tuple("pqrstuvwxyzabcde"))  # the CLI's default atom names

SRC = Path(__file__).resolve().parent.parent / "src"

# running example: 11 most plausible, then 01 and 10, then 00
R0 = RankFunction(SIG2, (2, 1, 1, 0))


def ps(sig: Signature, text: str) -> PropSet:
    return models_of(parse_formula(text, sig), sig)


def th(sig: Signature, text: str) -> Theory:
    if text == "bot":
        return Theory.bottom(sig)
    return Theory(ps(sig, text))


def height(f) -> int:
    """Levels of a formula's tree; an atom or a constant is one."""
    if isinstance(f, Not):
        kids = [f.operand]
    elif isinstance(f, (And, Or)):
        kids = f.operands
    elif isinstance(f, (Implies, Iff)):
        kids = [f.left, f.right]
    else:
        kids = []
    return 1 + max(map(height, kids), default=0)


class OutOfRange(Revision):
    """A revision that returns values outside the signature's model masks
    at the given cells, which only K1 rejects, and agrees with ``base``
    elsewhere."""

    def __init__(self, base, cells):
        super().__init__(base.sig)
        self.base = base
        self.cells = cells

    def revise_mask(self, k_mask, f_mask):
        return self.cells.get((k_mask, f_mask), self.base.revise_mask(k_mask, f_mask))


def run_capped(snippet: str) -> subprocess.CompletedProcess:
    """Run ``snippet`` in a fresh interpreter that imports the package from
    the source tree, and ``helpers`` and ``oracles`` from the tests, with
    its address space capped at 256 MiB by RLIMIT_AS, as the benchmark
    caps its workload process. Code that tries to allocate a table past
    the caps then dies with MemoryError in the child, and code that fills
    one slowly hits the 60 s timeout, instead of exhausting the machine."""
    cap = (
        "import resource\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 256 << 20\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    cap = min(cap, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(Path(__file__).parent))))
    return subprocess.run([sys.executable, "-c", cap + snippet], env=env,
                          capture_output=True, text=True, timeout=60)
