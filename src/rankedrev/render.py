"""Canonical DNF output for PropSets and theories.

The emitted form is full (unminimized) DNF over the whole signature,
minterms in ascending valuation order, so output is deterministic and
byte-stable; minimization would only be cosmetic.
"""

from __future__ import annotations

import functools

from .logic import And, Atom, Const, Formula, Not, Or, PropSet, Theory


def canonical_formula(s: PropSet) -> Formula:
    """The canonical DNF formula denoting s; `false`/`true` for the
    empty/full set. models_of(canonical_formula(s)) == s. The minterms,
    in ascending valuation order, are joined pairwise, so the disjunction
    is log2 of their count deep; minterms that begin with the same
    literals share those conjunctions."""
    if s.mask == 0:
        return Const(False)
    if s.mask == s.sig.universe_mask:
        return Const(True)
    lits = [(Not(Atom(a)), Atom(a)) for a in s.sig.atoms]

    @functools.cache
    def minterm(k: int, bits: int) -> Formula:
        """The conjunction of the first k literals; bits are their values."""
        lit = lits[k - 1][bits & 1]
        return lit if k == 1 else And(minterm(k - 1, bits >> 1), lit)

    terms = [minterm(s.sig.n, v) for v in s.valuations()]
    while len(terms) > 1:
        terms = [Or(*terms[i:i + 2]) if i + 1 < len(terms) else terms[i]
                 for i in range(0, len(terms), 2)]
    return terms[0]


def dnf_text(s: PropSet) -> str:
    """Text of the canonical DNF, e.g. "(!p & !q) | (p & q)"."""
    if s.mask == 0:
        return "false"
    if s.mask == s.sig.universe_mask:
        return "true"
    sig = s.sig
    terms = []
    for v in s.valuations():
        lits = [
            a if (v >> (sig.n - 1 - i)) & 1 else "!" + a
            for i, a in enumerate(sig.atoms)
        ]
        terms.append(" & ".join(lits))
    if len(terms) == 1:
        return terms[0]
    wrap = "({})" if sig.n > 1 else "{}"
    return " | ".join(wrap.format(t) for t in terms)


def theory_text(k: Theory) -> str:
    """Theory literal: `bot` for the inconsistent theory, else the DNF of
    a formula whose closure is the theory."""
    if not k.is_consistent:
        return "bot"
    return dnf_text(k.models)
