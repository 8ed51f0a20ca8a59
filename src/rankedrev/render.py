"""Canonical DNF output for PropSets and theories.

The emitted form is full (unminimized) DNF over the whole signature,
minterms in ascending valuation order, so output is deterministic and
byte-stable; minimization would only be cosmetic. canonical_formula is
the tree the text parses to: one Or of flat And minterms.
"""

from __future__ import annotations

from .logic import And, Atom, Const, Formula, Not, Or, PropSet, Theory


def canonical_formula(s: PropSet) -> Formula:
    """The canonical DNF formula denoting s; `false`/`true` for the
    empty/full set. models_of(canonical_formula(s)) == s. It is one Or of
    the minterms in ascending valuation order, each one And of a literal
    per atom, so it is the tree that dnf_text(s) parses to."""
    if s.mask == 0:
        return Const(False)
    if s.mask == s.sig.universe_mask:
        return Const(True)
    n = s.sig.n
    lits = [(Not(Atom(a)), Atom(a)) for a in s.sig.atoms]
    terms = [[lit[v >> (n - 1 - i) & 1] for i, lit in enumerate(lits)] for v in s.valuations()]
    terms = [And(*t) if n > 1 else t[0] for t in terms]
    return Or(*terms) if len(terms) > 1 else terms[0]


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
