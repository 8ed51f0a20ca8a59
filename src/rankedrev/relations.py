"""Consequence relations and the rationality property checker.

A consequence relation is stored as the total map phi -> C(phi) from
PropSet masks to the theory of default consequences of phi. Working on
PropSet masks quotients by logical equivalence, so left logical
equivalence holds by construction. phi |~ psi exactly when
models(C(phi)) ⊆ models(psi).

The checker covers the standard rational set imported from the KLM
framework: REF, LLE, RW, AND, OR, CM, RM, S (conditionalization) and
CP (consistency preservation). LLE, RW and AND hold by construction of
this representation: besides LLE above, phi |~ psi is C(phi) ⊆ psi, and
that is closed under weakening psi and under intersecting two such psi.
The other six are checked over all PropSet masks phi (and psi) on packed
vectors (see logic.py); the first counterexample in lexicographic
(phi, psi) order is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainTooLargeError, SignatureError
from .logic import _ZERO, PropSet, Signature, Theory, _first_byte, _ints, _masks
from .ranking import RankFunction, _check_row_fits

RATIONAL_PROPERTIES = ("REF", "LLE", "RW", "AND", "OR", "CM", "RM", "S", "CP")

CHECK_MAX_ATOMS = 3


@dataclass(frozen=True)
class ConsequenceRelation:
    """Total map phi |-> C(phi), indexed by the PropSet mask of phi;
    each entry is the models mask of the theory C(phi)."""

    sig: Signature
    consequences: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "consequences", tuple(self.consequences))
        expected = self.sig.universe_mask + 1
        if len(self.consequences) != expected:
            raise ValueError(f"need {expected} entries, got {len(self.consequences)}")
        if not 0 <= min(self.consequences) <= max(self.consequences) <= self.sig.universe_mask:
            raise ValueError("consequence masks out of range")

    @classmethod
    def from_rank(cls, r: RankFunction) -> "ConsequenceRelation":
        """The relation defined by minimum-rank models."""
        return cls(r.sig, r.consequence_table())

    @classmethod
    def from_function(
        cls, sig: Signature, theory_models: Callable[[int], int]
    ) -> "ConsequenceRelation":
        """Tabulate an arbitrary phi-mask -> models-mask map; past the
        consequence table's cap this raises before calling theory_models."""
        _check_row_fits(sig, "consequence relation")
        return cls(sig, tuple(theory_models(f) for f in range(sig.universe_mask + 1)))

    def theory_for(self, f: PropSet) -> Theory:
        return Theory(PropSet(self.sig, self.consequences[f.mask]))

    def entails(self, f: PropSet, g: PropSet) -> bool:
        """phi |~ psi."""
        c = self.consequences[f.mask]
        return (c | g.mask) == g.mask


@dataclass(frozen=True)
class RelationWitness:
    """First counterexample to a rationality property."""

    prop: str
    phi: PropSet
    psi: Optional[PropSet]
    chi: Optional[PropSet]
    detail: str


@dataclass(frozen=True)
class RationalityReport:
    """Per-property verdicts; a None witness means the property passed."""

    witnesses: tuple[tuple[str, Optional[RelationWitness]], ...]

    def witness(self, prop: str) -> Optional[RelationWitness]:
        for name, w in self.witnesses:
            if name == prop:
                return w
        raise KeyError(prop)

    def passes(self, prop: str) -> bool:
        return self.witness(prop) is None

    @property
    def all_pass(self) -> bool:
        return all(w is None for _, w in self.witnesses)

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(name for name, w in self.witnesses if w is not None)

    def core_implies_or_cm(self) -> bool:
        """REF+LLE+RW+AND+S+RM+CP passing forces OR and CM to pass as well;
        reports whether this relation is consistent with that implication."""
        core = ("REF", "LLE", "RW", "AND", "S", "RM", "CP")
        if all(self.passes(p) for p in core):
            return self.passes("OR") and self.passes("CM")
        return True


def check_rationality(c: ConsequenceRelation, sig: Optional[Signature] = None) -> RationalityReport:
    """Exhaustively evaluate the nine rational properties of the relation."""
    if sig is not None and sig != c.sig:
        raise SignatureError(f"relation is over atoms {c.sig.atoms}, not {sig.atoms}")
    sig = c.sig
    if sig.n > CHECK_MAX_ATOMS:
        raise DomainTooLargeError(
            f"rationality check quantifies over 2**{sig.num_valuations} formula "
            f"classes; at most {CHECK_MAX_ATOMS} atoms supported"
        )
    M = c.consequences
    m = _masks(len(M))
    row = bytes(M)
    P = int.from_bytes(row, "little")
    tab = row + bytes(256 - len(M))  # as a bytes.translate table
    # over psi, one vector per phi: C(phi ∧ psi) and C(phi ∨ psi)
    conj = _ints(r.translate(tab) for r in m.and_idx)
    disj = _ints(r.translate(tab) for r in m.or_idx)
    ps = lambda mask: PropSet(sig, mask)
    minus = lambda a, b: (a | b) ^ b  # a & ~b: ~ of a big int is many times slower

    def over_phi(prop: str, v: int, detail: str):
        return prop, RelationWitness(prop, ps(_first_byte(v)), None, None, detail) if v else None

    def over_pairs(prop: str, vecs, chi, detail: str):
        """The first (phi, psi) where the vector for phi is nonzero at psi;
        ``chi(phi, psi)`` is the smallest chi the antecedent allows."""
        for phi, v in enumerate(vecs):
            if v:
                psi = _first_byte(v)
                return prop, RelationWitness(prop, ps(phi), ps(psi), ps(chi(phi, psi)), detail)
        return prop, None

    return RationalityReport((
        over_phi("REF", minus(P, m.ident), "C(phi) has a model outside phi"),
        # By construction: phi |~ psi is C(phi) ⊆ psi, so C(phi) ⊆ psi ⊆ chi
        # gives RW, and C(phi) ⊆ psi, C(phi) ⊆ chi give C(phi) ⊆ psi ∩ chi, AND.
        ("LLE", None),
        ("RW", None),
        ("AND", None),
        over_pairs("OR", (minus(disj[phi], m.spread[a] | P) for phi, a in enumerate(M)),
                   lambda phi, psi: M[phi] | M[psi],
                   "phi |~ chi and psi |~ chi but not phi ∨ psi |~ chi"),
        over_pairs("CM", (minus(m.sub[a] & conj[phi], m.spread[a]) for phi, a in enumerate(M)),
                   lambda phi, psi: M[phi],
                   "phi |~ psi and phi |~ chi but not phi ∧ psi |~ chi"),
        over_pairs("RM", (minus(m.meet[a] & conj[phi], m.spread[a]) for phi, a in enumerate(M)),
                   lambda phi, psi: M[phi],
                   "phi |~ chi, phi |~/ ¬psi, but not phi ∧ psi |~ chi"),
        over_pairs("S", (minus(m.inter[a], conj[phi]) for phi, a in enumerate(M)),
                   lambda phi, psi: M[phi & psi],
                   "phi ∧ psi |~ chi but not phi |~ psi -> chi"),
        over_phi("CP", int.from_bytes(row.translate(_ZERO), "little") >> 8 << 8,
                 "consistent phi with C(phi) inconsistent"),
    ))
