"""Machine-checkable catalogue of revision postulates.

Every postulate is a universally quantified clause over theories and
formula classes. Quantifier domains are semantic: theories range over
all 2**(2**n) model sets and formulas over all 2**(2**n) PropSet masks,
so "for any theory" is literal at desk scale. Exhaustive checking
reports the first counterexample in lexicographic binding order
(ascending masks, K then K' then phi then psi), which keeps golden
reports stable. Sampled mode draws bindings from a seeded generator and
reports the seed, so every run is replayable.

Violations are self-certifying: replaying the recorded bindings through
the revision reproduces the clause failure.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Union

from .errors import (
    DomainTooLargeError,
    SamplingError,
    SearchExhaustedError,
    WitnessNotFoundError,
)
from .logic import PropSet, Signature, Theory
from .ranking import RankFunction, enumerate_rank_functions
from .render import dnf_text, theory_text
from .revision import TABLE_MAX_ATOMS, RankedRevision, Revision


class PostulateId(Enum):
    """Closed enumeration of the checkable postulates."""

    K1 = "K1"
    K2 = "K2"
    K3 = "K3"
    K4 = "K4"
    K5 = "K5"
    K6 = "K6"
    K7 = "K7"
    K8 = "K8"
    K9 = "K9"
    K9_1 = "K9_1"
    K9_2 = "K9_2"
    K9_2P = "K9_2P"
    U8 = "U8"
    U8_1 = "U8_1"
    U8_2 = "U8_2"
    C1 = "C1"
    C2 = "C2"
    C2P = "C2P"
    C3 = "C3"
    C4 = "C4"
    P_PHIANDPSI = "P_PHIANDPSI"
    P_PSI = "P_PSI"
    P_GEN = "P_GEN"
    P_KM1 = "P_KM1"
    P_K9U81 = "P_K9U81"


AGM_POSTULATES = tuple(PostulateId[f"K{i}"] for i in range(1, 9))
AGM_PLUS_MINIMAL_INFLUENCE = AGM_POSTULATES + (PostulateId.K9,)


# Clause evaluators work on raw masks. ``rev`` maps (theory models mask,
# formula mask) to the revised theory's models mask. Subset tests use
# (a | b) == b for "a ⊆ b"; remember the formula-set order inversion:
# psi ∈ T means models(T) ⊆ models(psi).


def _h_k1(rev, uni, K, Kp, phi, psi):
    return 0 <= rev(K, phi) <= uni


def _h_k2(rev, uni, K, Kp, phi, psi):
    r = rev(K, phi)
    return (r | phi) == phi


def _h_k3(rev, uni, K, Kp, phi, psi):
    r = rev(K, phi)
    kf = K & phi
    return (kf | r) == r


def _h_k4(rev, uni, K, Kp, phi, psi):
    kf = K & phi
    if kf == 0:
        return True
    r = rev(K, phi)
    return (r | kf) == kf


def _h_k5(rev, uni, K, Kp, phi, psi):
    return rev(K, phi) != 0 or phi == 0


def _h_k6(rev, uni, K, Kp, phi, psi):
    # equivalent formulas are identical masks; this only guards against a
    # nondeterministic revise
    return rev(K, phi) == rev(K, phi)


def _h_k7(rev, uni, K, Kp, phi, psi):
    cn = rev(K, phi) & psi
    both = rev(K, phi & psi)
    return (cn | both) == both


def _h_k8(rev, uni, K, Kp, phi, psi):
    cn = rev(K, phi) & psi
    if cn == 0:
        return True
    both = rev(K, phi & psi)
    return (both | cn) == cn


def _h_k9(rev, uni, K, Kp, phi, psi):
    if K & phi or Kp & phi:
        return True
    return rev(K, phi) == rev(Kp, phi)


def _h_k9_1(rev, uni, K, Kp, phi, psi):
    if K & phi:
        return True
    bot = rev(0, phi)
    r = rev(K, phi)
    return (bot | r) == r


def _h_k9_2(rev, uni, K, Kp, phi, psi):
    if K & phi:
        return True
    bot = rev(0, phi)
    return (rev(K, phi) | bot) == bot


def _h_k9_2p(rev, uni, K, Kp, phi, psi):
    if (K | psi) != psi:
        return True
    if (rev(0, phi) | psi) != psi:
        return True
    return (rev(K, phi) | psi) == psi


def _h_u8(rev, uni, K, Kp, phi, psi):
    return rev(K | Kp, phi) == (rev(K, phi) | rev(Kp, phi))


def _h_u8_1(rev, uni, K, Kp, phi, psi):
    if (Kp | K) != K:  # K ⊆ K' as formula sets: models(K') ⊆ models(K)
        return True
    a = rev(K, phi)
    b = rev(Kp, phi)
    return (b | a) == a


def _h_u8_2(rev, uni, K, Kp, phi, psi):
    inter = rev(K, phi) | rev(Kp, phi)
    return (rev(K | Kp, phi) | inter) == inter


def _h_km1(rev, uni, K, Kp, phi, psi):
    if (K & phi) == 0 or (Kp & phi) == 0:
        return True
    return rev(K | Kp, phi) == (rev(K, phi) | rev(Kp, phi))


def _h_k9u81(rev, uni, K, Kp, phi, psi):
    if K & phi or Kp & phi:
        return True
    return rev(K | Kp, phi) == (rev(K, phi) | rev(Kp, phi))


def _h_c1(rev, uni, K, Kp, phi, psi):
    if (phi | psi) != psi:
        return True
    return rev(rev(K, psi), phi) == rev(K, phi)


def _h_c2(rev, uni, K, Kp, phi, psi):
    if phi & psi:
        return True
    return rev(rev(K, psi), phi) == rev(K, phi)


def _h_c2p(rev, uni, K, Kp, phi, psi):
    if K & phi or phi & psi:
        return True
    return rev(rev(K, psi), phi) == rev(K, phi)


def _h_c3(rev, uni, K, Kp, phi, psi):
    r = rev(K, phi)
    if (r | psi) != psi:
        return True
    return (rev(rev(K, psi), phi) | psi) == psi


def _h_c4(rev, uni, K, Kp, phi, psi):
    if (rev(K, phi) & psi) == 0:
        return True
    return (rev(rev(K, psi), phi) & psi) != 0


def _h_phiandpsi(rev, uni, K, Kp, phi, psi):
    r = rev(K, psi)
    if (r & phi) == 0:
        return True
    return rev(r, phi) == rev(K, psi & phi)


def _h_psi(rev, uni, K, Kp, phi, psi):
    if rev(K, psi | phi) & phi:
        return True
    return rev(rev(K, psi), phi) == rev(K, phi)


def _h_gen(rev, uni, K, Kp, phi, psi):
    r = rev(K, phi)
    if (r | psi) != psi:
        return True
    return rev(rev(K, psi), phi) == r


def _o_row(rev, K, Kp, phi, psi):
    return rev(K, phi)


def _o_conj(rev, K, Kp, phi, psi):
    return rev(K, phi & psi)


def _o_prime(rev, K, Kp, phi, psi):
    return rev(Kp, phi)


def _o_union(rev, K, Kp, phi, psi):
    return rev(K | Kp, phi)


def _o_iter(rev, K, Kp, phi, psi):
    return rev(rev(K, psi), phi)


# Exhaustive checking runs on packed rows. At n <= 3 a model mask fits
# in a byte, so row K of the revision table packs into one int whose byte
# phi is rev(K, phi). Each clause's packed form binds a packed table and
# returns a function of one outer binding, (K, -) for KF, (K, K') for KKF
# and (K, phi) for KFF, that gives a violation vector over the innermost
# quantifier: its byte x is nonzero exactly when the clause fails with x
# bound there. Antecedents enter as vectors whose fields are 0xFF or 0.
# The lowest nonzero byte of the first nonzero vector is the
# lexicographically first counterexample.

_NONZERO = bytes([0] + [255] * 255)  # bytes.translate table: b -> b != 0
_ZERO = bytes([255] + [0] * 255)  # bytes.translate table: b -> b == 0


def _ints(rows) -> list[int]:
    return [int.from_bytes(r, "little") for r in rows]


class _Masks:
    """Vectors and gather tables that depend only on the signature. Each
    family is indexed by a mask a; x ranges over the formula classes."""

    def __init__(self, nmasks: int):
        xs = range(nmasks)
        ones = int.from_bytes(b"\1" * nmasks, "little")
        byte_and = [bytes(a & b for b in range(256)) for a in xs]
        self.and_idx = [r[:nmasks] for r in byte_and]  # gather index a & x
        self.or_idx = [bytes(a | x for x in xs) for a in xs]  # gather index a | x
        self.ident = int.from_bytes(bytes(xs), "little")  # x
        self.spread = [a * ones for a in xs]  # a
        self.inter = _ints(self.and_idx)  # a & x
        self.meet = _ints(r.translate(_NONZERO) for r in self.and_idx)  # a & x != 0
        self.apart = _ints(r.translate(_ZERO) for r in self.and_idx)  # a & x == 0
        self.sub = _ints(bytes(255 if a & x == a else 0 for x in xs) for a in xs)  # a ⊆ x
        # translate tables over byte values b: b & a != 0, and b & a == 0
        self.meet_t = [r.translate(_NONZERO) for r in byte_and]
        self.apart_t = [r.translate(_ZERO) for r in byte_and]


@functools.cache
def _masks(nmasks: int) -> _Masks:
    return _Masks(nmasks)


class _Packed:
    """A revision table packed one row per int, with the signature's masks.

    Cells outside 0..universe_mask are packed as 0 and flagged in
    ``bad``, which only K1 reads; every other clause sees such a cell as
    the empty model set.
    """

    def __init__(self, table, uni: int):
        self.nmasks = uni + 1
        self.m = _masks(self.nmasks)
        self.rows, self.bad = [], []
        for row in table:
            try:
                packed = bytes(row)
                in_range = max(packed) <= uni
            except ValueError:  # a cell outside 0..255
                in_range = False
            if in_range:
                self.rows.append(packed)
                self.bad.append(0)
            else:
                ok = [0 <= c <= uni for c in row]
                self.rows.append(bytes(c if good else 0 for c, good in zip(row, ok)))
                self.bad.append(int.from_bytes(bytes(0 if good else 255 for good in ok),
                                               "little"))
        self.P = _ints(self.rows)
        # rows and columns zero-padded to 256 bytes, as bytes.translate tables
        pad = bytes(256 - self.nmasks)
        self.tab = [r + pad for r in self.rows]

    @functools.cached_property
    def cols(self) -> list[bytes]:
        """Column phi as a translate table: byte t -> rev(t, phi)."""
        pad = bytes(256 - self.nmasks)
        return [bytes(c) + pad for c in zip(*self.rows)]

    def conj(self, K: int, phi: int) -> int:
        """Over x: rev(K, phi & x)."""
        return int.from_bytes(self.m.and_idx[phi].translate(self.tab[K]), "little")

    def iterated(self, K: int, phi: int) -> int:
        """Over x: rev(rev(K, x), phi)."""
        return int.from_bytes(self.rows[K].translate(self.cols[phi]), "little")


def _pk1(t):
    bad = t.bad
    return lambda K, _: bad[K]


def _pk2(t):
    P, ident = t.P, t.m.ident
    return lambda K, _: P[K] & ~ident


def _pk3(t):
    P, inter = t.P, t.m.inter
    return lambda K, _: inter[K] & ~P[K]


def _pk4(t):
    P, inter, meet = t.P, t.m.inter, t.m.meet
    return lambda K, _: P[K] & ~inter[K] & meet[K]


def _pk5(t):
    rows = t.rows
    return lambda K, _: int.from_bytes(rows[K].translate(_ZERO), "little") & ~0xFF


def _pk6(t):
    return lambda K, _: 0


def _pk9_1(t):
    P, apart = t.P, t.m.apart
    return lambda K, _: P[0] & ~P[K] & apart[K]


def _pk9_2(t):
    P, apart = t.P, t.m.apart
    return lambda K, _: P[K] & ~P[0] & apart[K]


def _pk9(t):
    P, apart = t.P, t.m.apart
    return lambda K, Kp: (P[K] ^ P[Kp]) & apart[K] & apart[Kp]


def _pu8(t):
    P = t.P
    return lambda K, Kp: P[K | Kp] ^ (P[K] | P[Kp])


def _pu8_1(t):
    P = t.P
    return lambda K, Kp: P[Kp] & ~P[K] if (Kp | K) == K else 0


def _pu8_2(t):
    P = t.P
    return lambda K, Kp: P[K | Kp] & ~(P[K] | P[Kp])


def _pkm1(t):
    P, meet = t.P, t.m.meet
    return lambda K, Kp: (P[K | Kp] ^ (P[K] | P[Kp])) & meet[K] & meet[Kp]


def _pk9u81(t):
    P, apart = t.P, t.m.apart
    return lambda K, Kp: (P[K | Kp] ^ (P[K] | P[Kp])) & apart[K] & apart[Kp]


def _pk7(t):
    rows, inter, conj = t.rows, t.m.inter, t.conj
    return lambda K, phi: inter[rows[K][phi]] & ~conj(K, phi)


def _pk8(t):
    rows, inter, meet, conj = t.rows, t.m.inter, t.m.meet, t.conj

    def vec(K, phi):
        r = rows[K][phi]
        return conj(K, phi) & ~inter[r] & meet[r]
    return vec


def _pk9_2p(t):
    rows, sub = t.rows, t.m.sub
    return lambda K, phi: sub[K] & sub[rows[0][phi]] & ~sub[rows[K][phi]]


def _iterated_equal(t, antecedent):
    """Over x: rev(rev(K, x), phi) == rev(K, phi) where ``antecedent[phi]`` is set."""
    rows, spread, it = t.rows, t.m.spread, t.iterated
    return lambda K, phi: (it(K, phi) ^ spread[rows[K][phi]]) & antecedent[phi]


def _pc1(t):
    return _iterated_equal(t, t.m.sub)


def _pc2(t):
    return _iterated_equal(t, t.m.apart)


def _pc2p(t):
    vec = _iterated_equal(t, t.m.apart)
    return lambda K, phi: 0 if K & phi else vec(K, phi)


def _pc3(t):
    rows, sub, ident, it = t.rows, t.m.sub, t.m.ident, t.iterated
    return lambda K, phi: it(K, phi) & ~ident & sub[rows[K][phi]]


def _pc4(t):
    rows, meet, ident, it = t.rows, t.m.meet, t.m.ident, t.iterated
    n = t.nmasks

    def vec(K, phi):
        disjoint = (it(K, phi) & ident).to_bytes(n, "little").translate(_ZERO)
        return meet[rows[K][phi]] & int.from_bytes(disjoint, "little")
    return vec


def _pphiandpsi(t):
    rows, meet_t, it, conj = t.rows, t.m.meet_t, t.iterated, t.conj

    def vec(K, phi):
        ante = int.from_bytes(rows[K].translate(meet_t[phi]), "little")
        return ante & (it(K, phi) ^ conj(K, phi))
    return vec


def _ppsi(t):
    rows, tab, spread, it = t.rows, t.tab, t.m.spread, t.iterated
    or_idx, apart_t = t.m.or_idx, t.m.apart_t

    def vec(K, phi):
        ante = or_idx[phi].translate(tab[K]).translate(apart_t[phi])
        return int.from_bytes(ante, "little") & (it(K, phi) ^ spread[rows[K][phi]])
    return vec


def _pgen(t):
    rows, sub, spread, it = t.rows, t.m.sub, t.m.spread, t.iterated

    def vec(K, phi):
        r = rows[K][phi]
        return (it(K, phi) ^ spread[r]) & sub[r]
    return vec


@dataclass(frozen=True)
class _Clause:
    shape: str  # "KF": (K, phi); "KKF": (K, K', phi); "KFF": (K, phi, psi)
    holds: Callable[..., bool]
    packed: Callable[[_Packed], Callable[[int, int], int]]
    observed: Callable[..., int]
    required: str


_CLAUSES: dict[PostulateId, _Clause] = {
    PostulateId.K1: _Clause("KF", _h_k1, _pk1, _o_row, "K*phi is a theory over the signature"),
    PostulateId.K2: _Clause("KF", _h_k2, _pk2, _o_row, "phi ∈ K*phi"),
    PostulateId.K3: _Clause("KF", _h_k3, _pk3, _o_row, "K*phi ⊆ Cn(K, phi)"),
    PostulateId.K4: _Clause("KF", _h_k4, _pk4, _o_row, "if ¬phi ∉ K then Cn(K, phi) ⊆ K*phi"),
    PostulateId.K5: _Clause("KF", _h_k5, _pk5, _o_row, "K*phi inconsistent only if phi ≡ false"),
    PostulateId.K6: _Clause("KF", _h_k6, _pk6, _o_row, "equivalent inputs revise equally"),
    PostulateId.K7: _Clause("KFF", _h_k7, _pk7, _o_conj, "K*(phi ∧ psi) ⊆ Cn(K*phi, psi)"),
    PostulateId.K8: _Clause("KFF", _h_k8, _pk8, _o_conj,
                            "if ¬psi ∉ K*phi then Cn(K*phi, psi) ⊆ K*(phi ∧ psi)"),
    PostulateId.K9: _Clause("KKF", _h_k9, _pk9, _o_prime,
                            "if ¬phi ∈ K and ¬phi ∈ K' then K*phi = K'*phi"),
    PostulateId.K9_1: _Clause("KF", _h_k9_1, _pk9_1, _o_row,
                              "if ¬phi ∈ K then K*phi ⊆ bot*phi"),
    PostulateId.K9_2: _Clause("KF", _h_k9_2, _pk9_2, _o_row,
                              "if ¬phi ∈ K then bot*phi ⊆ K*phi"),
    PostulateId.K9_2P: _Clause("KFF", _h_k9_2p, _pk9_2p, _o_row,
                               "if psi ∈ K and psi ∈ bot*phi then psi ∈ K*phi"),
    PostulateId.U8: _Clause("KKF", _h_u8, _pu8, _o_union,
                            "(K ∩ K')*phi = (K*phi) ∩ (K'*phi)"),
    PostulateId.U8_1: _Clause("KKF", _h_u8_1, _pu8_1, _o_prime,
                              "if K ⊆ K' then K*phi ⊆ K'*phi"),
    PostulateId.U8_2: _Clause("KKF", _h_u8_2, _pu8_2, _o_union,
                              "(K*phi) ∩ (K'*phi) ⊆ (K ∩ K')*phi"),
    PostulateId.C1: _Clause("KFF", _h_c1, _pc1, _o_iter,
                            "if phi ⊨ psi then (K*psi)*phi = K*phi"),
    PostulateId.C2: _Clause("KFF", _h_c2, _pc2, _o_iter,
                            "if phi ⊨ ¬psi then (K*psi)*phi = K*phi"),
    PostulateId.C2P: _Clause("KFF", _h_c2p, _pc2p, _o_iter,
                             "if ¬phi ∈ K and phi ⊨ ¬psi then (K*psi)*phi = K*phi"),
    PostulateId.C3: _Clause("KFF", _h_c3, _pc3, _o_iter,
                            "if psi ∈ K*phi then psi ∈ (K*psi)*phi"),
    PostulateId.C4: _Clause("KFF", _h_c4, _pc4, _o_iter,
                            "if ¬psi ∉ K*phi then ¬psi ∉ (K*psi)*phi"),
    PostulateId.P_PHIANDPSI: _Clause("KFF", _h_phiandpsi, _pphiandpsi, _o_iter,
                                     "if ¬phi ∉ K*psi then (K*psi)*phi = K*(psi ∧ phi)"),
    PostulateId.P_PSI: _Clause("KFF", _h_psi, _ppsi, _o_iter,
                               "if ¬phi ∈ K*(psi ∨ phi) then (K*psi)*phi = K*phi"),
    PostulateId.P_GEN: _Clause("KFF", _h_gen, _pgen, _o_iter,
                               "if psi ∈ K*phi then (K*psi)*phi = K*phi"),
    PostulateId.P_KM1: _Clause("KKF", _h_km1, _pkm1, _o_union,
                               "if ¬phi ∉ K and ¬phi ∉ K' then "
                               "(K ∩ K')*phi = (K*phi) ∩ (K'*phi)"),
    PostulateId.P_K9U81: _Clause("KKF", _h_k9u81, _pk9u81, _o_union,
                                 "if ¬phi ∈ K and ¬phi ∈ K' then "
                                 "(K*phi) ∩ (K'*phi) = (K ∩ K')*phi"),
}

def _first_failure(clause: _Clause, t: _Packed) -> Optional[tuple[int, int, int, int]]:
    """The lexicographically first failing binding (K, K', phi, psi), with
    0 for unbound quantifiers, or None. The loops run over the outer
    binding (a, b), b only for KKF and KFF clauses; the innermost
    quantifier is the lowest nonzero byte of the violation vector."""
    vec = clause.packed(t)
    inner = range(t.nmasks) if clause.shape != "KF" else (0,)
    for a in range(t.nmasks):
        for b in inner:
            v = vec(a, b)
            if v:
                c = ((v & -v).bit_length() - 1) >> 3
                if clause.shape == "KF":
                    return a, 0, c, 0
                if clause.shape == "KKF":
                    return a, b, c, 0
                return a, 0, b, c
    return None


@dataclass(frozen=True)
class Violation:
    """Witness record for a failed postulate; ``replay`` re-derives the
    failure from the bindings, so violations are self-certifying.

    ``observed`` is None when the revision returned a value that is not
    a model mask over the signature, which K1 reports.
    """

    postulate: PostulateId
    k: Theory
    phi: PropSet
    observed: Optional[Theory]
    required: str
    kprime: Optional[Theory] = None
    psi: Optional[PropSet] = None

    def replay(self, rv: Revision) -> bool:
        """True when the recorded bindings still violate the clause."""
        clause = _CLAUSES[self.postulate]
        return not clause.holds(
            rv.revise_mask,
            rv.sig.universe_mask,
            self.k.models.mask,
            self.kprime.models.mask if self.kprime is not None else 0,
            self.phi.mask,
            self.psi.mask if self.psi is not None else 0,
        )

    def describe(self) -> str:
        parts = [f"K={theory_text(self.k)}"]
        if self.kprime is not None:
            parts.append(f"Kprime={theory_text(self.kprime)}")
        parts.append(f"phi={dnf_text(self.phi)}")
        if self.psi is not None:
            parts.append(f"psi={dnf_text(self.psi)}")
        parts.append(f"observed={self._observed_text()}")
        parts.append(f"required={self.required}")
        return "; ".join(parts)

    def witness_json(self) -> dict:
        out = {"K": theory_text(self.k)}
        if self.kprime is not None:
            out["Kprime"] = theory_text(self.kprime)
        out["phi"] = dnf_text(self.phi)
        if self.psi is not None:
            out["psi"] = dnf_text(self.psi)
        out["observed"] = self._observed_text()
        out["required"] = self.required
        return out

    def _observed_text(self) -> str:
        if self.observed is None:
            return "not a theory over the signature"
        return theory_text(self.observed)


def _make_violation(rv: Revision, pid: PostulateId, K: int, Kp: int,
                    phi: int, psi: int) -> Violation:
    sig = rv.sig
    clause = _CLAUSES[pid]
    shape = clause.shape
    observed = clause.observed(rv.revise_mask, K, Kp, phi, psi)
    return Violation(
        postulate=pid,
        k=Theory(PropSet(sig, K)),
        kprime=Theory(PropSet(sig, Kp)) if shape == "KKF" else None,
        phi=PropSet(sig, phi),
        psi=PropSet(sig, psi) if shape == "KFF" else None,
        observed=(Theory(PropSet(sig, observed))
                  if 0 <= observed <= sig.universe_mask else None),
        required=clause.required,
    )


def check_postulate(
    rv: Revision,
    pid: PostulateId,
    *,
    mode: str = "exhaustive",
    seed: Optional[int] = None,
    samples: int = 500,
) -> Optional[Violation]:
    """Evaluate one postulate; None means it holds everywhere checked.

    Exhaustive mode sweeps the whole binding domain in lexicographic
    order on packed table rows and needs n <= 3.
    Sampled mode draws ``samples`` bindings from random.Random(seed), one
    randrange per quantifier in binding order.
    """
    clause = _CLAUSES[pid]
    sig = rv.sig
    uni = sig.universe_mask
    shape = clause.shape

    if mode == "exhaustive":
        if sig.n > TABLE_MAX_ATOMS:
            raise DomainTooLargeError(
                f"{pid.name} quantifies over too many bindings at {sig.n} atoms; "
                "run in sampled mode instead"
            )
        hit = _first_failure(clause, _Packed(rv.table(), uni))
        return None if hit is None else _make_violation(rv, pid, *hit)

    if mode != "sampled":
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if seed is None:
        raise SamplingError("sampled mode needs a seed")
    if samples < 1:
        raise SamplingError(f"sampled mode needs at least one sample, got {samples}")
    rng = random.Random(seed)
    rev = rv.revise_mask
    holds = clause.holds
    nmasks = uni + 1
    for _ in range(samples):
        K = rng.randrange(nmasks)
        Kp = rng.randrange(nmasks) if shape == "KKF" else 0
        phi = rng.randrange(nmasks)
        psi = rng.randrange(nmasks) if shape == "KFF" else 0
        if not holds(rev, uni, K, Kp, phi, psi):
            return _make_violation(rv, pid, K, Kp, phi, psi)
    return None


@dataclass(frozen=True)
class SuiteReport:
    """Aggregated verdicts, ordered canonically by postulate."""

    sig: Signature
    mode: str
    seed: Optional[int]
    samples: Optional[int]
    domain_size: int  # number of theories = number of formula classes
    results: tuple[tuple[PostulateId, Optional[Violation]], ...]

    @property
    def all_pass(self) -> bool:
        return all(v is None for _, v in self.results)

    @property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(v for _, v in self.results if v is not None)

    def verdict(self, pid: PostulateId) -> Optional[Violation]:
        for p, v in self.results:
            if p is pid:
                return v
        raise KeyError(pid.name)

    def to_text(self) -> str:
        head = (
            f"postulate suite over atoms {' '.join(self.sig.atoms)}: "
            f"mode={self.mode}"
        )
        if self.mode == "sampled":
            head += f" seed={self.seed} samples={self.samples}"
        head += f" domain={self.domain_size} theories x {self.domain_size} formula classes"
        lines = [head]
        for pid, v in self.results:
            if v is None:
                lines.append(f"{pid.name} pass")
            else:
                lines.append(f"{pid.name} FAIL {v.describe()}")
        return "\n".join(lines) + "\n"

    def to_json_records(self) -> list[dict]:
        records = []
        for pid, v in self.results:
            rec: dict = {"postulate": pid.name,
                         "verdict": "pass" if v is None else "fail"}
            if v is not None:
                rec["witness"] = v.witness_json()
            rec["mode"] = self.mode
            if self.mode == "sampled":
                rec["seed"] = self.seed
                rec["samples"] = self.samples
            records.append(rec)
        return records


def run_suite(
    rv: Revision,
    ids: Iterable[PostulateId],
    *,
    mode: str = "exhaustive",
    seed: Optional[int] = None,
    samples: int = 500,
) -> SuiteReport:
    """check_postulate over a set of ids, merged in canonical order."""
    wanted = set(ids)
    results = []
    for pid in PostulateId:
        if pid in wanted:
            results.append(
                (pid, check_postulate(rv, pid, mode=mode, seed=seed, samples=samples))
            )
    return SuiteReport(
        sig=rv.sig,
        mode=mode,
        seed=seed if mode == "sampled" else None,
        samples=samples if mode == "sampled" else None,
        domain_size=rv.sig.universe_mask + 1,
        results=tuple(results),
    )


def check_implication_9p_to_92(rv: Revision) -> Optional[Violation]:
    """The conditional: K1, K2 and K9.2' together force K9.2.

    Returns None when the conditional holds (including vacuously, when
    the antecedent fails); a Violation only when the antecedent holds
    and K9.2 still fails somewhere.
    """
    for pid in (PostulateId.K1, PostulateId.K2, PostulateId.K9_2P):
        if check_postulate(rv, pid) is not None:
            return None
    v = check_postulate(rv, PostulateId.K9_2)
    if v is None:
        return None
    return dataclasses.replace(
        v, required="K1, K2 and K9_2P hold, so K9_2 must: " + v.required
    )


class ImpossibilityTarget(Enum):
    """Postulate combinations that no revision can satisfy in full."""

    U8_1_VS_K4K5 = "U8_1_vs_K4K5"
    C2_VS_K1K4 = "C2_vs_K1K4"


_IMPOSSIBILITY_PRECONDITIONS = {
    ImpossibilityTarget.U8_1_VS_K4K5: (PostulateId.K4, PostulateId.K5),
    ImpossibilityTarget.C2_VS_K1K4: (
        PostulateId.K1, PostulateId.K2, PostulateId.K3, PostulateId.K4,
    ),
}


def find_impossibility_witness(
    rv: Revision,
    which: Union[ImpossibilityTarget, str],
    *,
    verify_preconditions: bool = True,
) -> Violation:
    """Produce a concrete violation of U8.1 (resp. C2) for a revision that
    satisfies the rest of the named postulate set.

    The search follows the shape of the impossibility arguments rather
    than a blind sweep: both start from bot*true, the default closure of
    the tautology. A witness is guaranteed for every K1-K9 revision over
    a signature with at least one atom, so exhaustion of the search
    space signals an implementation bug.
    """
    if not isinstance(which, ImpossibilityTarget):
        which = ImpossibilityTarget(which)
    if verify_preconditions:
        for pid in _IMPOSSIBILITY_PRECONDITIONS[which]:
            if check_postulate(rv, pid) is not None:
                raise ValueError(
                    f"witness search for {which.value} assumes {pid.name} holds, "
                    "but this revision violates it"
                )
    sig = rv.sig
    uni = sig.universe_mask
    rev = rv.revise_mask
    bottom_true = rev(0, uni)

    if which is ImpossibilityTarget.U8_1_VS_K4K5:
        # Any consistent Cn(phi) missing some default consequence of true
        # breaks monotonicity against bot: Cn(phi) ⊆ bot yet
        # Cn(phi)*true keeps phi (by K4) while bot*true may not.
        for phi in range(1, uni + 1):
            if (bottom_true | phi) != phi:
                cand = Violation(
                    postulate=PostulateId.U8_1,
                    k=Theory(PropSet(sig, phi)),
                    kprime=Theory.bottom(sig),
                    phi=PropSet.full(sig),
                    observed=Theory(PropSet(sig, rev(0, uni))),
                    required=_CLAUSES[PostulateId.U8_1].required,
                )
                if cand.replay(rv):
                    return cand
        raise SearchExhaustedError(
            "no U8_1 witness found; the revision cannot satisfy K4 and K5"
        )

    # C2 instantiated at psi = false collapses every severe row to the
    # bottom row, so any consistent theory other than bot*true witnesses.
    for km in range(1, uni + 1):
        if km != bottom_true:
            cand = Violation(
                postulate=PostulateId.C2,
                k=Theory(PropSet(sig, km)),
                phi=PropSet.full(sig),
                psi=PropSet.empty(sig),
                observed=Theory(PropSet(sig, rev(rev(km, 0), uni))),
                required=_CLAUSES[PostulateId.C2].required,
            )
            if cand.replay(rv):
                return cand
    raise SearchExhaustedError(
        "no C2 witness found; the revision cannot satisfy K1-K4"
    )


@dataclass(frozen=True)
class UnderdeterminationWitness:
    """Two rank functions whose revisions agree on every cell of the
    anchor theory's row yet diverge after one further revision step."""

    anchor: Theory
    first: RankFunction
    second: RankFunction
    psi: PropSet
    phi: PropSet


def dynamic_underdetermination(sig: Signature, k: Theory) -> UnderdeterminationWitness:
    """Search all pairs of normalized rank functions for a witness that
    the map chi |-> K*chi does not determine iterated revision.

    Raises WitnessNotFoundError when no pair exists; the anchor is then
    degenerate in the sense that its row pins down the whole operator
    (the inconsistent theory always is, since its row is the entire
    default structure).
    """
    if sig.n != 2:
        raise DomainTooLargeError(
            "under-determination search is defined for exactly 2 atoms"
        )
    nmasks = sig.universe_mask + 1
    km = k.models.mask
    ranks = list(enumerate_rank_functions(sig))
    revs = [RankedRevision(r) for r in ranks]
    rows = [
        tuple(rv.revise_mask(km, f) for f in range(nmasks)) for rv in revs
    ]
    for i in range(len(revs)):
        for j in range(i + 1, len(revs)):
            if rows[i] != rows[j]:
                continue
            rm_i = revs[i].revise_mask
            rm_j = revs[j].revise_mask
            for psi in range(nmasks):
                t = rows[i][psi]
                for phi in range(nmasks):
                    if rm_i(t, phi) != rm_j(t, phi):
                        return UnderdeterminationWitness(
                            anchor=k,
                            first=ranks[i],
                            second=ranks[j],
                            psi=PropSet(sig, psi),
                            phi=PropSet(sig, phi),
                        )
    raise WitnessNotFoundError(
        f"anchor {theory_text(k)} is degenerate: its row determines "
        "iterated revision for every rank function pair"
    )
