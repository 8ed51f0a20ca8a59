"""Machine-checkable catalogue of revision postulates.

Every postulate is a universally quantified clause over theories and
formula classes. Quantifier domains are semantic: theories range over
all 2**(2**n) model sets and formulas over all 2**(2**n) PropSet masks,
so "for any theory" is literal at desk scale. Exhaustive checking
reports the first counterexample in lexicographic binding order
(ascending masks, K then K' then phi then psi), which keeps golden
reports stable. Sampled mode draws bindings from a seeded generator and
reports the seed, so every run is replayable.

Violations are self-certifying: replaying the recorded bindings reads
the revision afresh, through the clause's block form, and reproduces the
clause failure.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from enum import Enum
from itertools import count, repeat
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import (
    DomainTooLargeError,
    SamplingError,
    SearchExhaustedError,
    WitnessNotFoundError,
)
from .logic import _ZERO, PropSet, Signature, Theory, _first_byte, _ints, _masks
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


# Exhaustive checking runs on packed rows (see logic.py): row K of the
# revision table packs into one int whose byte phi is rev(K, phi). Each
# clause has, per outer binding, (K, -) for KF, (K, K') for KKF and K for
# KFF, a violation vector over the inner quantifiers: phi, or for KFF the
# pairs (phi, psi) in lexicographic order. Its byte is nonzero exactly
# where the clause fails, so the lowest nonzero byte of the first nonzero
# vector is the lexicographically first counterexample. A KF or KKF
# clause's packed form binds a packed table and returns its vector
# function; the KFF vectors are written out in _kff_pass, which
# evaluates them all per K on blocks over every pair (phi, psi).


class _Packed:
    """A revision table packed one row per int, with the signature's masks.

    Cells outside 0..universe_mask are packed as 0 and flagged in
    ``bad``, which only K1 reads; every other clause sees such a cell as
    the empty model set. Built once per revision by ``_packed``.
    """

    def __init__(self, table, uni: int):
        self.nmasks = uni + 1
        self.m = _masks(self.nmasks)
        valid = bytes(range(self.nmasks))
        try:  # rows of bytes, as a revision builds them: nothing left once valid cells go
            in_range = not b"".join(table).translate(None, valid)
        except TypeError:  # rows of ints
            in_range = False
        if in_range:
            self.rows, self.bad = list(map(bytes, table)), [0] * self.nmasks
        else:
            self.rows, self.bad = [], []
            for row in table:
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

    def block(self, K: int, index: bytes) -> int:
        """Over the pairs (phi, psi) of _Pairs: rev(K, index[pair])."""
        return int.from_bytes(index.translate(self.tab[K]), "little")

    def iterated_block(self, K: int) -> int:
        """Over the pairs (phi, psi): rev(rev(K, psi), phi)."""
        return int.from_bytes(b"".join(map(self.rows[K].translate, self.cols)), "little")


def _packed(rv: Revision) -> _Packed:
    """The revision's packed table, built on first use and kept on the
    revision like the rows it packs."""
    if rv._packed is None:
        rv._packed = _Packed(rv.table(), rv.sig.universe_mask)
    return rv._packed


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


# Deciders for the symmetric KKF clauses: True exactly when the clause
# holds at every (K, K', phi), found on the packed rows without a sweep
# over (K, K') pairs. Lane (phi, w) is bit w of byte phi; per lane, f(a)
# is that bit of P[a], and the clause ranges over the sets a whose
# family vector (apart, meet or every set) has the lane. "sub" is
# f(a ∪ b) ⊆ f(a) ∪ f(b), "sup" is f(a) ∪ f(b) ⊆ f(a ∪ b); U8 is both over
# every set, U8_2 is sub, P_KM1 both over meet and P_K9U81 both over
# apart. Every family here is closed under union.


def _dk9(t):
    # If (K, K') fails at phi, so does (0, K) or (0, K'): apart[0] is all
    # ones and P[K] != P[K'] on the lane means one of them differs from P[0].
    P, apart = t.P, t.m.apart
    return not any((P[0] ^ p) & a for p, a in zip(P, apart))


def _union_generated(t, fam):
    """sub and sup on a family that holds every subset of its members
    (all sets, or apart): f(a) = f(0) ∪ ⋃ over v ∈ a of f({v})."""
    P = t.P
    gen = [P[0]]
    for a in range(1, t.nmasks):
        low = a & -a
        gen.append(gen[a ^ low] | P[low])
    return not any((p ^ g) & f for p, g, f in zip(P, gen, fam))


@functools.cache
def _zeta_steps(nmasks: int) -> list[tuple[list[int], list[tuple[int, list[int]]]]]:
    """Per valuation v: the sets holding v and, per other valuation x,
    x's bit with the sets holding both; the steps of a subset-OR
    transform over the sets holding v."""
    bits = [1 << v for v in range(nmasks.bit_length() - 1)]
    return [([s for s in range(nmasks) if s & vb],
             [(xb, [s for s in range(nmasks) if s & vb and s & xb])
              for xb in bits if xb != vb])
            for vb in bits]


@functools.cache
def _covers(nmasks: int) -> list[tuple[int, int]]:
    """Every pair (a, a ∪ {x}) with x ∉ a."""
    bits = [1 << v for v in range(nmasks.bit_length() - 1)]
    return [(a, a | xb) for xb in bits for a in range(nmasks) if not a & xb]


def _sub(t, fam):
    """On each lane the zero sets (members a with f(a) = 0) are closed
    under union: no s with f(s) = 1 is the union of the zero sets below
    it. reach[s] has the lane when a zero set c ⊆ s holds v, and cover[s]
    when that is so for every v ∈ s."""
    P, n = t.P, t.nmasks
    zero = [~p & f for p, f in zip(P, fam)]
    cover = [-1] * n
    for holding, steps in _zeta_steps(n):
        reach = zero[:]
        for xb, both in steps:
            for s in both:
                reach[s] |= reach[s ^ xb]
        for s in holding:
            cover[s] &= reach[s]
    return not any(P[s] & fam[s] & cover[s] for s in range(1, n))


def _sup(t, fam):
    """f is monotone along every step a -> a ∪ {x} inside the family."""
    P = t.P
    return not any(P[a] & ~P[b] & fam[a] & fam[b] for a, b in _covers(t.nmasks))


def _every(t):
    return [(1 << 8 * t.nmasks) - 1] * t.nmasks


def _du8(t):
    return _union_generated(t, _every(t))


def _du8_2(t):
    return _sub(t, _every(t))


def _dkm1(t):
    return _sub(t, t.m.meet) and _sup(t, t.m.meet)


def _dk9u81(t):
    return _union_generated(t, t.m.apart)


class _Pairs:
    """Gather indexes and vectors over the pairs (phi, psi), byte
    phi * nmasks + psi, that depend only on the signature. Conditions are
    0x80 in the bytes where they hold."""

    def __init__(self, nmasks: int):
        xs = range(nmasks)
        self.at_phi = bytes(phi for phi in xs for _ in xs)
        self.at_psi = bytes(xs) * nmasks
        self.at_conj = bytes(phi & psi for phi in xs for psi in xs)
        self.at_disj = bytes(phi | psi for phi in xs for psi in xs)
        self.ones = int.from_bytes(b"\1" * nmasks * nmasks, "little")
        self.low, self.high = 0x7F * self.ones, 0x80 * self.ones
        self.phi, self.psi = _ints((self.at_phi, self.at_psi))
        self.not_psi = 0xFF * self.ones ^ self.psi
        self.sub = self.high ^ self.nonzero(self.phi & self.not_psi)  # phi ⊆ psi
        self.apart = self.high ^ self.nonzero(self.phi & self.psi)  # phi ∩ psi = ∅

    def nonzero(self, v: int) -> int:
        # byte-wise v != 0: adding 0x7F to the low seven bits carries into bit 7
        return ((v & self.low) + self.low | v) & self.high


_pairs = functools.cache(_Pairs)  # built on the first KFF check at a size


@dataclass(frozen=True)
class _Clause:
    """One postulate: ``packed`` gives the violation vectors that locate
    the first counterexample of a KF or KKF clause (KFF clauses are
    located by ``_kff_pass``), and ``decide``, where set, tells from the
    packed table alone whether there is one, so exhaustive mode locates
    only after it says the clause fails. Its form over a block of
    bindings, which sampled mode and replay read, is in _BLOCK_FAILS."""

    shape: str  # "KF": (K, phi); "KKF": (K, K', phi); "KFF": (K, phi, psi)
    packed: Optional[Callable[[_Packed], Callable[[int, int], int]]]
    observed: str  # the _Block column holding the value the clause reports
    required: str
    decide: Optional[Callable[[_Packed], bool]] = None


_CLAUSES: dict[PostulateId, _Clause] = {
    PostulateId.K1: _Clause("KF", _pk1, "row", "K*phi is a theory over the signature"),
    PostulateId.K2: _Clause("KF", _pk2, "row", "phi ∈ K*phi"),
    PostulateId.K3: _Clause("KF", _pk3, "row", "K*phi ⊆ Cn(K, phi)"),
    PostulateId.K4: _Clause("KF", _pk4, "row", "if ¬phi ∉ K then Cn(K, phi) ⊆ K*phi"),
    PostulateId.K5: _Clause("KF", _pk5, "row", "K*phi inconsistent only if phi ≡ false"),
    PostulateId.K6: _Clause("KF", _pk6, "row", "equivalent inputs revise equally"),
    PostulateId.K7: _Clause("KFF", None, "conj", "K*(phi ∧ psi) ⊆ Cn(K*phi, psi)"),
    PostulateId.K8: _Clause("KFF", None, "conj",
                            "if ¬psi ∉ K*phi then Cn(K*phi, psi) ⊆ K*(phi ∧ psi)"),
    PostulateId.K9: _Clause("KKF", _pk9, "prime",
                            "if ¬phi ∈ K and ¬phi ∈ K' then K*phi = K'*phi", decide=_dk9),
    PostulateId.K9_1: _Clause("KF", _pk9_1, "row",
                              "if ¬phi ∈ K then K*phi ⊆ bot*phi"),
    PostulateId.K9_2: _Clause("KF", _pk9_2, "row",
                              "if ¬phi ∈ K then bot*phi ⊆ K*phi"),
    PostulateId.K9_2P: _Clause("KFF", None, "row",
                               "if psi ∈ K and psi ∈ bot*phi then psi ∈ K*phi"),
    PostulateId.U8: _Clause("KKF", _pu8, "union",
                            "(K ∩ K')*phi = (K*phi) ∩ (K'*phi)", decide=_du8),
    PostulateId.U8_1: _Clause("KKF", _pu8_1, "prime",
                              "if K ⊆ K' then K*phi ⊆ K'*phi"),
    PostulateId.U8_2: _Clause("KKF", _pu8_2, "union",
                              "(K*phi) ∩ (K'*phi) ⊆ (K ∩ K')*phi", decide=_du8_2),
    PostulateId.C1: _Clause("KFF", None, "iterated",
                            "if phi ⊨ psi then (K*psi)*phi = K*phi"),
    PostulateId.C2: _Clause("KFF", None, "iterated",
                            "if phi ⊨ ¬psi then (K*psi)*phi = K*phi"),
    PostulateId.C2P: _Clause("KFF", None, "iterated",
                             "if ¬phi ∈ K and phi ⊨ ¬psi then (K*psi)*phi = K*phi"),
    PostulateId.C3: _Clause("KFF", None, "iterated",
                            "if psi ∈ K*phi then psi ∈ (K*psi)*phi"),
    PostulateId.C4: _Clause("KFF", None, "iterated",
                            "if ¬psi ∉ K*phi then ¬psi ∉ (K*psi)*phi"),
    PostulateId.P_PHIANDPSI: _Clause("KFF", None, "iterated",
                                     "if ¬phi ∉ K*psi then (K*psi)*phi = K*(psi ∧ phi)"),
    PostulateId.P_PSI: _Clause("KFF", None, "iterated",
                               "if ¬phi ∈ K*(psi ∨ phi) then (K*psi)*phi = K*phi"),
    PostulateId.P_GEN: _Clause("KFF", None, "iterated",
                               "if psi ∈ K*phi then (K*psi)*phi = K*phi"),
    PostulateId.P_KM1: _Clause("KKF", _pkm1, "union",
                               "if ¬phi ∉ K and ¬phi ∉ K' then "
                               "(K ∩ K')*phi = (K*phi) ∩ (K'*phi)", decide=_dkm1),
    PostulateId.P_K9U81: _Clause("KKF", _pk9u81, "union",
                                 "if ¬phi ∈ K and ¬phi ∈ K' then "
                                 "(K*phi) ∩ (K'*phi) = (K ∩ K')*phi", decide=_dk9u81),
}


def _first_failure(clause: _Clause, t: _Packed) -> Optional[tuple[int, int, int, int]]:
    """The lexicographically first failing binding (K, K', phi, 0) of a KF
    or KKF clause, with K' = 0 for KF, or None. The loops run over (K, K'),
    K' only for KKF clauses; phi is the lowest nonzero byte of the
    violation vector."""
    vec = clause.packed(t)
    n = t.nmasks
    for a in range(n):
        for b in (0,) if clause.shape == "KF" else range(n):
            v = vec(a, b)
            if v:
                return a, b, _first_byte(v), 0
    return None


# The KFF clauses in canonical order: bit i of the pass's live mask stands
# for _KFF[i], and its vector is entry i of the pass's tuple; the masks
# name the clauses that read a block or a shared condition.
_KFF = tuple(pid for pid, clause in _CLAUSES.items() if clause.shape == "KFF")
_USES_ITERATED = 0b11111111000  # C1, C2, C2P, C3, C4, P_PHIANDPSI, P_PSI, P_GEN
_USES_CONJ = 0b00100000011  # K7, K8, P_PHIANDPSI
_USES_CHANGED = 0b11000111000  # C1, C2, C2P, P_PSI, P_GEN
_USES_WITHIN = 0b10001000100  # K9_2P, C3, P_GEN
_USES_MEETS = 0b00010000010  # K8, C4


def _kff_pass(t: _Packed, pids: list[PostulateId]) -> dict[PostulateId, tuple[int, ...]]:
    """The lexicographically first failing binding (K, 0, phi, psi) of each
    KFF clause in ``pids`` that fails. Per K, the blocks over every pair
    (phi, psi) are built once, each only while a clause that reads it has
    not failed, and every such clause's violation vector is a few int
    operations on them; (phi, psi) is the lowest nonzero byte of the
    first nonzero vector."""
    n, p = t.nmasks, _pairs(t.nmasks)
    phi, psi, not_psi, high, nonzero = p.phi, p.psi, p.not_psi, p.high, p.nonzero
    live = sum(1 << _KFF.index(pid) for pid in pids)
    # K9_2P: where psi ∈ bot*phi
    bot_within = high ^ nonzero(t.block(0, p.at_phi) & not_psi) if live & 4 else 0
    found = {}
    for K in range(n):
        r = t.block(K, p.at_phi)  # rev(K, phi)
        it = t.iterated_block(K) if live & _USES_ITERATED else 0  # rev(rev(K, psi), phi)
        cj = t.block(K, p.at_conj) if live & _USES_CONJ else 0  # rev(K, phi ∧ psi)
        kv = K * p.ones
        rp = r & psi
        # rev(rev(K, psi), phi) != rev(K, phi); rev(K, phi) ⊆ psi; rev(K, phi) meets psi
        changed = nonzero(it ^ r) if live & _USES_CHANGED else 0
        within = high ^ nonzero(r & not_psi) if live & _USES_WITHIN else 0
        meets = nonzero(rp) if live & _USES_MEETS else 0
        vecs = (
            (rp | cj) ^ cj if live & 1 else 0,  # K7
            meets & nonzero((cj | rp) ^ rp) if live & 2 else 0,  # K8
            # K9_2P, where K ⊆ psi and psi ∈ bot*phi
            bot_within & (high ^ within) & (high ^ nonzero(kv & not_psi)) if live & 4 else 0,
            changed & p.sub if live & 8 else 0,  # C1
            changed & p.apart if live & 16 else 0,  # C2
            changed & p.apart & (high ^ nonzero(kv & phi)) if live & 32 else 0,  # C2P
            nonzero(it & not_psi) & within if live & 64 else 0,  # C3
            meets & (high ^ nonzero(it & psi)) if live & 128 else 0,  # C4
            # P_PHIANDPSI, where phi meets rev(K, psi)
            nonzero(t.block(K, p.at_psi) & phi) & nonzero(it ^ cj) if live & 256 else 0,
            # P_PSI, where phi misses rev(K, psi ∨ phi)
            changed & (high ^ nonzero(t.block(K, p.at_disj) & phi)) if live & 512 else 0,
            changed & within if live & 1024 else 0,  # P_GEN
        )
        if any(vecs):
            for i, v in enumerate(vecs):
                if v:
                    found[_KFF[i]] = (K, 0, *divmod(_first_byte(v), n))
                    live &= ~(1 << i)
            if not live:
                return found
    return found


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
        """True when the recorded bindings still violate the clause, by its
        _BLOCK_FAILS form on a block of this one binding."""
        block = _one(rv, self.k.models.mask,
                     self.kprime.models.mask if self.kprime is not None else 0,
                     self.phi.mask, self.psi.mask if self.psi is not None else 0)
        return next(_BLOCK_FAILS[self.postulate.name](block), None) is not None

    def describe(self) -> str:
        return "; ".join(f"{k}={v}" for k, v in self.witness_json().items())

    def witness_json(self) -> dict:
        out = {"K": theory_text(self.k)}
        if self.kprime is not None:
            out["Kprime"] = theory_text(self.kprime)
        out["phi"] = dnf_text(self.phi)
        if self.psi is not None:
            out["psi"] = dnf_text(self.psi)
        out["observed"] = ("not a theory over the signature" if self.observed is None
                           else theory_text(self.observed))
        out["required"] = self.required
        return out


def _make_violation(rv: Revision, pid: PostulateId, K: int, Kp: int,
                    phi: int, psi: int) -> Violation:
    return _violation(rv, pid, _one(rv, K, Kp, phi, psi), 0)


def _violation(rv: Revision, pid: PostulateId, block: _Block, i: int) -> Violation:
    """The record of the clause failing at binding i of the block, with the
    value it reports read from its column there."""
    sig = rv.sig
    clause = _CLAUSES[pid]
    shape = clause.shape
    observed = getattr(block, clause.observed)[i]
    return Violation(
        postulate=pid,
        k=Theory(PropSet(sig, block.K[i])),
        kprime=Theory(PropSet(sig, block.Kp[i])) if shape == "KKF" else None,
        phi=PropSet(sig, block.phi[i]),
        psi=PropSet(sig, block.psi[i]) if shape == "KFF" else None,
        observed=(Theory(PropSet(sig, observed))
                  if 0 <= observed <= sig.universe_mask else None),
        required=clause.required,
    )


def _check_mode(mode: str, seed: Optional[int], samples: int) -> None:
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "sampled":
        if seed is None:
            raise SamplingError("sampled mode needs a seed")
        if samples < 1:
            raise SamplingError(f"sampled mode needs at least one sample, got {samples}")


_BLOCK = 128  # bindings that sampled mode checks at a time
_QUANTIFIERS = {"KF": ("K", "phi"), "KKF": ("K", "Kp", "phi"), "KFF": ("K", "phi", "psi")}


def _draws(seed: int, n: int, size: int) -> Iterator[list[int]]:
    """Lists of ``size`` values below n, in the order that successive
    random.Random(seed).randrange(n) calls return them: each value is
    getrandbits(n.bit_length()), drawn again while it is at least n."""
    getrandbits, k = random.Random(seed).getrandbits, n.bit_length()
    while True:
        out: list[int] = []
        while len(out) < size:
            out += [r for r in map(getrandbits, repeat(k, size - len(out))) if r < n]
        yield out


class _Block:
    """A block of bindings as columns K, Kp, phi and psi, and the columns
    of _COLUMNS over them, each computed on first use for the whole block."""

    def __init__(self, rv: Revision, K: list, Kp: list, phi: list, psi: list):
        self.uni, self.col = rv.sig.universe_mask, rv._revise_column
        self.K, self.Kp, self.phi, self.psi = K, Kp, phi, psi

    def __getattr__(self, name: str) -> list[int]:
        if name not in _COLUMNS:
            raise AttributeError(name)
        value = self.__dict__[name] = _COLUMNS[name](self)
        return value


_COLUMNS: dict[str, Callable[[_Block], list[int]]] = {
    "meet": lambda b: [k & f for k, f in zip(b.K, b.phi)],  # K ∧ phi
    "row": lambda b: b.col(b.K, b.phi),  # rev(K, phi)
    "prime": lambda b: b.col(b.Kp, b.phi),  # rev(K', phi)
    "union": lambda b: b.col([k | kp for k, kp in zip(b.K, b.Kp)], b.phi),  # rev(K ∪ K', phi)
    "bot": lambda b: b.col([0] * len(b.K), b.phi),  # rev(⊥, phi)
    "by_psi": lambda b: b.col(b.K, b.psi),  # rev(K, psi)
    "iterated": lambda b: b.col(b.by_psi, b.phi),  # rev(rev(K, psi), phi)
    "conj": lambda b: b.col(b.K, [f & s for f, s in zip(b.phi, b.psi)]),  # rev(K, phi ∧ psi)
    "disj": lambda b: b.col(b.K, [f | s for f, s in zip(b.phi, b.psi)]),  # rev(K, psi ∨ phi)
}


def _one(rv: Revision, K: int, Kp: int, phi: int, psi: int) -> _Block:
    """The block of the single binding (K, K', phi, psi)."""
    return _Block(rv, [K], [Kp], [phi], [psi])


# Each clause's failing bindings in a block, as indices in binding order,
# written over the block's columns. The clause's scalar statement, one
# binding at a time, is kept in tests/oracles.py as the reference that
# these forms and the packed kernels are tested against.
_BLOCK_FAILS: dict[str, Callable[[_Block], Iterator[int]]] = {
    "K1": lambda b: (i for i, r in enumerate(b.row) if not 0 <= r <= b.uni),
    "K2": lambda b: (i for i, r, f in _ix(b.row, b.phi) if r | f != f),
    "K3": lambda b: (i for i, m, r in _ix(b.meet, b.row) if m | r != r),
    "K4": lambda b: (i for i, m, r in _ix(b.meet, b.row) if m and r | m != m),
    "K5": lambda b: (i for i, r, f in _ix(b.row, b.phi) if r == 0 and f != 0),
    # a second column of rev(K, phi): only a nondeterministic revise fails
    "K6": lambda b: (i for i, r, s in _ix(b.row, b.col(b.K, b.phi)) if r != s),
    "K7": lambda b: (i for i, r, s, c in _ix(b.row, b.psi, b.conj) if r & s | c != c),
    "K8": lambda b: (i for i, r, s, c in _ix(b.row, b.psi, b.conj)
                     if r & s and c | r & s != r & s),
    "K9": lambda b: (i for i, m, kp, f, r, p in _ix(b.meet, b.Kp, b.phi, b.row, b.prime)
                     if not (m or kp & f) and r != p),
    "K9_1": lambda b: (i for i, m, o, r in _ix(b.meet, b.bot, b.row) if not m and o | r != r),
    "K9_2": lambda b: (i for i, m, o, r in _ix(b.meet, b.bot, b.row) if not m and r | o != o),
    "K9_2P": lambda b: (i for i, k, s, o, r in _ix(b.K, b.psi, b.bot, b.row)
                        if k | s == s and o | s == s and r | s != s),
    "U8": lambda b: (i for i, u, r, p in _ix(b.union, b.row, b.prime) if u != r | p),
    "U8_1": lambda b: (i for i, k, kp, r, p in _ix(b.K, b.Kp, b.row, b.prime)
                       if kp | k == k and p | r != r),
    "U8_2": lambda b: (i for i, u, r, p in _ix(b.union, b.row, b.prime) if u | r | p != r | p),
    "C1": lambda b: (i for i, f, s, it, r in _ix(b.phi, b.psi, b.iterated, b.row)
                     if f | s == s and it != r),
    "C2": lambda b: (i for i, f, s, it, r in _ix(b.phi, b.psi, b.iterated, b.row)
                     if not f & s and it != r),
    "C2P": lambda b: (i for i, m, f, s, it, r in _ix(b.meet, b.phi, b.psi, b.iterated, b.row)
                      if not (m or f & s) and it != r),
    "C3": lambda b: (i for i, s, it, r in _ix(b.psi, b.iterated, b.row)
                     if r | s == s and it | s != s),
    "C4": lambda b: (i for i, s, it, r in _ix(b.psi, b.iterated, b.row) if r & s and not it & s),
    "P_PHIANDPSI": lambda b: (i for i, f, q, it, c in _ix(b.phi, b.by_psi, b.iterated, b.conj)
                              if q & f and it != c),
    "P_PSI": lambda b: (i for i, f, d, it, r in _ix(b.phi, b.disj, b.iterated, b.row)
                        if not d & f and it != r),
    "P_GEN": lambda b: (i for i, s, it, r in _ix(b.psi, b.iterated, b.row)
                        if r | s == s and it != r),
    "P_KM1": lambda b: (i for i, m, kp, f, u, r, p
                        in _ix(b.meet, b.Kp, b.phi, b.union, b.row, b.prime)
                        if m and kp & f and u != r | p),
    "P_K9U81": lambda b: (i for i, m, kp, f, u, r, p
                          in _ix(b.meet, b.Kp, b.phi, b.union, b.row, b.prime)
                          if not (m or kp & f) and u != r | p),
}


def _ix(*columns: list[int]) -> Iterator[tuple[int, ...]]:
    """The columns' entries by binding, each led by its index."""
    return zip(count(), *columns)


def _sampled_pass(rv: Revision, pids: list[PostulateId], seed: int,
                  samples: int) -> dict[PostulateId, Violation]:
    """The first violation of each clause in ``pids``, all of one shape,
    checked _BLOCK bindings at a time against every clause that has not
    failed yet. A column is read over the whole block, also at bindings
    where a clause's condition would skip its cell."""
    names = _QUANTIFIERS[_CLAUSES[pids[0]].shape]
    width = len(names)
    blocks = _draws(seed, rv.sig.universe_mask + 1, width * _BLOCK)
    live = list(pids)
    found: dict[PostulateId, Violation] = {}
    for start in range(0, samples, _BLOCK):
        draws = next(blocks)[:width * (samples - start)]
        cols = dict.fromkeys(("K", "Kp", "phi", "psi"), [0] * (len(draws) // width))
        cols.update((name, draws[i::width]) for i, name in enumerate(names))
        block = _Block(rv, **cols)
        for pid in live:
            hit = next(_BLOCK_FAILS[pid.name](block), None)
            if hit is not None:
                found[pid] = _violation(rv, pid, block, hit)
        live = [pid for pid in live if pid not in found]
        if not live:
            break
    return found


def _exhaustive_pass(rv: Revision, pids: list[PostulateId]) -> dict[PostulateId, Violation]:
    """The first violation of each clause in ``pids``, which is not empty,
    in lexicographic binding order. The KFF clauses share one
    ``_kff_pass``; a KF or KKF clause with a decider is first decided on
    the whole table, and only when it fails, or when the clause has no
    decider, is its binding domain swept to locate the first
    counterexample."""
    if rv.sig.n > TABLE_MAX_ATOMS:
        raise DomainTooLargeError(
            f"{pids[0].name} quantifies over too many bindings at {rv.sig.n} atoms; "
            "run in sampled mode instead"
        )
    t = _packed(rv)
    kff = [pid for pid in pids if _CLAUSES[pid].shape == "KFF"]
    hits = _kff_pass(t, kff) if kff else {}
    for pid in pids:
        clause = _CLAUSES[pid]
        if clause.shape != "KFF" and not (clause.decide is not None and clause.decide(t)):
            hit = _first_failure(clause, t)
            if hit is not None:
                hits[pid] = hit
    return {pid: _make_violation(rv, pid, *hit) for pid, hit in hits.items()}


def check_postulate(
    rv: Revision,
    pid: PostulateId,
    *,
    mode: str = "exhaustive",
    seed: Optional[int] = None,
    samples: int = 500,
) -> Optional[Violation]:
    """Evaluate one postulate; None means it holds everywhere checked.

    Exhaustive mode works on packed table rows and needs n <= 3. A
    clause with a decider is first decided on the whole table; only when
    it fails, or when the clause has no decider, is the binding domain
    swept in lexicographic order to locate the first counterexample. A
    KFF clause is located by the same pass, one K at a time over blocks
    of every (phi, psi), that run_suite makes for all its KFF clauses.
    Sampled mode draws ``samples`` bindings as random.Random(seed).randrange
    would, one per quantifier in binding order, so for a given seed every
    clause of one shape (KF, KKF or KFF) sees the same bindings. It reads
    the revision one column at a time over a block of bindings.
    """
    _check_mode(mode, seed, samples)
    if mode == "sampled":
        return _sampled_pass(rv, [pid], seed, samples).get(pid)
    return _exhaustive_pass(rv, [pid]).get(pid)


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
    """check_postulate over a set of ids, merged in canonical order.

    Both modes make one pass per clause shape, which gives the verdicts
    and witnesses of one check_postulate call per clause. Sampled mode
    draws each block of bindings once, and reads each revision column
    over it once for every clause of that shape. Exhaustive mode sweeps
    K once for all the KFF clauses, building the blocks over (phi, psi)
    they share once per K, and decides or sweeps each KF and KKF clause
    on the same packed table. Ids that are not PostulateId members, or
    none, raise ValueError instead of passing vacuously."""
    _check_mode(mode, seed, samples)
    wanted = set(ids)
    pids = [pid for pid in PostulateId if pid in wanted]
    if not pids or len(pids) != len(wanted):
        unknown = sorted(map(repr, wanted.difference(PostulateId)))
        raise ValueError(f"run_suite needs PostulateId members, got {', '.join(unknown)}"
                         if unknown else "run_suite needs at least one postulate id")
    found: dict[PostulateId, Violation] = {}
    if mode == "sampled":
        shapes: dict[str, list[PostulateId]] = {}
        for pid in pids:
            shapes.setdefault(_CLAUSES[pid].shape, []).append(pid)
        for group in shapes.values():
            found.update(_sampled_pass(rv, group, seed, samples))
    else:
        found = _exhaustive_pass(rv, pids)
    results = [(pid, found.get(pid)) for pid in pids]
    return SuiteReport(
        sig=rv.sig,
        mode=mode,
        seed=seed if mode == "sampled" else None,
        samples=samples if mode == "sampled" else None,
        domain_size=rv.sig.universe_mask + 1,
        results=tuple(results),
    )


def _check_preconditions_fit(rv: Revision, what: str) -> None:
    if rv.sig.n > TABLE_MAX_ATOMS:
        raise DomainTooLargeError(
            f"{what} checks its preconditions exhaustively, up to {TABLE_MAX_ATOMS} atoms; "
            f"got {rv.sig.n}"
        )


def check_implication_9p_to_92(rv: Revision) -> Optional[Violation]:
    """The conditional: K1, K2 and K9.2' together force K9.2.

    Returns None when the conditional holds (including vacuously, when
    the antecedent fails); a Violation only when the antecedent holds
    and K9.2 still fails somewhere.
    """
    _check_preconditions_fit(rv, "the 9.2' to 9.2 implication")
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
        _check_preconditions_fit(rv, f"witness search for {which.value}")
        for pid in _IMPOSSIBILITY_PRECONDITIONS[which]:
            if check_postulate(rv, pid) is not None:
                raise ValueError(
                    f"witness search for {which.value} assumes {pid.name} holds, "
                    "but this revision violates it"
                )
    uni = rv.sig.universe_mask
    bottom_true = rv.revise_mask(0, uni)

    if which is ImpossibilityTarget.U8_1_VS_K4K5:
        # Any consistent Cn(phi) missing some default consequence of true
        # breaks monotonicity against bot: Cn(phi) ⊆ bot yet
        # Cn(phi)*true keeps phi (by K4) while bot*true may not.
        for phi in range(1, uni + 1):
            if (bottom_true | phi) != phi:
                block = _one(rv, phi, 0, uni, 0)
                if next(_BLOCK_FAILS["U8_1"](block), None) is not None:
                    return _violation(rv, PostulateId.U8_1, block, 0)
        raise SearchExhaustedError(
            "no U8_1 witness found; the revision cannot satisfy K4 and K5"
        )

    # C2 instantiated at psi = false collapses every severe row to the
    # bottom row, so any consistent theory other than bot*true witnesses.
    for km in range(1, uni + 1):
        if km != bottom_true:
            block = _one(rv, km, 0, uni, 0)
            if next(_BLOCK_FAILS["C2"](block), None) is not None:
                return _violation(rv, PostulateId.C2, block, 0)
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


@functools.cache
def _two_atom_revisions() -> tuple[RankedRevision, ...]:
    """The 75 normalized rank functions at 2 atoms, in enumeration order,
    as revisions; their tables do not depend on the atom names."""
    return tuple(map(RankedRevision, enumerate_rank_functions(Signature(("p", "q")))))


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
    revs = _two_atom_revisions()
    tables = [rv.table() for rv in revs]
    rows = [t[km] for t in tables]
    # K*false is the inconsistent theory, whose row is the bottom row, and
    # distinct normalized rank functions have distinct bottom rows. So the
    # first pair (i < j) whose rows at K agree diverges at psi = false, on
    # the first phi where their bottom rows differ.
    for i, row in enumerate(rows):
        if row in rows[i + 1:]:
            j = rows.index(row, i + 1)
            phi = next(f for f in range(nmasks) if tables[i][0][f] != tables[j][0][f])
            return UnderdeterminationWitness(
                anchor=k,
                first=RankFunction(sig, revs[i].rank.ranks),
                second=RankFunction(sig, revs[j].rank.ranks),
                psi=PropSet.empty(sig),
                phi=PropSet(sig, phi),
            )
    raise WitnessNotFoundError(
        f"anchor {theory_text(k)} is degenerate: its row determines "
        "iterated revision for every rank function pair"
    )
