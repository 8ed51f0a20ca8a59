"""Machine-checkable catalogue of revision postulates.

Every postulate is a universally quantified clause over theories and
formula classes. Quantifier domains are semantic: theories range over
all 2**(2**n) model sets and formulas over all 2**(2**n) PropSet masks,
so "for any theory" is literal at desk scale. Exhaustive checking
reports the first counterexample in lexicographic binding order
(ascending masks, K then K' then phi then psi), which keeps golden
reports stable. Sampled mode draws bindings from a seeded generator and
reports the seed, so every run is replayable.

Each clause is stated once, as a lane form in _LANE_FAILS, and every
witness, sampled or exhaustive, is found by it. Violations are
self-certifying: replaying the recorded bindings reads the revision
afresh, through the clause's lane form, and reproduces the clause
failure.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, product, repeat
from struct import Struct, error as StructError
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    DomainTooLargeError,
    SamplingError,
    SearchExhaustedError,
    SignatureError,
    WitnessNotFoundError,
)
from .logic import PropSet, Signature, Theory, _ints, _masks
from .ranking import RankFunction, enumerate_rank_functions
from .render import dnf_text, theory_text
from .revision import TABLE_MAX_ATOMS, RankedRevision, Revision


class PostulateId(Enum):
    """Closed enumeration of the checkable postulates."""

    __hash__ = object.__hash__  # members compare by identity; Enum's hash is Python code
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


_CANONICAL = tuple(PostulateId)
AGM_POSTULATES = tuple(PostulateId[f"K{i}"] for i in range(1, 9))
AGM_PLUS_MINIMAL_INFLUENCE = AGM_POSTULATES + (PostulateId.K9,)


# Exhaustive checking of a table whose cells are all model masks runs on
# its rows of bytes (see logic.py): the expand-or-row check on one int per
# row, the lane forms of the KF and KKF clauses on _Rows and of the KFF
# clauses on _Cube.


class _Packed:
    """A revision table whose cells are all model masks, as rows of bytes
    and one int per row, with the signature's masks. Built once per
    revision by ``_packed``."""

    def __init__(self, rows: list[bytes]):
        self.nmasks = len(rows)
        self.m = _masks(self.nmasks)
        self.rows, self.P = rows, _ints(rows)
        # rows and columns zero-padded to 256 bytes, as bytes.translate tables
        pad = bytes(256 - self.nmasks)
        self.tab = [r + pad for r in self.rows]

    @functools.cached_property
    def cols(self) -> list[bytes]:
        """Column phi as a translate table: byte t -> rev(t, phi)."""
        pad = bytes(256 - self.nmasks)
        return [bytes(c) + pad for c in zip(*self.rows)]

    def joined(self, index: bytes) -> int:
        """Over the pairs (x, y) of _Pairs: rev(index[x], y)."""
        return int.from_bytes(b"".join(map(self.rows.__getitem__, index)), "little")

    def repeated(self, K: int) -> int:
        """Over the pairs (x, y): rev(K, y), row K doubled out to every x."""
        v, width = self.P[K], 8 * self.nmasks
        while width < 8 * self.nmasks * self.nmasks:
            v, width = v | v << width, 2 * width
        return v

    flat = functools.cached_property(lambda t: t.joined(t.m.or_idx[0]))  # rev(x, y)
    bot = functools.cached_property(lambda t: t.repeated(0))  # rev(⊥, y)

    @functools.cached_property
    def expand_or_row(self) -> bool:
        """Every row K is K ∧ phi where that is consistent and row ⊥
        elsewhere: inter[K] | (row ⊥ & apart[K]), as _ExpandOrRow builds it."""
        bot, m = self.P[0], self.m
        return all(p == inter | bot & apart for p, inter, apart in zip(self.P, m.inter, m.apart))


def _packed(rv: Revision) -> Union[_Packed, bool]:
    """The revision's packed table, built on first use and kept on the
    revision like the rows it packs; False when a cell of the table is
    not a model mask over the signature."""
    if rv._packed is None:
        try:
            rows = list(map(bytes, rv.table()))
            # nothing is left of rows in range once the model masks are deleted
            in_range = not b"".join(rows).translate(None, bytes(range(rv.sig.universe_mask + 1)))
        except ValueError:  # a cell outside 0..255
            in_range = False
        rv._packed = in_range and _Packed(rows)
    return rv._packed


class _Pairs:
    """Gather indexes over the pairs (phi, psi), byte phi * nmasks + psi,
    and vectors over ``reps`` copies of them, that depend only on the
    signature. Conditions are 0x80 in the bytes where they hold. For
    (K, phi) or (K', phi), ``phi`` is the first index and ``psi`` the
    second."""

    def __init__(self, nmasks: int, reps: int):
        xs = range(nmasks)
        self.at_phi = bytes(phi for phi in xs for _ in xs)
        self.at_psi = bytes(xs) * nmasks
        self.at_conj = bytes(phi & psi for phi in xs for psi in xs)
        self.at_disj = bytes(phi | psi for phi in xs for psi in xs)
        self.ones = int.from_bytes(b"\1" * nmasks * nmasks * reps, "little")
        self.low, self.high = 0x7F * self.ones, 0x80 * self.ones
        self.over = (0xFF ^ nmasks - 1) * self.ones  # the bits past a model mask
        self.phi, self.psi = _ints((self.at_phi * reps, self.at_psi * reps))
        # in each lane, the number of its copy
        self.copy = int.from_bytes(b"".join(bytes((i,)) * nmasks * nmasks for i in range(reps)),
                                   "little")
        self.entails = self.high ^ self.nonzero((self.phi | self.psi) ^ self.psi)  # phi ⊆ psi
        self.disjoint = self.high ^ self.nonzero(self.phi & self.psi)  # phi ∩ psi = ∅

    def nonzero(self, v: int) -> int:
        # lane-wise v != 0: adding low to a lane's low bits carries into its top bit
        return ((v & self.low) + self.low | v) & self.high


_pairs = functools.cache(_Pairs)  # built for the first block over pairs at a size and count


@dataclass(frozen=True)
class _Clause:
    """One postulate: its shape, the column of its lane form (in
    _LANE_FAILS) that holds the value it reports, and its requirement in
    words."""

    shape: str  # "KF": (K, phi); "KKF": (K, K', phi); "KFF": (K, phi, psi)
    observed: str  # the _COLUMNS column holding the value the clause reports
    required: str


_CLAUSES: dict[PostulateId, _Clause] = {
    PostulateId.K1: _Clause("KF", "row", "K*phi is a theory over the signature"),
    PostulateId.K2: _Clause("KF", "row", "phi ∈ K*phi"),
    PostulateId.K3: _Clause("KF", "row", "K*phi ⊆ Cn(K, phi)"),
    PostulateId.K4: _Clause("KF", "row", "if ¬phi ∉ K then Cn(K, phi) ⊆ K*phi"),
    PostulateId.K5: _Clause("KF", "row", "K*phi inconsistent only if phi ≡ false"),
    PostulateId.K6: _Clause("KF", "row", "equivalent inputs revise equally"),
    PostulateId.K7: _Clause("KFF", "conj", "K*(phi ∧ psi) ⊆ Cn(K*phi, psi)"),
    PostulateId.K8: _Clause("KFF", "conj", "if ¬psi ∉ K*phi then Cn(K*phi, psi) ⊆ K*(phi ∧ psi)"),
    PostulateId.K9: _Clause("KKF", "prime", "if ¬phi ∈ K and ¬phi ∈ K' then K*phi = K'*phi"),
    PostulateId.K9_1: _Clause("KF", "row", "if ¬phi ∈ K then K*phi ⊆ bot*phi"),
    PostulateId.K9_2: _Clause("KF", "row", "if ¬phi ∈ K then bot*phi ⊆ K*phi"),
    PostulateId.K9_2P: _Clause("KFF", "row", "if psi ∈ K and psi ∈ bot*phi then psi ∈ K*phi"),
    PostulateId.U8: _Clause("KKF", "union", "(K ∩ K')*phi = (K*phi) ∩ (K'*phi)"),
    PostulateId.U8_1: _Clause("KKF", "prime", "if K ⊆ K' then K*phi ⊆ K'*phi"),
    PostulateId.U8_2: _Clause("KKF", "union", "(K*phi) ∩ (K'*phi) ⊆ (K ∩ K')*phi"),
    PostulateId.C1: _Clause("KFF", "iterated", "if phi ⊨ psi then (K*psi)*phi = K*phi"),
    PostulateId.C2: _Clause("KFF", "iterated", "if phi ⊨ ¬psi then (K*psi)*phi = K*phi"),
    PostulateId.C2P: _Clause("KFF", "iterated",
                             "if ¬phi ∈ K and phi ⊨ ¬psi then (K*psi)*phi = K*phi"),
    PostulateId.C3: _Clause("KFF", "iterated", "if psi ∈ K*phi then psi ∈ (K*psi)*phi"),
    PostulateId.C4: _Clause("KFF", "iterated", "if ¬psi ∉ K*phi then ¬psi ∉ (K*psi)*phi"),
    PostulateId.P_PHIANDPSI: _Clause("KFF", "iterated",
                                     "if ¬phi ∉ K*psi then (K*psi)*phi = K*(psi ∧ phi)"),
    PostulateId.P_PSI: _Clause("KFF", "iterated",
                               "if ¬phi ∈ K*(psi ∨ phi) then (K*psi)*phi = K*phi"),
    PostulateId.P_GEN: _Clause("KFF", "iterated", "if psi ∈ K*phi then (K*psi)*phi = K*phi"),
    PostulateId.P_KM1: _Clause("KKF", "union",
                               "if ¬phi ∉ K and ¬phi ∉ K' then "
                               "(K ∩ K')*phi = (K*phi) ∩ (K'*phi)"),
    PostulateId.P_K9U81: _Clause("KKF", "union",
                                 "if ¬phi ∈ K and ¬phi ∈ K' then "
                                 "(K*phi) ∩ (K'*phi) = (K ∩ K')*phi"),
}

# The clauses that hold on every expand-or-row table (_Packed.expand_or_row),
# whatever its row ⊥: there a severe cell, where K ∧ phi is inconsistent, is
# row ⊥'s cell, a mild cell is K ∧ phi, and (K ∪ K') ∧ phi, the models of
# (K ∩ K') ∧ phi, is (K ∧ phi) ∪ (K' ∧ phi). Exhaustive mode sweeps them
# only on other tables.
_EXPAND_OR_ROW_HOLDS = frozenset({
    PostulateId.K9,  # both cells severe: each is row ⊥'s
    PostulateId.K9_1,  # a severe cell is row ⊥'s: K*phi = bot*phi
    PostulateId.K9_2,  # the same equality
    PostulateId.K9_2P,  # K*phi is K ∧ phi ⊆ K ⊆ psi, or bot*phi ⊆ psi
    # (K ∪ K') ∧ phi consistent: its cell is (K ∧ phi) ∪ (K' ∧ phi), each part
    # in the mild cell of K or K'; inconsistent: all three cells are row ⊥'s
    PostulateId.U8_2,
    PostulateId.P_KM1,  # both mild: (K ∧ phi) ∪ (K' ∧ phi) on both sides
    PostulateId.P_K9U81,  # both severe, so (K ∪ K') ∧ phi is too: three row ⊥ cells
})


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
        lane form on a one-lane block of them; SignatureError on other atoms."""
        if self.k.sig is not rv.sig and self.k.sig != rv.sig:
            raise SignatureError(f"violation is over atoms {self.k.sig.atoms}, "
                                 f"not {rv.sig.atoms}")
        block = _Lane(rv, self.k.models.mask,
                      self.kprime.models.mask if self.kprime is not None else 0,
                      self.phi.mask, self.psi.mask if self.psi is not None else 0)
        return block.run(_LANE_FAILS[self.postulate.name]) is not None

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
    """The record of the clause failing at this binding, with the value it
    reports read from its column on a one-lane block there."""
    sig = rv.sig
    clause = _CLAUSES[pid]
    shape = clause.shape
    observed = getattr(_Lane(rv, K, Kp, phi, psi), clause.observed)
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


def _check_mode(mode: str, seed: Optional[int], samples: int) -> None:
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "sampled":
        if seed is None:
            raise SamplingError("sampled mode needs a seed")
        if samples < 1:
            raise SamplingError(f"sampled mode needs at least one sample, got {samples}")


_BLOCK = 128  # bindings in a block of sampled lanes
_QUANTIFIERS = {"KF": ("K", "phi"), "KKF": ("K", "Kp", "phi"), "KFF": ("K", "phi", "psi")}
_BINDINGS = ("K", "Kp", "phi", "psi")


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


@functools.lru_cache(maxsize=4)  # bounded: at 16 atoms an entry holds 6 MB of masks
def _lanes(sig: Signature, size: int) -> tuple[int, int, int, int, Optional[Struct]]:
    """Lane width in bits; over ``size`` lanes, each one's top bit, the bits
    below it and past a mask; and their struct, if a code fits (8 bytes)."""
    nbytes = max(1, sig.num_valuations // 4)
    code = dict(zip((1, 2, 4, 8), "bhiq")).get(nbytes)
    ones = int.from_bytes((b"\1" + bytes(nbytes - 1)) * size, "little")
    high = ones << 8 * nbytes - 1
    return (8 * nbytes, high, high - ones, (1 << 8 * nbytes * size) - 1 ^ ones * sig.universe_mask,
            code and Struct(f"<{size}{code}"))


class _Block:
    """Bindings, lists by name among K, Kp, phi and psi (0 where missing),
    one lane of ``bits`` bits each: a column is one int whose lane i, read
    signed, is its value at binding i, packed on first use for the whole
    block. Lanes are twice a mask wide, so -1 and 2**(2**n) fit; where a
    value does not fit, ``run`` checks the bindings one at a time."""

    def __init__(self, rv: Revision, cols: dict[str, list[int]]):
        self.rv, self.cols, self.size = rv, cols, len(cols["K"])
        self.bits, self.high, self.low, self.over, self.struct = _lanes(rv.sig, self.size)

    def __getattr__(self, name: str) -> int:
        if name in _COLUMNS:
            value = _COLUMNS[name](self)
        elif name in _BINDINGS:
            value = self.pack(self.cols[name]) if name in self.cols else 0
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def run(self, form: Callable[[_Block], int]) -> Optional[int]:
        """The first binding where the clause's violation vector is nonzero."""
        try:
            v = form(self)
        except StructError:  # a value that does not fit a lane
            return next((i for i in range(self.size)
                         if _Lane(self.rv, *self.binding(i)).run(form) is not None), None)
        span = 256  # v & -v reads all of v, so first find a low span that holds a bit
        while v and not v & (1 << span) - 1:
            span <<= 2
        v &= (1 << span) - 1
        return ((v & -v).bit_length() - 1) // self.bits if v else None

    def binding(self, i: int) -> tuple[int, ...]:
        return tuple(self.cols[name][i] if name in self.cols else 0 for name in _BINDINGS)

    def rev(self, ks: int, fs: int) -> int:
        """The column rev(ks, fs), from the revision's lane hook."""
        return self.rv._revise_lanes(self, ks, fs)

    def pack(self, values: Sequence[int]) -> int:
        if self.struct:
            return int.from_bytes(self.struct.pack(*values), "little")
        try:
            return int.from_bytes(b"".join(v.to_bytes(self.bits // 8, "little", signed=True)
                                           for v in values), "little")
        except OverflowError:
            raise StructError("a value does not fit a lane") from None

    def unpack(self, column: int) -> Sequence[int]:
        nb = self.bits // 8
        data = column.to_bytes(nb * self.size, "little")
        if self.struct:
            return self.struct.unpack(data)
        return [int.from_bytes(data[i:i + nb], "little", signed=True)
                for i in range(0, len(data), nb)]

    nonzero = _Pairs.nonzero  # on lanes of any width

    def zero(self, v: int) -> int:  # lane-wise v == 0
        return self.high ^ self.nonzero(v)

    @staticmethod
    def minus(a: int, b: int) -> int:  # a & ~b: ~ of a big int is many times slower
        return (a | b) ^ b

    def expand_or_levels(self, levels: Sequence[int], ks: int, fs: int,
                         rest: Callable[[int], int]) -> int:
        """The column ks & fs, and on the lanes where that is 0 but fs is
        not, fs's part of the first mask in ``levels`` that meets it: each
        mask, spread to every lane, meets fs on the lanes not yet answered.
        A lane that meets none of them is read by ``rest``, one at a time."""
        meet = ks & fs
        todo = self.nonzero(fs) ^ self.nonzero(meet)  # the top bit of each such lane
        nbytes = self.bits // 8
        for level in levels:
            if not todo:
                return meet
            # (todo << 1) - (todo >> bits - 1) sets every bit of the lanes in todo
            hit = fs & (todo << 1) - (todo >> self.bits - 1) & int.from_bytes(
                level.to_bytes(nbytes, "little") * self.size, "little")
            meet |= hit
            todo ^= self.nonzero(hit)
        while todo:
            shift = todo.bit_length() - self.bits
            meet |= rest(fs >> shift & (1 << self.bits) - 1) << shift
            todo ^= 1 << shift + self.bits - 1
        return meet


class _Lane(_Block):
    """The block of one binding, whose columns are the values themselves,
    as if in a lane as wide as they are; a condition holds where it is 1."""

    high = 1

    def __init__(self, rv: Revision, K: int, Kp: int, phi: int, psi: int):
        self.rv, self.over = rv, ~rv.sig.universe_mask
        self.K, self.Kp, self.phi, self.psi = K, Kp, phi, psi

    def run(self, form: Callable[[_Block], int]) -> Optional[int]:
        return 0 if form(self) else None

    def rev(self, ks: int, fs: int) -> int:
        return self.rv.revise_mask(ks, fs)

    def nonzero(self, v: int) -> int:
        return 1 if v else 0


class _Rows(_Block):
    """Byte lanes over the pairs (x, y) of _Pairs on a packed table: the KF
    clauses' (K, phi), or at one K the KKF clauses' (K', phi). A column
    that revises joins rows: the table is rev(x, y), and row K, ⊥ or K | x
    at the lanes of x is rev(K, phi), rev(⊥, phi) or rev(K ∪ K', phi)."""

    bits = 8

    def __init__(self, t: _Packed, K: Optional[int] = None):
        p, self.t, self.outer = _pairs(t.nmasks, 1), t, K
        self.size, self.phi, self.bot = t.nmasks * t.nmasks, p.psi, t.bot
        self.high, self.low, self.over = p.high, p.low, p.over
        if K is None:
            self.K, self.Kp, self.row = p.phi, 0, t.flat
        else:
            self.K, self.Kp, self.prime = K * p.ones, p.phi, t.flat
            self.row = t.repeated(K) if K else t.bot

    @functools.cached_property
    def union(self) -> int:
        return self.t.joined(self.t.m.or_idx[self.outer]) if self.outer else self.t.flat

    def binding(self, i: int) -> tuple[int, ...]:
        x, y = divmod(i, self.t.nmasks)
        return (x, 0, y, 0) if self.outer is None else (self.outer, x, y, 0)

    def rev(self, ks: int, fs: int) -> int:  # only K6 calls it: rev(K, phi) again
        return self.row


_CUBE = 1 << 16  # byte lanes in a block over (K, phi, psi): every K at 2 atoms, one at 3


class _Cube(_Block):
    """Byte lanes over the KFF clauses' (K, phi, psi) for the K in ``ks``,
    each K over the pairs (phi, psi) of ``pairs``. A column that revises
    joins, per K, a pair index translated by row K, or row K translated by
    every column; ``bot``, rev(⊥, phi), and the conditions on (phi, psi)
    alone are the same in every block of a table."""

    bits = 8

    def __init__(self, t: _Packed, pairs: _Pairs, bot: int, ks: range):
        self.t, self.pairs, self.bot, self.ks = t, pairs, bot, ks
        self.high, self.low, self.phi, self.psi = pairs.high, pairs.low, pairs.phi, pairs.psi
        self.entails, self.disjoint = pairs.entails, pairs.disjoint

    def joined(self, index: bytes) -> int:
        """rev(K, index[pair]) at each K."""
        return int.from_bytes(b"".join([index.translate(self.t.tab[K]) for K in self.ks]), "little")

    K = functools.cached_property(lambda b: b.ks.start * b.pairs.ones | b.pairs.copy)
    row = functools.cached_property(lambda b: b.joined(b.pairs.at_phi))  # rev(K, phi)
    by_psi = functools.cached_property(lambda b: b.joined(b.pairs.at_psi))  # rev(K, psi)
    conj = functools.cached_property(lambda b: b.joined(b.pairs.at_conj))  # rev(K, phi ∧ psi)
    disj = functools.cached_property(lambda b: b.joined(b.pairs.at_disj))  # rev(K, phi ∨ psi)
    iterated = functools.cached_property(lambda b: int.from_bytes(  # rev(rev(K, psi), phi)
        b"".join([b"".join(map(b.t.rows[K].translate, b.t.cols)) for K in b.ks]), "little"))

    def binding(self, i: int) -> tuple[int, ...]:
        K, pair = divmod(i, len(self.pairs.at_phi))
        return (self.ks[K], 0, *divmod(pair, self.t.nmasks))


def _cubes(t: _Packed) -> Iterator[dict[str, _Block]]:
    """The KFF blocks of a packed table in binding order, as many K as fit
    _CUBE lanes in each."""
    reps = min(t.nmasks, _CUBE // t.nmasks ** 2)
    p = _pairs(t.nmasks, reps)
    bot = int.from_bytes(p.at_phi.translate(t.tab[0]) * reps, "little")
    for K in range(0, t.nmasks, reps):
        cube = _Cube(t, p, bot, range(K, K + reps))
        # every KFF clause reads the row; built while the last block still
        # holds its columns, their memory is reused, where freeing them
        # first would return it to the system and fault it back in
        cube.row
        yield {"KFF": cube}


_COLUMNS: dict[str, Callable[[_Block], int]] = {
    "meet": lambda b: b.K & b.phi,  # K ∧ phi
    "row": lambda b: b.rev(b.K, b.phi),  # rev(K, phi)
    "prime": lambda b: b.rev(b.Kp, b.phi),  # rev(K', phi)
    "union": lambda b: b.rev(b.K | b.Kp, b.phi),  # rev(K ∪ K', phi)
    "bot": lambda b: b.rev(0, b.phi),  # rev(⊥, phi)
    "by_psi": lambda b: b.rev(b.K, b.psi),  # rev(K, psi)
    "iterated": lambda b: b.rev(b.by_psi, b.phi),  # rev(rev(K, psi), phi)
    "conj": lambda b: b.rev(b.K, b.phi & b.psi),  # rev(K, phi ∧ psi)
    "disj": lambda b: b.rev(b.K, b.phi | b.psi),  # rev(K, psi ∨ phi)
    # the pieces and antecedents of the KFF clauses, most read by several
    "kept": lambda b: b.row & b.psi,  # K*phi ∧ psi
    "meets": lambda b: b.nonzero(b.kept),  # ¬psi ∉ K*phi
    "changed": lambda b: b.nonzero(b.iterated ^ b.row),  # (K*psi)*phi ≠ K*phi
    "within": lambda b: b.zero(b.row ^ b.kept),  # psi ∈ K*phi: no model of K*phi outside psi
    "entails": lambda b: b.zero(b.minus(b.phi, b.psi)),  # phi ⊨ psi
    "disjoint": lambda b: b.zero(b.phi & b.psi),  # phi ⊨ ¬psi
}


# Each clause's violation vector over a block, nonzero on the lanes where
# it fails: a ⊆ b fails where minus(a, b) is nonzero, a = b where a ^ b
# is, and a condition enters through nonzero or zero. tests/oracles.py
# keeps the clause's scalar statement, the reference for these forms.
_LANE_FAILS: dict[str, Callable[[_Block], int]] = {
    "K1": lambda b: b.row & b.over,
    "K2": lambda b: b.minus(b.row, b.phi),
    "K3": lambda b: b.minus(b.meet, b.row),
    "K4": lambda b: b.nonzero(b.meet) & b.nonzero(b.minus(b.row, b.meet)),
    "K5": lambda b: b.nonzero(b.phi) & b.zero(b.row),
    # a second column of rev(K, phi): only a nondeterministic revise fails
    "K6": lambda b: b.row ^ b.rev(b.K, b.phi),
    "K7": lambda b: b.minus(b.kept, b.conj),
    "K8": lambda b: b.meets & b.nonzero(b.minus(b.conj, b.kept)),
    "K9": lambda b: b.nonzero(b.row ^ b.prime) & b.zero(b.meet | b.Kp & b.phi),
    "K9_1": lambda b: b.nonzero(b.minus(b.bot, b.row)) & b.zero(b.meet),
    "K9_2": lambda b: b.nonzero(b.minus(b.row, b.bot)) & b.zero(b.meet),
    "K9_2P": lambda b: b.minus(b.zero(b.minus(b.K | b.bot, b.psi)), b.within),
    "U8": lambda b: b.union ^ (b.row | b.prime),
    "U8_1": lambda b: b.nonzero(b.minus(b.prime, b.row)) & b.zero(b.minus(b.Kp, b.K)),
    "U8_2": lambda b: b.minus(b.union, b.row | b.prime),
    "C1": lambda b: b.changed & b.entails,
    "C2": lambda b: b.changed & b.disjoint,
    "C2P": lambda b: b.changed & b.disjoint & b.zero(b.meet),
    "C3": lambda b: b.nonzero(b.minus(b.iterated, b.psi)) & b.within,
    "C4": lambda b: b.meets & b.zero(b.iterated & b.psi),
    "P_PHIANDPSI": lambda b: b.nonzero(b.by_psi & b.phi) & b.nonzero(b.iterated ^ b.conj),
    "P_PSI": lambda b: b.changed & b.zero(b.disj & b.phi),
    "P_GEN": lambda b: b.changed & b.within,
    "P_KM1": lambda b: (b.nonzero(b.meet) & b.nonzero(b.Kp & b.phi)
                        & b.nonzero(b.union ^ (b.row | b.prime))),
    "P_K9U81": lambda b: b.nonzero(b.union ^ (b.row | b.prime)) & b.zero(b.meet | b.Kp & b.phi),
}


def _run(pids: list[PostulateId], blocks: Iterable[dict[str, _Block]]
         ) -> dict[PostulateId, tuple[int, ...]]:
    """The binding at which each clause in ``pids`` first fails by its lane
    form over ``blocks``, which map a shape to the block of its next bindings."""
    hits, live = {}, [(pid, _CLAUSES[pid].shape, _LANE_FAILS[pid._name_]) for pid in pids]
    for by_shape in blocks if live else ():
        for pid, shape, form in live:
            hit = by_shape[shape].run(form)
            if hit is not None:
                hits[pid] = by_shape[shape].binding(hit)
        live = [clause for clause in live if clause[0] not in hits]
        if not live:
            break
    return hits


def _lane_pass(rv: Revision, pids: list[PostulateId],
               bindings: Callable[[int], Iterable[list[int]]]) -> dict[PostulateId, Violation]:
    """The first violation of each clause in ``pids`` on blocks of sampled
    lanes over ``bindings(width)``: lists of values, two a binding for KF
    clauses and three shared by KKF and KFF, binding after binding."""
    hits = {}
    for width in (2, 3):
        live = [pid for pid in pids if len(_QUANTIFIERS[_CLAUSES[pid].shape]) == width]
        shapes = {_CLAUSES[pid].shape for pid in live}
        columns = ([values[i::width] for i in range(width)] for values in bindings(width))
        hits.update(_run(live, ({shape: _Block(rv, dict(zip(_QUANTIFIERS[shape], cols)))
                                 for shape in shapes} for cols in columns)))
    return {pid: _make_violation(rv, pid, *hit) for pid, hit in hits.items()}


def _enumerated(n: int, width: int) -> Iterator[list[int]]:
    """Every binding of ``width`` values below n in order, _BLOCK at a time."""
    values = chain.from_iterable(product(range(n), repeat=width))
    while chunk := list(islice(values, width * _BLOCK)):
        yield chunk


def _pass(rv: Revision, pids: list[PostulateId], mode: str, seed: Optional[int],
          samples: int) -> dict[PostulateId, Violation]:
    """The first violation of each clause in ``pids``, which is not empty:
    among ``samples`` bindings drawn from ``seed``, or exhaustively in
    lexicographic binding order. A packed table is checked by the lane
    forms of its clauses on _Rows and _Cube, but for those of
    _EXPAND_OR_ROW_HOLDS on an expand-or-row table, where they hold; any
    other table on the blocks of sampled mode fed every binding in turn."""
    n = rv.sig.universe_mask + 1
    if mode == "sampled":
        return _lane_pass(rv, pids, lambda width: (
            values[:width * (samples - start)]
            for start, values in zip(range(0, samples, _BLOCK), _draws(seed, n, width * _BLOCK))))
    if rv.sig.n > TABLE_MAX_ATOMS:
        raise DomainTooLargeError(f"{pids[0].name} quantifies over too many bindings at "
                                  f"{rv.sig.n} atoms; run in sampled mode instead")
    t = _packed(rv)
    if not t:
        return _lane_pass(rv, pids, functools.partial(_enumerated, n))
    if t.expand_or_row:
        pids = [pid for pid in pids if pid not in _EXPAND_OR_ROW_HOLDS]
    swept: dict[str, list[PostulateId]] = {"KF": [], "KKF": [], "KFF": []}
    for pid in pids:
        swept[_CLAUSES[pid].shape].append(pid)
    hits = _run(swept["KF"], [{"KF": _Rows(t)}] if swept["KF"] else ())
    hits.update(_run(swept["KKF"], ({"KKF": _Rows(t, K)} for K in range(t.nmasks))))
    hits.update(_run(swept["KFF"], _cubes(t)))
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

    Exhaustive mode needs n <= 3 and reports the lexicographically first
    counterexample. Sampled mode draws ``samples`` bindings as
    random.Random(seed).randrange would, one per quantifier in binding
    order, so for a given seed the clauses with as many quantifiers see
    the same values. An id that is not a PostulateId raises ValueError."""
    _check_mode(mode, seed, samples)
    if not isinstance(pid, PostulateId):
        _postulate_ids([pid], "check_postulate")  # raises run_suite's ValueError
    return _pass(rv, [pid], mode, seed, samples).get(pid)


def _postulate_ids(ids: Iterable[PostulateId], caller: str) -> list[PostulateId]:
    """The ids in canonical order, each once; other ids, or none, raise ValueError."""
    ids = list(ids)
    if not ids or not all(isinstance(pid, PostulateId) for pid in ids):
        unknown = sorted(map(repr, set(ids).difference(PostulateId)))
        raise ValueError(f"{caller} needs PostulateId members, got {', '.join(unknown)}"
                         if unknown else f"{caller} needs at least one postulate id")
    wanted = set(ids)
    return [pid for pid in _CANONICAL if pid in wanted]


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
        head = f"postulate suite over atoms {' '.join(self.sig.atoms)}: mode={self.mode}"
        if self.mode == "sampled":
            head += f" seed={self.seed} samples={self.samples}"
        # a power past 4 atoms: str() refuses ints of over 4300 digits, 2**(2**14)
        size = self.domain_size if self.sig.n <= 4 else f"2**{self.domain_size.bit_length() - 1}"
        lines = [f"{head} domain={size} theories x {size} formula classes"]
        lines += [f"{pid.name} pass" if v is None else f"{pid.name} FAIL {v.describe()}"
                  for pid, v in self.results]
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
    """check_postulate over a set of ids, merged in canonical order: the
    same verdicts and witnesses from one pass per mode, which reads each
    revision column, or builds each block over (phi, psi), once for every
    clause that reads it. Ids that are not PostulateId members, or none,
    raise ValueError instead of passing vacuously."""
    _check_mode(mode, seed, samples)
    pids = _postulate_ids(ids, "run_suite")
    found = _pass(rv, pids, mode, seed, samples)
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
    needed = [PostulateId.K1, PostulateId.K2, PostulateId.K9_2P]
    found = _pass(rv, needed + [PostulateId.K9_2], "exhaustive", None, 0)
    if any(pid in found for pid in needed):
        return None
    v = found.get(PostulateId.K9_2)
    return v and dataclasses.replace(v, required="K1, K2 and K9_2P hold, so K9_2 must: "
                                     + v.required)


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
        needed = _IMPOSSIBILITY_PRECONDITIONS[which]
        found = _pass(rv, list(needed), "exhaustive", None, 0)
        for pid in needed:
            if pid in found:
                raise ValueError(
                    f"witness search for {which.value} assumes {pid.name} holds, "
                    "but this revision violates it"
                )
    uni = rv.sig.universe_mask
    bottom_true = rv.revise_mask(0, uni)

    # Both searches bind (K, bot, true, false). U8_1: a consistent K that
    # misses some default consequence of true breaks monotonicity against
    # bot: K ⊆ bot, yet K*true keeps K (by K4) while bot*true may not. C2:
    # at psi = false every severe row collapses to the bottom row, so any
    # consistent theory other than bot*true witnesses.
    u8_1 = which is ImpossibilityTarget.U8_1_VS_K4K5
    pid = PostulateId.U8_1 if u8_1 else PostulateId.C2
    for K in range(1, uni + 1):
        candidate = (bottom_true | K) != K if u8_1 else K != bottom_true
        if candidate and _Lane(rv, K, 0, uni, 0).run(_LANE_FAILS[pid.name]) is not None:
            return _make_violation(rv, pid, K, 0, uni, 0)
    raise SearchExhaustedError(f"no {pid.name} witness found; the revision cannot satisfy "
                               + ("K4 and K5" if u8_1 else "K1-K4"))


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
    default structure), and SignatureError when k is over other atoms.
    """
    if k.sig != sig:
        raise SignatureError(f"anchor is over atoms {k.sig.atoms}, not {sig.atoms}")
    if sig.n != 2:
        raise DomainTooLargeError("under-determination search is defined for exactly 2 atoms")
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
            return UnderdeterminationWitness(k, RankFunction(sig, revs[i].rank.ranks),
                                             RankFunction(sig, revs[j].rank.ranks),
                                             psi=PropSet.empty(sig), phi=PropSet(sig, phi))
    raise WitnessNotFoundError(
        f"anchor {theory_text(k)} is degenerate: its row determines "
        "iterated revision for every rank function pair"
    )
