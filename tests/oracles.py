"""Independent oracles the tests check the implementation against.

Everything here recomputes expected values from first principles,
without going through the code paths under test: a per-valuation truth
evaluator, a binomial-recurrence counter for ordered set partitions, the
recursive rank-function enumerator that rebuilds every suffix, a
sort-based minimum-rank extractor, the mask of one rank level and a
ranked revision that reads level masks, both set one valuation at a
time, per-valuation atom masks, the token-by-token rank-file parser, a
constraint search that finds every rational choice table at small sizes,
the per-mask consequence table, the scalar statement of each postulate
clause (``HOLDS``, one binding at a time, the reference that the lane
forms, the fused KFF pass and ``Violation.replay`` are compared
against), the per-binding postulate sweep built on it, the rationality
sweep, the exhaustive (K, phi, psi) pass one (K, phi) at a time, sampled
mode run one clause at a time, and the under-determination scan by
revise_mask over every pair of rank functions.
"""

from __future__ import annotations

import math
import random

from rankedrev import (
    And,
    Atom,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    PostulateId,
    PropSet,
    RankedRevision,
    RankFileError,
    RankFunction,
    Revision,
    Signature,
    UnderdeterminationWitness,
    WitnessNotFoundError,
    enumerate_rank_functions,
    theory_text,
)
from rankedrev.logic import _NONZERO, _ZERO, _first_byte
from rankedrev.postulates import _CLAUSES, _make_violation


def fubini(m: int) -> int:
    """Ordered-set-partition count via a(m) = sum C(m,k) * a(m-k)."""
    a = [1]
    for size in range(1, m + 1):
        a.append(sum(math.comb(size, k) * a[size - k] for k in range(1, size + 1)))
    return a[m]


def enumerate_rank_functions_reference(sig):
    """enumerate_rank_functions as one recursive generator that rebuilds
    every suffix: rank vectors in lexicographic order, each rank chosen
    so that the holes below the top can still be filled."""
    m = sig.num_valuations
    vec = [0] * m

    def rec(i: int, used: int, top: int):
        if i == m:
            yield RankFunction(sig, tuple(vec))
            return
        remaining = m - i - 1
        for c in range(m):
            new_used = used | (1 << c)
            new_top = c if c > top else top
            # holes below the current top must still be fillable
            if (new_top + 1) - new_used.bit_count() <= remaining:
                vec[i] = c
                yield from rec(i + 1, new_used, new_top)

    return rec(0, 0, -1)


def eval_formula(f, env: dict) -> bool:
    """Recursive truth evaluation against a name -> bool assignment."""
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not eval_formula(f.operand, env)
    if isinstance(f, And):
        return all(eval_formula(g, env) for g in f.operands)
    if isinstance(f, Or):
        return any(eval_formula(g, env) for g in f.operands)
    if isinstance(f, Implies):
        return (not eval_formula(f.left, env)) or eval_formula(f.right, env)
    if isinstance(f, Iff):
        return eval_formula(f.left, env) == eval_formula(f.right, env)
    raise TypeError(f"not a formula: {f!r}")


def models_by_truth_table(f, sig) -> frozenset:
    """Valuation indices satisfying f, by row-at-a-time evaluation."""
    n = sig.n
    out = set()
    for v in range(1 << n):
        env = {a: bool((v >> (n - 1 - i)) & 1) for i, a in enumerate(sig.atoms)}
        if eval_formula(f, env):
            out.add(v)
    return frozenset(out)


def min_rank_valuations(ranks, valuations) -> frozenset:
    """Minimum-rank members, via sorting rather than a running minimum."""
    vs = list(valuations)
    if not vs:
        return frozenset()
    ordered = sorted(vs, key=lambda v: ranks[v])
    best = ranks[ordered[0]]
    return frozenset(v for v in ordered if ranks[v] == best)


class MinRankRevision(Revision):
    """RankedRevision by its definition: K ∧ phi when that is consistent,
    else phi's part of the lowest rank level that phi meets, from level
    masks set one valuation at a time. Its columns go through Revision's
    lane hook, one revise_mask per lane."""

    def __init__(self, rank: RankFunction):
        super().__init__(rank.sig)
        levels: dict[int, int] = {}
        for v, r in enumerate(rank.ranks):
            levels[r] = levels.get(r, 0) | 1 << v
        self.levels = [levels[r] for r in sorted(levels)]

    def revise_mask(self, k_mask: int, f_mask: int) -> int:
        if k_mask & f_mask:
            return k_mask & f_mask
        for level in self.levels:
            if level & f_mask:
                return level & f_mask
        return 0


def rational_choice_tables(m: int) -> set:
    """Every table mask -> minimal-models mask of a rational,
    consistency-preserving relation over m valuations, found by
    constraint search over candidate tables (not via rank functions).

    Candidates assign each nonempty mask a nonempty subset (reflexivity
    plus consistency preservation); comparable masks A ⊆ B must satisfy
    mu(B) ∩ A nonempty  =>  mu(A) = mu(B) ∩ A, and completed tables must
    additionally pass the disjunction condition
    mu(A ∨ B) ⊆ mu(A) ∪ mu(B).
    """
    uni = (1 << m) - 1
    order = sorted(range(1, uni + 1), key=lambda x: (x.bit_count(), x))
    mu = {0: 0}
    found = set()

    def nonempty_subsets(s):
        subs = []
        t = s
        while t:
            subs.append(t)
            t = (t - 1) & s
        return sorted(subs)

    def compatible(s, val):
        for t, vt in mu.items():
            if t == 0:
                continue
            if (t | s) == s and t != s:  # t ⊂ s
                inter = val & t
                if inter and vt != inter:
                    return False
            elif (s | t) == t and t != s:  # s ⊂ t
                inter = vt & s
                if inter and val != inter:
                    return False
        return True

    def disjunction_ok():
        for a in range(uni + 1):
            for b in range(a, uni + 1):
                u = mu[a] | mu[b]
                if (mu[a | b] | u) != u:
                    return False
        return True

    def search(i):
        if i == len(order):
            if disjunction_ok():
                found.add(tuple(mu[x] for x in range(uni + 1)))
            return
        s = order[i]
        for val in nonempty_subsets(s):
            if compatible(s, val):
                mu[s] = val
                search(i + 1)
                del mu[s]

    search(0)
    return found


def atom_mask_reference(sig, i: int) -> int:
    """Signature.atom_truth_mask of the i-th atom, one valuation at a time."""
    n = sig.n
    m = 0
    for v in range(1 << n):
        if (v >> (n - 1 - i)) & 1:
            m |= 1 << v
    return m


def parse_rank_file_reference(text: str):
    """parse_rank_file one token at a time, each level kept in a dict."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("atoms:"):
        raise RankFileError("first line must be 'atoms: <names>'")
    atoms = lines[0][len("atoms:"):].split()
    try:
        sig = Signature(tuple(atoms))
    except ValueError as exc:
        raise RankFileError(str(exc)) from exc
    ranks: dict[int, int] = {}
    for lineno, line in enumerate(lines[1:]):
        head, sep, rest = line.partition(":")
        if not sep or not head.strip().isdigit():
            raise RankFileError(f"bad level line {line!r}")
        level = int(head)
        if level != lineno:
            raise RankFileError(f"levels must be contiguous from 0, got {level}")
        vals = rest.split()
        if not vals:
            raise RankFileError(f"level {level} is empty")
        for bits in vals:
            try:
                v = sig.valuation_from_bits(bits)
            except ValueError as exc:
                raise RankFileError(str(exc)) from exc
            if v in ranks:
                raise RankFileError(f"valuation {bits} listed twice")
            ranks[v] = level
    if len(ranks) != sig.num_valuations:
        missing = [
            sig.valuation_bits(v) for v in range(sig.num_valuations) if v not in ranks
        ]
        raise RankFileError(f"valuations missing a rank: {' '.join(missing)}")
    return RankFunction(sig, tuple(ranks[v] for v in range(sig.num_valuations)))


def level_mask(r, level):
    """The mask of r's valuations of rank ``level``, set one valuation at
    a time: the reference for ranking.level_masks."""
    m = 0
    for v, rank in enumerate(r.ranks):
        if rank == level:
            m |= 1 << v
    return m


def consequence_table_reference(r):
    """RankFunction.consequence_table one mask at a time: entry f is f's
    part of the first level that f meets."""
    levels = [level_mask(r, l) for l in range(r.height + 1)]
    table = [0] * (r.sig.universe_mask + 1)
    for f in range(1, r.sig.universe_mask + 1):
        for lvl in levels:
            hit = f & lvl
            if hit:
                table[f] = hit
                break
    return tuple(table)


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

# The scalar statement of each clause: True when the binding satisfies it.
HOLDS = {
    PostulateId.K1: _h_k1,
    PostulateId.K2: _h_k2,
    PostulateId.K3: _h_k3,
    PostulateId.K4: _h_k4,
    PostulateId.K5: _h_k5,
    PostulateId.K6: _h_k6,
    PostulateId.K7: _h_k7,
    PostulateId.K8: _h_k8,
    PostulateId.K9: _h_k9,
    PostulateId.K9_1: _h_k9_1,
    PostulateId.K9_2: _h_k9_2,
    PostulateId.K9_2P: _h_k9_2p,
    PostulateId.U8: _h_u8,
    PostulateId.U8_1: _h_u8_1,
    PostulateId.U8_2: _h_u8_2,
    PostulateId.C1: _h_c1,
    PostulateId.C2: _h_c2,
    PostulateId.C2P: _h_c2p,
    PostulateId.C3: _h_c3,
    PostulateId.C4: _h_c4,
    PostulateId.P_PHIANDPSI: _h_phiandpsi,
    PostulateId.P_PSI: _h_psi,
    PostulateId.P_GEN: _h_gen,
    PostulateId.P_KM1: _h_km1,
    PostulateId.P_K9U81: _h_k9u81,
}


def replay_reference(v, rv):
    """Violation.replay by the clause's scalar statement: True when the
    recorded bindings still violate it."""
    return not HOLDS[v.postulate](
        rv.revise_mask,
        rv.sig.universe_mask,
        v.k.models.mask,
        v.kprime.models.mask if v.kprime is not None else 0,
        v.phi.mask,
        v.psi.mask if v.psi is not None else 0,
    )


def sampled_reference(rv, pid, seed, samples):
    """Sampled mode for one clause with its own generator: ``samples``
    bindings from random.Random(seed), one randrange per quantifier in
    binding order.

    Returns (position, Violation) for the first failing sample, counted
    from 0, or None when every sample holds.
    """
    clause = _CLAUSES[pid]
    uni = rv.sig.universe_mask
    shape = clause.shape
    rng = random.Random(seed)
    rev = rv.revise_mask
    holds = HOLDS[pid]
    nmasks = uni + 1
    for position in range(samples):
        K = rng.randrange(nmasks)
        Kp = rng.randrange(nmasks) if shape == "KKF" else 0
        phi = rng.randrange(nmasks)
        psi = rng.randrange(nmasks) if shape == "KFF" else 0
        if not holds(rev, uni, K, Kp, phi, psi):
            return position, _make_violation(rv, pid, K, Kp, phi, psi)
    return None


def first_violation(rv, pid):
    """Exhaustive check of one clause, one scalar ``HOLDS`` call per
    binding in lexicographic order (K, then K', then phi, then psi).

    Returns the first failing binding as (K, K', phi, psi) masks, with 0
    for the quantifiers the clause does not bind, or None when the
    clause holds everywhere.
    """
    clause = _CLAUSES[pid]
    holds = HOLDS[pid]
    uni = rv.sig.universe_mask
    nmasks = uni + 1
    table = rv.table()

    def rev(k, f, _t=table):
        return _t[k][f]

    if clause.shape == "KF":
        for K in range(nmasks):
            for phi in range(nmasks):
                if not holds(rev, uni, K, 0, phi, 0):
                    return K, 0, phi, 0
    elif clause.shape == "KKF":
        for K in range(nmasks):
            for Kp in range(nmasks):
                for phi in range(nmasks):
                    if not holds(rev, uni, K, Kp, phi, 0):
                        return K, Kp, phi, 0
    else:
        for K in range(nmasks):
            for phi in range(nmasks):
                for psi in range(nmasks):
                    if not holds(rev, uni, K, 0, phi, psi):
                        return K, 0, phi, psi
    return None


def kff_pass_reference(t, pids):
    """The exhaustive pass over the KFF clauses in ``pids`` one (K, phi)
    binding at a time, with vectors over psi: {pid: (K, 0, phi, psi)} for
    each clause that fails, at the first failure that exhaustive run_suite
    and check_postulate must report. ``t`` is a postulates._Packed table.
    Bit i of ``live`` stands for ``kff[i]``; the iterated and conjoined
    vectors are computed at every binding, whichever clauses are live."""
    kff = [PostulateId[name] for name in ("K7", "K8", "K9_2P", "C1", "C2", "C2P", "C3", "C4",
                                          "P_PHIANDPSI", "P_PSI", "P_GEN")]
    m, n = t.m, t.nmasks
    inter, meet, sub, apart, spread, ident = m.inter, m.meet, m.sub, m.apart, m.spread, m.ident
    or_idx = m.or_idx
    # translate tables over byte values b: b & a != 0, and b & a == 0
    meet_t = [bytes(b & a for b in range(256)).translate(_NONZERO) for a in range(n)]
    apart_t = [bytes(b & a for b in range(256)).translate(_ZERO) for a in range(n)]

    def conj(K, phi):  # over x: rev(K, phi & x)
        return int.from_bytes(m.and_idx[phi].translate(t.tab[K]), "little")

    def iterated(K, phi):  # over x: rev(rev(K, x), phi)
        return int.from_bytes(t.rows[K].translate(t.cols[phi]), "little")

    rows, row0 = t.rows, t.rows[0]
    live = 0
    for pid in pids:
        live |= 1 << kff.index(pid)
    found = {}
    for K in range(n):
        row, padded, subK = rows[K], t.tab[K], sub[K]
        for phi in range(n):
            r = row[phi]
            it = iterated(K, phi)
            cj = conj(K, phi)
            eq = it ^ spread[r]  # over psi: rev(rev(K, psi), phi) ^ rev(K, phi)
            vecs = (
                inter[r] & ~cj if live & 1 else 0,  # K7
                cj & ~inter[r] & meet[r] if live & 2 else 0,  # K8
                subK & sub[row0[phi]] & ~sub[r] if live & 4 else 0,  # K9_2P
                eq & sub[phi] if live & 8 else 0,  # C1
                eq & apart[phi] if live & 16 else 0,  # C2
                eq & apart[phi] if live & 32 and not K & phi else 0,  # C2P
                it & ~ident & sub[r] if live & 64 else 0,  # C3
                # C4: psi meets rev(K, phi) but misses rev(rev(K, psi), phi)
                meet[r] & int.from_bytes((it & ident).to_bytes(n, "little").translate(_ZERO),
                                         "little") if live & 128 else 0,
                # P_PHIANDPSI, where phi meets rev(K, psi)
                int.from_bytes(row.translate(meet_t[phi]), "little") & (it ^ cj)
                if live & 256 else 0,
                # P_PSI, where phi misses rev(K, psi | phi)
                int.from_bytes(or_idx[phi].translate(padded).translate(apart_t[phi]), "little")
                & eq if live & 512 else 0,
                eq & sub[r] if live & 1024 else 0,  # P_GEN
            )
            if any(vecs):
                for i, v in enumerate(vecs):
                    if v:
                        found[kff[i]] = K, 0, phi, _first_byte(v)
                        live &= ~(1 << i)
                if not live:
                    return found
    return found


def rationality_reference(c):
    """The nine rational properties checked one pair or triple at a time,
    in lexicographic (phi, psi, chi) order.

    Returns (prop, witness) per property in RATIONAL_PROPERTIES order,
    where witness is (phi, psi, chi, detail) with masks, None for the
    formulas a property does not bind, or None when the property holds.
    Unlike the checker it also sweeps RW and AND, which hold by
    construction, so tests can confirm that they never fail.
    """
    M = c.consequences
    nmasks = len(M)
    uni = nmasks - 1
    out = []

    # REF: phi |~ phi
    w = None
    for phi in range(nmasks):
        if (M[phi] | phi) != phi:
            w = (phi, None, None, "C(phi) has a model outside phi")
            break
    out.append(("REF", w))

    # LLE holds by construction: equivalent formulas are the same mask.
    out.append(("LLE", None))

    # RW: phi |~ psi and psi ⊨ chi imply phi |~ chi
    w = None
    for phi in range(nmasks):
        if w:
            break
        a = M[phi]
        for psi in range(nmasks):
            if (a | psi) != psi:
                continue
            chi = psi
            while True:  # supersets of psi in increasing mask order
                if (a | chi) != chi:
                    w = (phi, psi, chi, "phi |~ psi, psi ⊨ chi, but not phi |~ chi")
                    break
                if chi == uni:
                    break
                chi = (chi + 1) | psi
            if w:
                break
    out.append(("RW", w))

    # AND: phi |~ psi and phi |~ chi imply phi |~ psi ∧ chi
    w = None
    for phi in range(nmasks):
        if w:
            break
        a = M[phi]
        sups = []
        s = a
        while True:
            sups.append(s)
            if s == uni:
                break
            s = (s + 1) | a
        for psi in sups:
            if w:
                break
            for chi in sups:
                both = psi & chi
                if (a | both) != both:
                    w = (phi, psi, chi,
                         "phi |~ psi and phi |~ chi but not phi |~ psi ∧ chi")
                    break
    out.append(("AND", w))

    # OR: phi |~ chi and psi |~ chi imply phi ∨ psi |~ chi
    w = None
    for phi in range(nmasks):
        if w:
            break
        for psi in range(nmasks):
            joint = M[phi] | M[psi]  # smallest chi with phi |~ chi and psi |~ chi
            if (M[phi | psi] | joint) != joint:
                w = (phi, psi, joint, "phi |~ chi and psi |~ chi but not phi ∨ psi |~ chi")
                break
    out.append(("OR", w))

    # CM: phi |~ psi and phi |~ chi imply phi ∧ psi |~ chi
    w = None
    for phi in range(nmasks):
        if w:
            break
        a = M[phi]
        for psi in range(nmasks):
            if (a | psi) == psi and (M[phi & psi] | a) != a:
                w = (phi, psi, a, "phi |~ psi and phi |~ chi but not phi ∧ psi |~ chi")
                break
    out.append(("CM", w))

    # RM: phi |~ chi and not phi |~ ¬psi imply phi ∧ psi |~ chi
    w = None
    for phi in range(nmasks):
        if w:
            break
        a = M[phi]
        for psi in range(nmasks):
            if a & psi and (M[phi & psi] | a) != a:
                w = (phi, psi, a, "phi |~ chi, phi |~/ ¬psi, but not phi ∧ psi |~ chi")
                break
    out.append(("RM", w))

    # S: phi ∧ psi |~ chi implies phi |~ psi -> chi
    w = None
    for phi in range(nmasks):
        if w:
            break
        a = M[phi]
        for psi in range(nmasks):
            b = M[phi & psi]  # smallest chi with phi ∧ psi |~ chi
            if ((a & psi) | b) != b:
                w = (phi, psi, b, "phi ∧ psi |~ chi but not phi |~ psi -> chi")
                break
    out.append(("S", w))

    # CP: phi |~ false only for phi ≡ false
    w = None
    for phi in range(1, nmasks):
        if M[phi] == 0:
            w = (phi, None, None, "consistent phi with C(phi) inconsistent")
            break
    out.append(("CP", w))

    return tuple(out)


def dynamic_underdetermination_reference(sig, k):
    """dynamic_underdetermination by revise_mask over every pair of the
    enumerated rank functions, in (i, j, psi, phi) order."""
    nmasks = sig.universe_mask + 1
    km = k.models.mask
    ranks = list(enumerate_rank_functions(sig))
    revs = [RankedRevision(r) for r in ranks]
    rows = [tuple(rv.revise_mask(km, f) for f in range(nmasks)) for rv in revs]
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
