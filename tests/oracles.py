"""Independent oracles the tests check the implementation against.

Everything here recomputes expected values from first principles,
without going through the code paths under test: a per-valuation truth
evaluator, a binomial-recurrence counter for ordered set partitions, a
sort-based minimum-rank extractor, a constraint search that finds every
rational choice table at small sizes, and the per-binding postulate
sweep that exhaustive checking is compared against.
"""

from __future__ import annotations

import math

from rankedrev import And, Atom, Const, Iff, Implies, Not, Or
from rankedrev.postulates import _CLAUSES


def fubini(m: int) -> int:
    """Ordered-set-partition count via a(m) = sum C(m,k) * a(m-k)."""
    a = [1]
    for size in range(1, m + 1):
        a.append(sum(math.comb(size, k) * a[size - k] for k in range(1, size + 1)))
    return a[m]


def eval_formula(f, env: dict) -> bool:
    """Recursive truth evaluation against a name -> bool assignment."""
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not eval_formula(f.operand, env)
    if isinstance(f, And):
        return eval_formula(f.left, env) and eval_formula(f.right, env)
    if isinstance(f, Or):
        return eval_formula(f.left, env) or eval_formula(f.right, env)
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


def first_violation(rv, pid):
    """Exhaustive check of one clause, one scalar ``holds`` call per
    binding in lexicographic order (K, then K', then phi, then psi).

    Returns the first failing binding as (K, K', phi, psi) masks, with 0
    for the quantifiers the clause does not bind, or None when the
    clause holds everywhere.
    """
    clause = _CLAUSES[pid]
    holds = clause.holds
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
