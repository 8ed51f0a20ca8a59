"""Rationality checking and the small-size representation oracle."""

import random
from collections import Counter

import pytest

from rankedrev import (
    ConsequenceRelation,
    DomainTooLargeError,
    PropSet,
    Signature,
    check_rationality,
    enumerate_rank_functions,
    random_rank_function,
    RATIONAL_PROPERTIES,
    SignatureError,
)

from helpers import R0, SIG1, SIG2, SIG3, ps
from oracles import rational_choice_tables, rationality_reference


def _table_relation(sig, overrides):
    """Relation that is Cn(argument) except at the given masks."""
    return ConsequenceRelation.from_function(
        sig, lambda f: overrides.get(f, f)
    )


class TestConsequenceRelation:
    @pytest.mark.parametrize("entry", [-1, 16])
    def test_entries_out_of_range(self, entry):
        table = list(R0.consequence_table())
        table[9] = entry
        with pytest.raises(ValueError, match="consequence masks out of range"):
            ConsequenceRelation(SIG2, table)
        table[9] = 15
        assert ConsequenceRelation(SIG2, table).consequences[9] == 15


class TestCheckRationality:
    def test_rank_relation_passes_everything(self):
        report = check_rationality(ConsequenceRelation.from_rank(R0))
        assert report.all_pass
        assert report.failed == ()

    def test_rational_monotonicity_failure(self, sig2):
        # C(true) = Cn(q), C(p) = Cn(p & !q), C elsewhere = Cn(argument):
        # true |~ q and true |~/ !p, yet p |~/ q.
        rel = _table_relation(
            sig2,
            {
                PropSet.full(sig2).mask: ps(sig2, "q").mask,
                ps(sig2, "p").mask: ps(sig2, "p & !q").mask,
            },
        )
        report = check_rationality(rel)
        assert not report.passes("RM")
        # the quoted instantiation is a genuine counterexample
        assert rel.entails(ps(sig2, "true"), ps(sig2, "q"))
        assert not rel.entails(ps(sig2, "true"), ps(sig2, "!p"))
        assert not rel.entails(ps(sig2, "p"), ps(sig2, "q"))
        w = report.witness("RM")
        # replay the reported witness through the relation directly
        assert w.phi.mask & w.psi.mask  # antecedent: phi |~/ !psi
        assert rel.entails(w.phi, w.chi)
        assert not rel.entails(w.phi & w.psi, w.chi)

    def test_reflexivity_fails_when_c_false_is_not_bottom(self, sig2):
        rel = _table_relation(sig2, {0: PropSet.full(sig2).mask})
        report = check_rationality(rel)
        assert not report.passes("REF")
        assert report.witness("REF").phi.mask == 0

    def test_consistency_preservation_failure(self, sig2):
        rel = _table_relation(sig2, {ps(sig2, "p").mask: 0})
        report = check_rationality(rel)
        assert not report.passes("CP")
        assert report.witness("CP").phi == ps(sig2, "p")

    def test_report_covers_all_nine_properties(self):
        report = check_rationality(ConsequenceRelation.from_rank(R0))
        assert tuple(name for name, _ in report.witnesses) == RATIONAL_PROPERTIES

    @pytest.mark.parametrize("sig", [SIG1, SIG3], ids=["fewer_atoms", "more_atoms"])
    def test_other_signature_rejected(self, sig):
        rel = ConsequenceRelation.from_rank(R0)
        assert check_rationality(rel, SIG2).all_pass
        with pytest.raises(SignatureError):
            check_rationality(rel, sig)

    def test_too_many_atoms_rejected(self):
        sig4 = Signature(("a", "b", "c", "d"))
        rel = ConsequenceRelation.from_function(sig4, lambda f: f)
        with pytest.raises(DomainTooLargeError):
            check_rationality(rel)


class TestRankRelationsAreRational:
    def test_exhaustive_one_atom(self):
        for r in enumerate_rank_functions(SIG1):
            assert check_rationality(ConsequenceRelation.from_rank(r)).all_pass

    def test_exhaustive_two_atoms(self, ranks75):
        for r in ranks75:
            assert check_rationality(ConsequenceRelation.from_rank(r)).all_pass

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_three_atoms(self, seed):
        r = random_rank_function(SIG3, levels=3 + seed, seed=seed)
        assert check_rationality(ConsequenceRelation.from_rank(r)).all_pass


_CORE = ("REF", "LLE", "RW", "AND", "S", "RM", "CP")


class TestCoreImpliesOrCm:
    def test_recorded_implication_on_random_tables(self, sig2):
        # whenever {REF, LLE, RW, AND, S, RM, CP} all pass, OR and CM do too
        rng = random.Random(42)
        for _ in range(300):
            table = [0]
            for f in range(1, 16):
                bits = [v for v in range(4) if (f >> v) & 1]
                chosen = [v for v in bits if rng.random() < 0.6]
                if not chosen:
                    chosen = [rng.choice(bits)]
                table.append(sum(1 << v for v in chosen))
            report = check_rationality(ConsequenceRelation(sig2, tuple(table)))
            assert report.core_implies_or_cm()

    @pytest.mark.parametrize("sig, functions", [
        (SIG1, list(enumerate_rank_functions(SIG1))),
        (SIG2, list(enumerate_rank_functions(SIG2))),
        (SIG3, [random_rank_function(SIG3, 1 + i % 5, i) for i in range(12)]),
    ], ids=["1atom", "2atoms", "3atoms"])
    def test_core_holds_on_rank_relations_and_kept_changes(self, sig, functions):
        # Rank relations satisfy the core, so the implication is exercised
        # rather than passed vacuously. Below 3 atoms, so are the tables
        # with one entry C(phi) moved to another nonempty subset of phi that
        # keep the core; each of them is again a rank relation.
        rank_tables = {r.consequence_table() for r in functions}
        tables = [(True, t) for t in rank_tables]
        if sig.n < 3:
            tables += [(False, t[:phi] + (moved,) + t[phi + 1:])
                       for t in rank_tables for phi in range(1, len(t))
                       for moved in range(1, phi + 1) if moved | phi == phi and moved != t[phi]]
        held = Counter()
        for ranked, t in tables:
            report = check_rationality(ConsequenceRelation(sig, t))
            assert report.core_implies_or_cm()
            if all(report.passes(p) for p in _CORE):
                held[ranked] += 1
                assert report.passes("OR") and report.passes("CM")
                assert t in rank_tables
        assert held[True] == len(rank_tables)
        assert held[False] >= (sig.n < 3)


class TestRepresentationCompleteness:
    def test_one_atom(self):
        from_ranks = {
            ConsequenceRelation.from_rank(r).consequences
            for r in enumerate_rank_functions(SIG1)
        }
        assert rational_choice_tables(2) == from_ranks
        assert len(from_ranks) == 3

    def test_two_atoms(self, ranks75):
        """The 75 rank relations are pairwise distinct and are exactly the
        rational consistency-preserving relations found by independent
        constraint search over candidate tables."""
        from_ranks = {ConsequenceRelation.from_rank(r).consequences for r in ranks75}
        assert len(from_ranks) == 75
        oracle = rational_choice_tables(4)
        assert oracle == from_ranks
        # and everything the oracle found passes the checker under test
        for table in oracle:
            assert check_rationality(ConsequenceRelation(SIG2, table)).all_pass


def _assert_matches_reference(rel, failures):
    """The checker against the per-pair sweep: the same witness, with the
    same detail, for all nine properties; and the sweep never finds the
    RW or AND counterexample the checker rules out by construction."""
    ref = rationality_reference(rel)
    got = tuple(
        (name, None if w is None else (
            w.phi.mask,
            None if w.psi is None else w.psi.mask,
            None if w.chi is None else w.chi.mask,
            w.detail))
        for name, w in check_rationality(rel).witnesses
    )
    assert got == ref
    assert dict(ref)["RW"] is None and dict(ref)["AND"] is None
    failures.update(name for name, w in ref if w is not None)


_BY_SIZE = pytest.mark.parametrize("sig, count", [(SIG1, 40), (SIG2, 100), (SIG3, 8)],
                                   ids=["1atom", "2atoms", "3atoms"])


class TestMatchesReference:
    def test_two_atom_rank_relations(self, ranks75):
        failures = Counter()
        for r in ranks75:
            _assert_matches_reference(ConsequenceRelation.from_rank(r), failures)
        assert not failures

    @_BY_SIZE
    def test_perturbed_rank_relations(self, sig, count):
        # one to three entries of a rank relation changed
        rng = random.Random(sig.n)
        nm = sig.universe_mask + 1
        failures = Counter()
        for _ in range(count):
            r = random_rank_function(sig, rng.randint(1, 5), rng.randrange(10**6))
            table = list(r.consequence_table())
            for _ in range(rng.randint(1, 3)):
                table[rng.randrange(nm)] = rng.randrange(nm)
            _assert_matches_reference(ConsequenceRelation(sig, table), failures)
        assert sum(failures.values()) >= count

    @_BY_SIZE
    def test_random_relations(self, sig, count):
        rng = random.Random(100 + sig.n)
        nm = sig.universe_mask + 1
        failures = Counter()
        for _ in range(count):
            table = [rng.randrange(nm) for _ in range(nm)]
            _assert_matches_reference(ConsequenceRelation(sig, table), failures)
        # each property the checker sweeps fails on at least an eighth of them
        for name in ("REF", "OR", "CM", "RM", "S", "CP"):
            assert failures[name] >= count // 8, (name, failures)
