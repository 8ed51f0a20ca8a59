"""Postulate checkers, impossibility witnesses, implication and
under-determination searches."""

import json
import random
from itertools import islice

import pytest

from rankedrev import (
    AGM_PLUS_MINIMAL_INFLUENCE,
    DomainTooLargeError,
    ImpossibilityTarget,
    PostulateId,
    PropSet,
    RankedRevision,
    Revision,
    TableRevision,
    Theory,
    Violation,
    WitnessNotFoundError,
    check_implication_9p_to_92,
    check_postulate,
    check_rationality,
    consequences_of,
    dynamic_underdetermination,
    enumerate_rank_functions,
    find_impossibility_witness,
    random_rank_function,
    relation_of_revision,
    run_suite,
    with_theory_floor,
)

from helpers import SIG1, SIG2, SIG3, SIG4, ps, th
from oracles import first_violation

DERIVED_IDS = (
    PostulateId.U8_2,
    PostulateId.P_KM1,
    PostulateId.P_K9U81,
    PostulateId.C1,
    PostulateId.C2P,
    PostulateId.C3,
    PostulateId.C4,
)


def _perturbed_table(rv, k_mask, f_mask, new_value):
    nm = rv.sig.universe_mask + 1
    cells = [rv.revise_mask(k, f) for k in range(nm) for f in range(nm)]
    cells[k_mask * nm + f_mask] = new_value
    return TableRevision(rv.sig, cells)


def _random_table(sig, rng, respect_success=False):
    nm = sig.universe_mask + 1
    cells = []
    for _ in range(nm):
        for f in range(nm):
            value = rng.randrange(nm)
            if respect_success:
                value &= f
            cells.append(value)
    return TableRevision(sig, cells)


class TestCheckPostulate:
    def test_success_postulate_holds(self, rv0):
        assert check_postulate(rv0, PostulateId.K2) is None

    def test_agm_plus_k9_all_pass(self, rv0):
        report = run_suite(rv0, AGM_PLUS_MINIMAL_INFLUENCE)
        assert report.all_pass

    def test_derived_postulates_pass(self, rv0):
        assert run_suite(rv0, DERIVED_IDS).all_pass

    def test_u8_1_fails_with_replayable_witness(self, rv0, sig2):
        v = check_postulate(rv0, PostulateId.U8_1)
        assert v is not None
        assert v.postulate is PostulateId.U8_1
        assert v.replay(rv0)
        # the classic instantiation also violates the clause: take the
        # bottom theory above Cn(!p & !q) and revise both by true
        classic = Violation(
            postulate=PostulateId.U8_1,
            k=th(sig2, "!p & !q"),
            kprime=Theory.bottom(sig2),
            phi=PropSet.full(sig2),
            observed=rv0.revise(Theory.bottom(sig2), PropSet.full(sig2)),
            required=v.required,
        )
        assert classic.replay(rv0)

    def test_c2_fails_with_replayable_witness(self, rv0, sig2):
        v = check_postulate(rv0, PostulateId.C2)
        assert v is not None
        assert v.replay(rv0)
        # revising by false then by true lands on the bottom row, away
        # from any consistent theory that is not the default closure
        classic = Violation(
            postulate=PostulateId.C2,
            k=th(sig2, "!p & !q"),
            phi=PropSet.full(sig2),
            psi=PropSet.empty(sig2),
            observed=rv0.revise(Theory.bottom(sig2), PropSet.full(sig2)),
            required=v.required,
        )
        assert classic.replay(rv0)
        k = th(sig2, "!p & !q")
        via_false = rv0.revise(rv0.revise(k, PropSet.empty(sig2)), PropSet.full(sig2))
        direct = rv0.revise(k, PropSet.full(sig2))
        assert via_false == th(sig2, "p & q")
        assert direct == k
        assert via_false != direct

    def test_gen_passes_and_example_instance(self, rv0, sig2):
        assert check_postulate(rv0, PostulateId.P_GEN) is None
        k, phi, psi = th(sig2, "!q"), ps(sig2, "q"), ps(sig2, "p")
        assert rv0.revise(k, phi).models.issubset(psi)  # psi ∈ K*phi
        assert rv0.revise(rv0.revise(k, psi), phi) == rv0.revise(k, phi)

    def test_perturbed_severe_cell_breaks_k9(self, rv0, sig2):
        # Cn(!q) revised by q is a severe cell; point it somewhere else
        broken = _perturbed_table(rv0, th(sig2, "!q").models.mask, ps(sig2, "q").mask, ps(sig2, "!p & q").mask)
        v = check_postulate(broken, PostulateId.K9)
        assert v is not None and v.replay(broken)
        # the witness pins the perturbed cell as one of the two rows
        assert ps(sig2, "q").mask == v.phi.mask
        assert th(sig2, "!q").models.mask in (v.k.models.mask, v.kprime.models.mask)

    def test_exhaustive_clause_rejected_at_four_atoms(self):
        rv = RankedRevision(random_rank_function(SIG4, 3, 1))
        with pytest.raises(DomainTooLargeError) as exc:
            check_postulate(rv, PostulateId.K7)
        assert "sampled" in str(exc.value)

    def test_sampled_mode_is_deterministic(self):
        rv = RankedRevision(random_rank_function(SIG3, 4, 9))
        a = run_suite(rv, [PostulateId.K7, PostulateId.P_GEN], mode="sampled", seed=5, samples=200)
        b = run_suite(rv, [PostulateId.K7, PostulateId.P_GEN], mode="sampled", seed=5, samples=200)
        assert json.dumps(a.to_json_records()) == json.dumps(b.to_json_records())
        assert a.all_pass

    def test_sampled_mode_requires_seed(self, rv0):
        with pytest.raises(ValueError):
            check_postulate(rv0, PostulateId.K7, mode="sampled")


def _bindings(v):
    """A violation's bindings as the oracle reports them."""
    if v is None:
        return None
    return (v.k.models.mask, v.kprime.models.mask if v.kprime is not None else 0,
            v.phi.mask, v.psi.mask if v.psi is not None else 0)


def _assert_matches_reference(rv, pids):
    for pid in pids:
        assert _bindings(check_postulate(rv, pid)) == first_violation(rv, pid), pid


class _OutOfRange(Revision):
    """A revision that returns values outside the signature's model masks
    at some cells, which only K1 rejects."""

    def __init__(self, base, cells):
        super().__init__(base.sig)
        self.base = base
        self.cells = cells

    def revise_mask(self, k_mask, f_mask):
        return self.cells.get((k_mask, f_mask), self.base.revise_mask(k_mask, f_mask))


class TestPackedKernelsMatchReference:
    """Exhaustive mode against the per-binding reference sweep: the same
    verdict and the same lexicographically first witness."""

    def test_two_atom_ranked_revisions(self, revs75):
        for rv in revs75:
            _assert_matches_reference(rv, PostulateId)

    def test_two_atom_perturbed_tables(self, revs75):
        # one to three cells changed, mostly in late rows, so that many
        # witnesses come late in the binding order
        rng = random.Random(2002)
        late = 0
        for _ in range(200):
            rv = revs75[rng.randrange(len(revs75))]
            for _ in range(rng.randint(1, 3)):
                rv = _perturbed_table(rv, rng.randrange(rng.choice((1, 8)), 16),
                                      rng.randrange(16), rng.randrange(16))
            for pid in PostulateId:
                v = check_postulate(rv, pid)
                assert _bindings(v) == first_violation(rv, pid), pid
                late += v is not None and v.k.models.mask >= 8
        assert late >= 1000

    def test_three_atom_ranked_revisions(self, sig3):
        # the clauses the reference can sweep in test time: every KF
        # clause in full, and the KKF and KFF clauses that fail early
        pids = [PostulateId[name] for name in ("K1", "K2", "K3", "K4", "K5", "K6",
                                               "K9_1", "K9_2", "U8", "U8_1", "C2")]
        for index in (0, 4321):
            rank = next(islice(enumerate_rank_functions(sig3), index, None))
            _assert_matches_reference(RankedRevision(rank), pids)

    def test_three_atom_late_witnesses(self, sig3):
        rank = next(islice(enumerate_rank_functions(sig3), 4321, None))
        rv = _perturbed_table(RankedRevision(rank), 1, 200, 8)
        compared = 0
        for pid in PostulateId:
            v = check_postulate(rv, pid)
            if v is not None and v.k.models.mask <= 1:
                # the reference reaches these within two values of K
                assert _bindings(v) == first_violation(rv, pid), pid
                compared += 1
        assert compared >= 12

    @pytest.mark.parametrize("sig, cells", [
        (SIG2, {(3, 5): -1, (7, 2): 16, (9, 9): 300}),
        (SIG3, {(200, 17): 256, (201, 3): -7}),
    ])
    def test_cells_outside_the_signature(self, sig, cells):
        rv = _OutOfRange(RankedRevision(random_rank_function(sig, 3, 1)), cells)
        v = check_postulate(rv, PostulateId.K1)
        assert _bindings(v) == first_violation(rv, PostulateId.K1)
        assert v.observed is None and v.replay(rv)
        assert "observed=not a theory over the signature" in v.describe()
        if sig.n == 2:
            run_suite(rv, PostulateId)


class TestSuiteReport:
    def test_text_lists_every_requested_postulate(self, rv0):
        report = run_suite(rv0, AGM_PLUS_MINIMAL_INFLUENCE)
        text = report.to_text()
        for i in range(1, 10):
            assert f"K{i} pass" in text

    def test_json_schema(self, rv0):
        report = run_suite(rv0, [PostulateId.K2, PostulateId.U8_1])
        records = report.to_json_records()
        assert [r["postulate"] for r in records] == ["K2", "U8_1"]
        assert records[0]["verdict"] == "pass"
        assert "witness" not in records[0]
        assert records[1]["verdict"] == "fail"
        witness = records[1]["witness"]
        assert set(witness) == {"K", "Kprime", "phi", "observed", "required"}
        assert records[0]["mode"] == "exhaustive"

    def test_violations_property(self, rv0):
        report = run_suite(rv0, [PostulateId.U8, PostulateId.K2])
        assert not report.all_pass
        assert [v.postulate for v in report.violations] == [PostulateId.U8]


class TestViolationSoundness:
    def test_every_returned_violation_replays(self, rv0, sig2):
        # break single cells at random and confirm any reported violation
        # reproduces on replay, across all postulates
        rng = random.Random(7)
        for trial in range(15):
            broken = _perturbed_table(
                rv0, rng.randrange(16), rng.randrange(16), rng.randrange(16)
            )
            for pid in PostulateId:
                v = check_postulate(broken, pid)
                if v is not None:
                    assert v.replay(broken), (trial, pid)

    def test_describe_names_all_bindings(self, rv0):
        v = check_postulate(rv0, PostulateId.U8_1)
        text = v.describe()
        for key in ("K=", "Kprime=", "phi=", "observed=", "required="):
            assert key in text


class TestImplication9pTo92:
    def test_holds_on_ranked_revisions(self, revs75):
        for rv in revs75:
            assert check_implication_9p_to_92(rv) is None

    def test_vacuous_when_success_fails(self, rv0, sig2):
        # point a cell outside phi so K2 fails; conditional holds vacuously
        broken = _perturbed_table(rv0, 0, ps(sig2, "q").mask, ps(sig2, "!q").mask)
        assert check_postulate(broken, PostulateId.K2) is not None
        assert check_implication_9p_to_92(broken) is None

    def test_holds_on_random_tables(self, sig2):
        rng = random.Random(123)
        for i in range(60):
            rv = _random_table(sig2, rng, respect_success=bool(i % 2))
            assert check_implication_9p_to_92(rv) is None


class TestImpossibilityWitness:
    def test_u8_1_witness_matches_classic_bindings(self, rv0, sig2):
        v = find_impossibility_witness(rv0, ImpossibilityTarget.U8_1_VS_K4K5)
        assert v.postulate is PostulateId.U8_1
        assert v.k == th(sig2, "!p & !q")
        assert v.kprime == Theory.bottom(sig2)
        assert v.phi == PropSet.full(sig2)
        assert v.replay(rv0)

    def test_c2_witness_matches_classic_bindings(self, rv0, sig2):
        v = find_impossibility_witness(rv0, "C2_vs_K1K4")
        assert v.postulate is PostulateId.C2
        assert v.k == th(sig2, "!p & !q")
        assert v.phi == PropSet.full(sig2)
        assert v.psi == PropSet.empty(sig2)
        assert v.replay(rv0)

    def test_preconditions_enforced(self, rv0, sig2):
        # break K4 on a mild cell: Cn(p) revised by true must keep p
        broken = _perturbed_table(
            rv0, ps(sig2, "p").mask, PropSet.full(sig2).mask, PropSet.full(sig2).mask
        )
        with pytest.raises(ValueError):
            find_impossibility_witness(broken, ImpossibilityTarget.U8_1_VS_K4K5)


class TestDynamicUnderdetermination:
    def test_witness_for_conjunction_anchor(self, sig2):
        k = th(sig2, "p & q")
        w = dynamic_underdetermination(sig2, k)
        rv1, rv2 = RankedRevision(w.first), RankedRevision(w.second)
        # identical rows at the anchor
        for fm in range(16):
            assert rv1.revise_mask(k.models.mask, fm) == rv2.revise_mask(
                k.models.mask, fm
            )
        # divergence one step later
        t = rv1.revise_mask(k.models.mask, w.psi.mask)
        assert rv1.revise_mask(t, w.phi.mask) != rv2.revise_mask(t, w.phi.mask)

    def test_full_universe_anchor_golden(self, sig2):
        w = dynamic_underdetermination(sig2, Theory.top(sig2))
        assert w.first.ranks == (0, 0, 0, 0)
        assert w.second.ranks == (0, 0, 0, 1)
        assert w.psi == PropSet.empty(sig2)
        assert w.phi == ps(sig2, "p <-> q")

    def test_bottom_anchor_determines_everything(self, sig2):
        with pytest.raises(WitnessNotFoundError):
            dynamic_underdetermination(sig2, Theory.bottom(sig2))

    def test_only_two_atoms_supported(self):
        with pytest.raises(DomainTooLargeError):
            dynamic_underdetermination(SIG3, Theory.bottom(SIG3))


class TestAssortedLaws:
    def test_revising_by_true_weakens_consistent_theories(self, revs75, sig2):
        # K*true ⊆ K whenever K is consistent, at one and two atoms
        uni = sig2.universe_mask
        for rv in revs75:
            for km in range(1, 16):
                assert (km | rv.revise_mask(km, uni)) == rv.revise_mask(km, uni)
        for r in enumerate_rank_functions(SIG1):
            rv = RankedRevision(r)
            for km in range(1, 4):
                assert (km | rv.revise_mask(km, 3)) == rv.revise_mask(km, 3)

    def test_mild_u8_on_running_example(self, rv0):
        assert check_postulate(rv0, PostulateId.P_KM1) is None

    def test_severe_u8_on_running_example(self, rv0):
        assert check_postulate(rv0, PostulateId.P_K9U81) is None

    def test_u8_equivalent_to_its_halves(self, rv0, sig2):
        # the update postulate splits into monotonicity plus the reverse
        # inclusion: a revision satisfies U8 exactly when it satisfies
        # both U8_1 and U8_2
        rng = random.Random(99)
        candidates = [rv0]
        for i in range(40):
            candidates.append(_random_table(sig2, rng, respect_success=bool(i % 2)))
        for rv in candidates:
            whole = check_postulate(rv, PostulateId.U8) is None
            halves = (
                check_postulate(rv, PostulateId.U8_1) is None
                and check_postulate(rv, PostulateId.U8_2) is None
            )
            assert whole == halves


class TestRelationOfAnyAgmRevision:
    def test_non_minimal_influence_revision_still_gives_rational_rows(
        self, ranks75, sig2
    ):
        """A revision whose severe behavior varies with the theory (so K9
        fails) still induces a rational, consistency-preserving relation
        from every base theory, as long as K1-K8 hold."""

        def row_value(km, fm):
            # each theory row gets its own rank function, floored at the row
            base = ranks75[km % len(ranks75)]
            floored = with_theory_floor(base, Theory(PropSet(sig2, km)))
            return consequences_of(floored, PropSet(sig2, fm)).models.mask

        rv = TableRevision.from_function(sig2, row_value)
        for i in range(1, 9):
            assert check_postulate(rv, PostulateId[f"K{i}"]) is None
        assert check_postulate(rv, PostulateId.K9) is not None
        for km in range(16):
            rel = relation_of_revision(rv, Theory(PropSet(sig2, km)))
            assert check_rationality(rel).all_pass
