"""Postulate checkers, impossibility witnesses, implication and
under-determination searches."""

import functools
import hashlib
import json
import random
import tracemalloc
from collections import Counter
from itertools import chain, islice, product

import pytest

from rankedrev import postulates
from rankedrev.revision import _ExpandOrRow

from rankedrev import (
    AGM_PLUS_MINIMAL_INFLUENCE,
    ConsequenceRelation,
    DomainTooLargeError,
    ImpossibilityTarget,
    PostulateId,
    PropSet,
    RankFunction,
    RankedRevision,
    Revision,
    SamplingError,
    Signature,
    SignatureError,
    SuiteReport,
    TableRevision,
    Theory,
    Violation,
    WitnessNotFoundError,
    check_implication_9p_to_92,
    check_postulate,
    check_rationality,
    consequences_of,
    conservative_extension,
    dynamic_underdetermination,
    enumerate_rank_functions,
    find_impossibility_witness,
    random_rank_function,
    relation_of_revision,
    revision_of_relation,
    run_suite,
    sweep_orbits,
    with_theory_floor,
)

from helpers import SIG1, SIG2, SIG3, SIG4, SIG5, SIG16, OutOfRange, ps, run_capped, th
from oracles import (
    HOLDS,
    dynamic_underdetermination_reference,
    first_violation,
    kff_pass_reference,
    replay_reference,
    sampled_reference,
)

KF_IDS = [pid for pid, clause in postulates._CLAUSES.items() if clause.shape == "KF"]
# the clauses that read rev(rev(K, psi), phi), which the reference reads
# from the table, so that a cell outside the signature cannot index a row
ITERATED = [PostulateId[name] for name in ("C1", "C2", "C2P", "C3", "C4",
                                           "P_PHIANDPSI", "P_PSI", "P_GEN")]

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

    @pytest.mark.parametrize("sig", [SIG2, SIG4], ids=["2atoms", "4atoms"])
    @pytest.mark.parametrize("kwargs", [dict(), dict(mode="sampled", seed=1)],
                             ids=["exhaustive", "sampled"])
    def test_id_that_is_not_a_postulate_raises(self, sig, kwargs):
        # the same ValueError as run_suite, before any clause reads the
        # revision, also at a size exhaustive mode refuses
        for pid, named in (("K9", "'K9'"), (9, "9"), (None, "None")):
            with pytest.raises(ValueError, match=f"PostulateId members, got {named}$"):
                check_postulate(_Untouchable(sig), pid, **kwargs)


def _bindings(v):
    """A violation's bindings as the oracle reports them."""
    if v is None:
        return None
    return (v.k.models.mask, v.kprime.models.mask if v.kprime is not None else 0,
            v.phi.mask, v.psi.mask if v.psi is not None else 0)


def _assert_matches_reference(rv, pids):
    for pid in pids:
        assert _bindings(check_postulate(rv, pid)) == first_violation(rv, pid), pid


class TestPackedKernelsMatchReference:
    """Exhaustive mode, the lane forms and the fused KFF pass, against the
    per-binding reference sweep: the same verdict and the same
    lexicographically first witness."""

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

    def test_three_atom_kf_late_witnesses(self):
        # every KF clause holds on a ranked table, so each witness is a
        # changed cell at K >= 128
        late = 0
        for rv in _late_three_atom_tables(3, 808):
            report = run_suite(rv, KF_IDS)
            for pid in KF_IDS:
                want = first_violation(rv, pid)
                assert _bindings(report.verdict(pid)) == want, pid
                late += want is not None and want[0] >= 128
        assert late >= 6, late

    @pytest.mark.parametrize("sig, cells", [
        (SIG2, {(3, 5): -1, (7, 2): 16, (9, 9): 300}),
        (SIG3, {(200, 17): 256, (201, 3): -7}),
        (SIG1, {(1, 2): -1, (3, 1): 4, (2, 3): 300}),  # fewer bindings than a block
    ])
    def test_cells_outside_the_signature(self, sig, cells):
        rv = OutOfRange(RankedRevision(random_rank_function(sig, min(3, sig.num_valuations), 1)),
                        cells)
        v = check_postulate(rv, PostulateId.K1)
        assert _bindings(v) == first_violation(rv, PostulateId.K1)
        assert v.observed is None and v.replay(rv)
        assert "observed=not a theory over the signature" in v.describe()
        # the reference reads the table, where a cell past the masks cannot
        # index a row, so it checks every clause but the iterated ones up to
        # 2 atoms, and the KF clauses, which it sweeps in test time, at 3
        ids = [pid for pid in (PostulateId if sig.n <= 2 else KF_IDS) if pid not in ITERATED]
        report = run_suite(rv, PostulateId if sig.n <= 2 else KF_IDS)
        for pid in ids:
            assert _bindings(report.verdict(pid)) == first_violation(rv, pid), pid
        if sig.n <= 2:
            for pid in PostulateId:
                assert _bindings(check_postulate(rv, pid)) == _bindings(report.verdict(pid)), pid
        assert len(report.violations) >= (4 if sig.n == 3 else 13)
        for v in report.violations:
            assert v.replay(rv) and replay_reference(v, rv), v.describe()


def _perturbed_revisions(revs75, count, seed):
    """Seeded two-atom tables with one to three cells changed, mostly in
    late rows, drawn as in TestPackedKernelsMatchReference."""
    rng = random.Random(seed)
    for _ in range(count):
        rv = revs75[rng.randrange(len(revs75))]
        for _ in range(rng.randint(1, 3)):
            rv = _perturbed_table(rv, rng.randrange(rng.choice((1, 8)), 16),
                                  rng.randrange(16), rng.randrange(16))
        yield rv


class TestPackedKernelSweep:
    def test_one_packed_table_per_revision(self, monkeypatch):
        built = []

        class Counting(postulates._Packed):
            def __init__(self, rows):
                built.append(self)
                super().__init__(rows)

        monkeypatch.setattr(postulates, "_Packed", Counting)
        first, second = (RankedRevision(r) for r in islice(enumerate_rank_functions(SIG2), 2))
        for rv in (first, second, first):
            run_suite(rv, PostulateId)
        assert built == [first._packed, second._packed]
        assert first._packed is not second._packed
        for rv in (first, second):
            assert rv._packed.rows == [bytes(row) for row in rv.table()]


def _byte_row_revisions(sig):
    """One revision of each kind whose rows _packed reads. OutOfRange
    with no cells only gives revise_mask; the other OutOfRange sources
    give cells outside 0..255 or, below 3 atoms, a byte that is not a
    model mask."""
    nm = sig.universe_mask + 1
    rank = random_rank_function(sig, 3, 5)
    ranked = RankedRevision(rank)
    anchor = Theory(PropSet(sig, sig.universe_mask // 3))
    am = anchor.models.mask
    return {
        "ranked": ranked,
        "conservative": conservative_extension(ranked, th(sig, "p")),
        "conservative_out_of_range": conservative_extension(
            OutOfRange(ranked, {(am, 2): -1, (am, nm - 1): 300}), anchor),
        "conservative_past_the_masks": conservative_extension(
            OutOfRange(ranked, {(am, 2): nm}), anchor),
        "table": _perturbed_table(ranked, nm - 1, 1, 0),
        "relation": revision_of_relation(ConsequenceRelation.from_rank(rank)),
        "revise_mask_only": OutOfRange(ranked, {}),
        "revise_mask_only_out_of_range": OutOfRange(ranked, {(1, 1): -1, (nm - 1, 0): nm}),
    }


class TestByteRows:
    """Every row of a revision's table(), which _packed reads, has the
    cells revise_mask gives one by one; the table packs into those rows
    exactly when every cell is a model mask over the signature."""

    @pytest.mark.parametrize("sig", [SIG1, SIG2, SIG3], ids=["1atom", "2atoms", "3atoms"])
    def test_packed_from_rows_matches_packed_from_table(self, sig):
        uni = sig.universe_mask
        cells = range(uni + 1)
        unpacked = set()
        for kind, rv in _byte_row_revisions(sig).items():
            got = postulates._packed(rv)
            table = tuple(tuple(rv.revise_mask(k, f) for f in cells) for k in cells)
            assert tuple(map(tuple, rv.table())) == table, kind
            if all(0 <= c <= uni for row in table for c in row):
                assert got.rows == [bytes(row) for row in table], kind
                assert got.P == [int.from_bytes(bytes(row), "little") for row in table], kind
            else:
                assert got is False, kind
                unpacked.add(kind)
        assert unpacked == {"conservative_out_of_range", "conservative_past_the_masks",
                            "revise_mask_only_out_of_range"}

    def test_run_suite_builds_rows_once_and_no_tuple_table(self, monkeypatch):
        built = []
        tabulate = RankedRevision._tabulate
        monkeypatch.setattr(RankedRevision, "_tabulate",
                            lambda rv: built.append("rows") or tabulate(rv))
        for sig in (SIG2, SIG3):
            rv = RankedRevision(random_rank_function(sig, 3, 7))
            for _ in range(2):
                run_suite(rv, PostulateId)
            assert built == ["rows"]
            # table() hands out the byte rows the suite read, not a copy
            assert all(type(row) is bytes for row in rv.table())
            assert built == ["rows"]
            built.clear()


KFF = tuple(pid for pid, clause in postulates._CLAUSES.items() if clause.shape == "KFF")


def _suite_matches_reference(rv):
    """Exhaustive run_suite against first_violation, clause by clause;
    returns the KFF clauses' witnesses."""
    report = run_suite(rv, PostulateId)
    for pid in PostulateId:
        assert _bindings(report.verdict(pid)) == first_violation(rv, pid), pid
    return {pid: _bindings(report.verdict(pid)) for pid in KFF}


class TestFusedKffPass:
    """The eleven KFF clauses share one sweep over blocks of (K, phi, psi)
    in exhaustive run_suite; each still gets its own lexicographically
    first witness."""

    def test_eleven_clauses(self):
        assert [pid.name for pid in KFF] == [
            "K7", "K8", "K9_2P", "C1", "C2", "C2P", "C3", "C4",
            "P_PHIANDPSI", "P_PSI", "P_GEN"]

    def test_two_atom_ranked_revisions(self, revs75):
        for rv in revs75:
            _suite_matches_reference(rv)

    def test_two_atom_perturbed_tables(self, revs75):
        # the tables of TestPackedKernelsMatchReference, where several KFF
        # clauses fail in one table, at the same (K, phi) or at different ones
        apart = together = 0
        for rv in _perturbed_revisions(revs75, 200, 2002):
            outer = [hit[:3] for hit in _suite_matches_reference(rv).values() if hit]
            apart += len(set(outer)) > 1
            together += len(set(outer)) < len(outer)
        assert apart >= 100 and together >= 100, (apart, together)

    def test_three_atom_late_witnesses(self, sig3):
        rank = next(islice(enumerate_rank_functions(sig3), 4321, None))
        rv = _perturbed_table(RankedRevision(rank), 1, 200, 8)
        report = run_suite(rv, PostulateId)
        compared = 0
        for pid in KFF:
            v = report.verdict(pid)
            if v is not None and v.k.models.mask <= 1:
                # the reference reaches these within two values of K
                assert _bindings(v) == first_violation(rv, pid), pid
                compared += 1
        assert compared >= 10

    def test_check_postulate_is_the_pass_over_one_clause(self, revs75):
        for rv in [*revs75[::7], *_perturbed_revisions(revs75, 40, 2002)]:
            report = run_suite(rv, PostulateId)
            for pid in KFF:
                assert _bindings(check_postulate(rv, pid)) == _bindings(report.verdict(pid))

    @pytest.mark.parametrize("ids", [
        list(PostulateId), KFF, KFF[:1], KFF[3:], (PostulateId.K7, PostulateId.P_PHIANDPSI)],
        ids=["all", "kff", "k7", "iterated", "conj"])
    def test_shared_vectors_once_per_binding(self, monkeypatch, ids):
        # the sweep builds its columns once per block of K: the iterated and
        # the conjoined column each at most once, and only while a clause
        # that reads it has not failed. A block holds every K at 2 atoms and
        # one K at 3 atoms, where every clause fails by K = 1 on the
        # perturbed table, so the sweep stops there
        calls = Counter()

        class Counting(postulates._Cube):
            @functools.cached_property
            def iterated(self):
                calls["iterated", self.ks.start] += 1
                return super().iterated

            @functools.cached_property
            def conj(self):
                calls["conj", self.ks.start] += 1
                return super().conj

        monkeypatch.setattr(postulates, "_Cube", Counting)
        readers = {"iterated": set(KFF[3:]), "conj": {PostulateId.K7, PostulateId.K8,
                                                      PostulateId.P_PHIANDPSI}}
        ranks = list(islice(enumerate_rank_functions(SIG2), 0, 75, 15))
        rank3 = random_rank_function(SIG3, 3, 20)
        # ranked tables, and perturbed ones where clauses drop out mid-pass
        for rv in [*map(RankedRevision, ranks),
                   *(_perturbed_table(RankedRevision(r), 3, 6, 9) for r in ranks),
                   _perturbed_table(RankedRevision(rank3), 1, 200, 8)]:
            calls.clear()
            report = run_suite(rv, ids)
            assert calls and max(calls.values()) == 1, calls.most_common(1)
            step = 16 if rv.sig is SIG2 else 1
            for kind, reading in readers.items():
                # built from K = 0 to the block of the last K at which a
                # reader is live
                last = [v.k.models.mask if v else rv.sig.universe_mask
                        for pid, v in report.results if pid in reading]
                built = sorted(K for k, K in calls if k == kind)
                assert built == (list(range(0, max(last) + 1, step)) if last else []), kind


def _late_three_atom_tables(count, seed):
    """Seeded 3-atom ranked tables with one to three cells changed at
    K >= 128 and phi >= 192, so most KFF clauses first fail late."""
    rng = random.Random(seed)
    for _ in range(count):
        rv = RankedRevision(random_rank_function(SIG3, rng.randint(2, 8), rng.randrange(999)))
        for _ in range(rng.randint(1, 3)):
            rv = _perturbed_table(rv, rng.randrange(128, 256), rng.randrange(192, 256),
                                  rng.randrange(256))
        yield rv


def _kff_witnesses(rv, pids):
    """Exhaustive run_suite's first failures of the KFF clauses in pids,
    in the form of kff_pass_reference."""
    report = run_suite(rv, pids)
    return {pid: _bindings(v) for pid, v in report.results if v is not None}


class TestKffPassMatchesReference:
    """Exhaustive run_suite and check_postulate on the KFF clauses against
    the reference pass one (K, phi) at a time: the same first failures for
    the eleven clauses together and for each clause alone."""

    def test_two_atom_tables(self, revs75):
        for rv in [*revs75, *_perturbed_revisions(revs75, 200, 2002)]:
            t = postulates._packed(rv)
            assert _kff_witnesses(rv, KFF) == kff_pass_reference(t, KFF)
            for pid in KFF:
                alone = kff_pass_reference(t, [pid]).get(pid)
                assert _bindings(check_postulate(rv, pid)) == alone, pid

    def test_three_atom_late_witnesses(self):
        late = 0
        for rv in _late_three_atom_tables(3, 707):
            expected = kff_pass_reference(postulates._packed(rv), KFF)
            assert _kff_witnesses(rv, KFF) == expected
            for pid in KFF:
                assert _bindings(check_postulate(rv, pid)) == expected.get(pid), pid
            late += sum(K >= 128 and max(phi, psi) >= 192
                        for K, _, phi, psi in expected.values())
        assert late >= 24, late

    def test_pairs_built_only_for_packed_tables(self, revs75):
        # the blocks over pairs serve exhaustive checks of a packed table
        # that a decider does not settle; sampled mode and tables with a
        # cell outside the signature check on lanes of their own
        postulates._pairs.cache_clear()
        rv = RankedRevision(revs75[40].rank)  # with no blocks kept from other tests
        run_suite(rv, [PostulateId.K9, PostulateId.U8_2, PostulateId.P_KM1])
        run_suite(rv, PostulateId, mode="sampled", seed=1, samples=50)
        run_suite(OutOfRange(rv, {(3, 5): -1}), PostulateId)
        assert postulates._pairs.cache_info().currsize == 0
        run_suite(rv, [PostulateId.K2])
        assert postulates._pairs.cache_info().currsize == 1


class TestOrbitSweep:
    """Weighting one representative per orbit counts the clauses' failures
    over every rank function."""

    @pytest.mark.parametrize("sig", [SIG1, SIG2], ids=["1atom", "2atoms"])
    def test_weighted_counts_equal_brute_force(self, sig):
        brute, weighted = Counter(), Counter()
        for rank in enumerate_rank_functions(sig):
            brute.update(pid for pid, v in run_suite(RankedRevision(rank), PostulateId).results
                         if v is not None)
        for rank, weight in sweep_orbits(sig):
            for pid, v in run_suite(RankedRevision(rank), PostulateId).results:
                weighted[pid] += weight if v is not None else 0
        for pid in PostulateId:
            assert weighted[pid] == brute[pid], pid

    def test_one_verdict_vector_per_orbit(self, revs75):
        def verdicts(rv):
            return tuple(v is None for _, v in run_suite(rv, PostulateId).results)

        def sizes(rank):
            return tuple(rank.ranks.count(l) for l in range(rank.height + 1))

        expected = {sizes(r): verdicts(RankedRevision(r)) for r, _ in sweep_orbits(SIG2)}
        for rv in revs75:
            assert verdicts(rv) == expected[sizes(rv.rank)]


# the clauses that hold on every expand-or-row table, whatever its row ⊥
BY_CONSTRUCTION = tuple(PostulateId[name] for name in ("K9", "K9_1", "K9_2", "K9_2P",
                                                       "U8_2", "P_KM1", "P_K9U81"))
KKF_IDS = [pid for pid, clause in postulates._CLAUSES.items() if clause.shape == "KKF"]


def _union_homomorphic(sig, rng):
    """f(K, phi) = f0(phi) | OR over v ∈ K of img_v(phi), with random f0
    and img_v: U8 holds, so U8_2, P_KM1 and P_K9U81 hold too."""
    nm = sig.universe_mask + 1
    f0 = [rng.randrange(nm) if rng.random() < 0.5 else 0 for _ in range(nm)]
    img = [[rng.randrange(nm) for _ in range(nm)] for _ in range(sig.num_valuations)]

    def cell(k, f):
        out = f0[f]
        for v, row in enumerate(img):
            if k >> v & 1:
                out |= row[f]
        return out
    return TableRevision.from_function(sig, cell)


def _expand_or_row(sig, row):
    """The revision that expands where K ∧ phi is consistent and
    otherwise answers row[phi]."""
    return _ExpandOrRow(sig, functools.partial(tuple, row))


def _lane_sweep(rv, pids):
    """The first failure of each clause in pids by its lane form over
    every binding of the packed table, none left out for the table's
    shape; TestPackedKernelsMatchReference checks these sweeps against
    first_violation at sizes where that is fast."""
    t = postulates._packed(rv)
    blocks = {"KF": lambda: [{"KF": postulates._Rows(t)}],
              "KKF": lambda: ({"KKF": postulates._Rows(t, K)} for K in range(t.nmasks)),
              "KFF": lambda: postulates._cubes(t)}
    hits = {}
    for shape, make in blocks.items():
        hits.update(postulates._run(
            [pid for pid in pids if postulates._CLAUSES[pid].shape == shape], make()))
    return hits


def _kkf_verdicts(rv):
    """Every KKF clause by check_postulate against the per-binding
    reference: the same first witness. Returns name -> holds."""
    verdicts = {}
    for pid in KKF_IDS:
        expected = first_violation(rv, pid)
        assert _bindings(check_postulate(rv, pid)) == expected, pid
        verdicts[pid.name] = expected is None
    return verdicts


class TestDeciders:
    """What settles a clause without a sweep: on an expand-or-row table
    the clauses of _EXPAND_OR_ROW_HOLDS hold whatever row ⊥ is, and on
    every other table they are swept. The KKF clauses, most of them in
    that set, against the per-binding reference: the same verdict and
    the same first witness."""

    def test_skipped_set(self):
        assert postulates._EXPAND_OR_ROW_HOLDS == set(BY_CONSTRUCTION)

    @pytest.mark.parametrize("sig", [SIG1, SIG2], ids=["1atom", "2atoms"])
    def test_expand_or_row_tables_hold_the_skipped_clauses(self, sig):
        # rows of any cells, so that most are not within phi and other
        # clauses fail: every row at one atom, random rows at two
        nm = sig.universe_mask + 1
        rng = random.Random(4040)
        rows = (product(range(nm), repeat=nm) if sig is SIG1
                else ([rng.randrange(nm) for _ in range(nm)] for _ in range(24)))
        failing = 0
        for row in rows:
            rv = _expand_or_row(sig, row)
            assert postulates._packed(rv).expand_or_row
            for pid in BY_CONSTRUCTION:
                assert first_violation(rv, pid) is None, pid
            failing += first_violation(rv, PostulateId.K2) is not None
        assert failing >= (200 if sig is SIG1 else 20), failing

    def test_expand_or_row_tables_at_three_atoms(self):
        # first_violation would take 16.7M bindings per clause here, so the
        # clauses are swept on their lane forms with nothing skipped
        rng = random.Random(4041)
        for within in (False, True):
            row = [rng.randrange(256) & (f if within else 255) for f in range(256)]
            rv = _expand_or_row(SIG3, row)
            assert postulates._packed(rv).expand_or_row
            assert _lane_sweep(rv, BY_CONSTRUCTION) == {}
            assert (check_postulate(rv, PostulateId.K2) is None) == within

    def test_expand_or_row_check(self, revs75, sig3):
        rank = next(islice(enumerate_rank_functions(sig3), 4321, None))
        for ranked in (revs75[40], RankedRevision(rank)):
            sig = ranked.sig
            base = th(sig, "p & !q")
            same = (ranked, revision_of_relation(relation_of_revision(ranked, base)),
                    conservative_extension(ranked, base),
                    conservative_extension(_random_table(sig, random.Random(7)), base),
                    _perturbed_table(ranked, 3, 5, ranked.revise_mask(3, 5)))
            for rv in same:
                assert postulates._packed(rv).expand_or_row
            # a mild cell, a severe cell and a cell of row ⊥ that a severe
            # cell of another row repeats
            for K, phi in ((3, 5), (1, 2), (0, 1)):
                changed = _perturbed_table(ranked, K, phi, ranked.revise_mask(K, phi) ^ 1)
                assert not postulates._packed(changed).expand_or_row, (K, phi)

    def test_perturbed_table_sweeps_the_skipped_clauses(self, revs75, monkeypatch):
        swept = []
        run = postulates._run

        def counting(pids, blocks):
            swept.extend(pids)
            return run(pids, blocks)

        monkeypatch.setattr(postulates, "_run", counting)
        for rv in revs75[::15]:
            swept.clear()
            assert run_suite(rv, BY_CONSTRUCTION).all_pass
            assert swept == []
            changed = _perturbed_table(rv, 5, 2, rv.revise_mask(5, 2) ^ 2)
            report = run_suite(changed, BY_CONSTRUCTION)
            assert len(swept) == len(set(swept)) == len(BY_CONSTRUCTION)
            assert set(swept) == set(BY_CONSTRUCTION)
            for pid in BY_CONSTRUCTION:
                assert _bindings(report.verdict(pid)) == first_violation(changed, pid), pid
            assert not report.all_pass

    def test_two_atom_ranked_revisions(self, revs75):
        for rv in revs75:
            assert postulates._packed(rv).expand_or_row
            assert _kkf_verdicts(rv) == {"K9": True, "U8": False, "U8_1": False, "U8_2": True,
                                         "P_KM1": True, "P_K9U81": True}

    @pytest.mark.parametrize("sig", [SIG1, SIG2], ids=["1atom", "2atoms"])
    def test_perturbed_and_random_tables(self, sig, revs75):
        rng = random.Random(4004)
        ranked = revs75 if sig is SIG2 else [RankedRevision(r)
                                             for r in enumerate_rank_functions(sig)]
        nm = sig.universe_mask + 1
        passes = dict.fromkeys((pid.name for pid in KKF_IDS), 0)
        for _ in range(150):
            rv = ranked[rng.randrange(len(ranked))]
            for _ in range(rng.randint(1, 3)):
                rv = _perturbed_table(rv, rng.randrange(nm), rng.randrange(nm),
                                      rng.randrange(nm))
            for tables in (rv, _random_table(sig, rng)):
                for name, holds in _kkf_verdicts(tables).items():
                    passes[name] += holds
        # every clause fails somewhere, and all but U8 and U8_1 also hold
        # somewhere; they hold on the union-homomorphic tables below
        assert all(n < 300 for n in passes.values()), passes
        assert all(n > 0 for name, n in passes.items() if name not in ("U8", "U8_1")), passes

    @pytest.mark.parametrize("sig", [SIG1, SIG2], ids=["1atom", "2atoms"])
    def test_union_homomorphic_tables(self, sig):
        rng = random.Random(5005)
        nm = sig.universe_mask + 1
        passes = dict.fromkeys((pid.name for pid in KKF_IDS), 0)
        for _ in range(100):
            rv = _union_homomorphic(sig, rng)
            assert {k: v for k, v in _kkf_verdicts(rv).items() if k != "K9"} == {
                "U8": True, "U8_1": True, "U8_2": True, "P_KM1": True, "P_K9U81": True}
            # one changed cell breaks some of them and keeps others
            rv = _perturbed_table(rv, rng.randrange(nm), rng.randrange(nm),
                                  rng.randrange(nm))
            for name, holds in _kkf_verdicts(rv).items():
                passes[name] += holds
        assert all(0 < n < 100 for name, n in passes.items() if name != "K9"), passes

    def test_three_atom_union_homomorphic_tables(self):
        # not expand-or-row, so every clause is swept; a passing clause
        # costs first_violation 16.7M bindings at three atoms, so only the
        # failing K9 is compared with it
        rng = random.Random(6006)
        for _ in range(2):
            rv = _union_homomorphic(SIG3, rng)
            assert not postulates._packed(rv).expand_or_row
            report = run_suite(rv, KKF_IDS)
            assert [pid.name for pid in KKF_IDS if report.verdict(pid) is not None] == ["K9"]
            v = check_postulate(rv, PostulateId.K9)
            assert _bindings(v) == first_violation(rv, PostulateId.K9)

    @pytest.mark.parametrize("name, phi", [
        ("U8", 0), ("U8_2", 5), ("P_KM1", 3), ("P_K9U81", 4)])
    def test_three_atom_witness_past_the_first_theory(self, name, phi):
        # one extra model in (K ∩ K')*phi at K = {0}, K' = {1}: the first
        # witness is (1, 2, phi), after the whole K = 0 block
        rng = random.Random(7007)
        base = _union_homomorphic(SIG3, rng)
        while base.revise_mask(3, phi) == SIG3.universe_mask:
            base = _union_homomorphic(SIG3, rng)
        cell = base.revise_mask(3, phi)
        extra = next(1 << w for w in range(8) if not cell >> w & 1)
        rv = _perturbed_table(base, 3, phi, cell | extra)
        pid = PostulateId[name]
        v = check_postulate(rv, pid)
        assert _bindings(v) == first_violation(rv, pid) == (1, 2, phi, 0)

    def test_three_atom_k9_witness_late_in_k_prime(self, sig3):
        rank = next(islice(enumerate_rank_functions(sig3), 4321, None))
        rv = RankedRevision(rank)
        rv = _perturbed_table(rv, 96, 1, rv.revise_mask(96, 1) ^ 1)
        assert not postulates._packed(rv).expand_or_row
        v = check_postulate(rv, PostulateId.K9)
        assert _bindings(v) == first_violation(rv, PostulateId.K9) == (0, 96, 1, 0)

    def test_no_sweep_where_a_decider_proves_the_clause(self, revs75, monkeypatch):
        # on a ranked table every clause but the skipped ones is located
        # exactly once, by one sweep of the lane forms per shape, KF, KKF
        # and KFF; the preconditions of the implication and of the
        # impossibility witnesses are checked in one such pass
        swept, sweeps = [], []
        run = postulates._run

        def counting(pids, blocks):
            sweeps.append({postulates._CLAUSES[pid].shape for pid in pids})
            swept.extend(pids)
            return run(pids, blocks)

        monkeypatch.setattr(postulates, "_run", counting)
        for rv in revs75[::5]:
            swept.clear()
            sweeps.clear()
            report = run_suite(rv, PostulateId)
            assert sweeps == [{"KF"}, {"KKF"}, {"KFF"}]
            assert set(swept) == set(PostulateId) - set(BY_CONSTRUCTION)
            assert len(set(swept)) == len(swept)
            assert all(report.verdict(pid) is None for pid in BY_CONSTRUCTION)
            for search, pids in ((check_implication_9p_to_92, ["K1", "K2"]),
                                 (lambda rv: find_impossibility_witness(rv, "C2_vs_K1K4"),
                                  ["K1", "K2", "K3", "K4"])):
                swept.clear()
                sweeps.clear()
                search(rv)
                assert sweeps == [{"KF"}, set(), set()]
                assert swept == [PostulateId[name] for name in pids]

    @pytest.mark.parametrize("sig", [SIG2, SIG3], ids=["2atoms", "3atoms"])
    def test_exhaustive_mode_runs_the_lane_forms(self, sig, monkeypatch):
        # a KF form, the form of a KKF clause that a ranked table does not
        # skip, and two KFF forms, that fail on every lane: exhaustive mode
        # reports them at the first binding, so it reads no other statement
        rv = RankedRevision(random_rank_function(sig, 3, 2))
        pids = [PostulateId[name] for name in ("K2", "U8_1", "K7", "C2P")]
        for pid in pids:
            assert pid is PostulateId.U8_1 or check_postulate(rv, pid) is None, pid
            monkeypatch.setitem(postulates._LANE_FAILS, pid.name, lambda b: b.high)
        for pid in pids:
            assert _bindings(check_postulate(rv, pid)) == (0, 0, 0, 0), pid
            assert _bindings(run_suite(rv, [pid]).verdict(pid)) == (0, 0, 0, 0), pid


def _sampled_against_reference(rv, seed, samples):
    """run_suite and check_postulate in sampled mode against the reference
    run one clause at a time: the same verdicts, witness bindings, text
    and JSON. Returns the reference's first failing sample per clause."""
    hits = {pid: sampled_reference(rv, pid, seed, samples) for pid in PostulateId}
    want = SuiteReport(sig=rv.sig, mode="sampled", seed=seed, samples=samples,
                       domain_size=rv.sig.universe_mask + 1,
                       results=tuple((pid, hit and hit[1]) for pid, hit in hits.items()))
    got = run_suite(rv, PostulateId, mode="sampled", seed=seed, samples=samples)
    assert ([(pid, _bindings(v)) for pid, v in got.results]
            == [(pid, _bindings(v)) for pid, v in want.results])
    assert json.dumps(got.to_json_records()) == json.dumps(want.to_json_records())
    assert got.to_text() == want.to_text()
    for pid in (PostulateId.K1, PostulateId.U8, PostulateId.C2):
        one = check_postulate(rv, pid, mode="sampled", seed=seed, samples=samples)
        assert _bindings(one) == _bindings(got.verdict(pid))
    return {pid: hit[0] for pid, hit in hits.items() if hit is not None}


def _perturbed_small(count, seed):
    """Seeded one- and two-atom ranked tables with one to three cells
    changed anywhere."""
    rng = random.Random(seed)
    for i in range(count):
        sig = (SIG1, SIG2)[i % 2]
        nm = sig.universe_mask + 1
        base = RankedRevision(random_rank_function(sig, rng.randint(1, nm), rng.randrange(999)))
        cells = [base.revise_mask(k, f) for k in range(nm) for f in range(nm)]
        for _ in range(rng.randint(1, 3)):
            cells[rng.randrange(nm * nm)] = rng.randrange(nm)
        yield TableRevision(sig, cells)


class _Untouchable(Revision):
    """A revision that fails the test if any clause evaluates it."""

    def revise_mask(self, k_mask, f_mask):
        raise AssertionError("a clause ran")


class TestSampledMode:
    """Sampled mode draws each binding once per clause shape and checks it
    against every clause of that shape; the result must be what one
    generator per clause gives."""

    SAMPLES = (1, 7, 500)

    def test_two_atom_ranked_revisions(self, revs75):
        for i, rv in enumerate(revs75):
            _sampled_against_reference(rv, 1000 + i, self.SAMPLES[i % 3])

    @pytest.mark.parametrize("sig", [SIG3, SIG4])
    def test_random_functions_at_every_level_count(self, sig):
        for levels in range(1, 17):
            rv = RankedRevision(random_rank_function(sig, levels, 40 + levels))
            for samples in self.SAMPLES:
                _sampled_against_reference(rv, 7 * levels + samples, samples)

    def test_perturbed_tables(self):
        staggered = 0
        for i, rv in enumerate(_perturbed_small(60, 5)):
            for samples in self.SAMPLES:
                failed = _sampled_against_reference(rv, 31 * i + samples, samples)
                by_shape = {}
                for pid, position in failed.items():
                    by_shape.setdefault(postulates._CLAUSES[pid].shape, set()).add(position)
                staggered += any(len(p) > 1 for p in by_shape.values())
        # clauses of one shape failing at different samples, so a clause
        # that keeps going after another has failed is exercised
        assert staggered >= 20

    def test_generic_revisions(self):
        # revisions that answer only through revise_mask, read one column
        # at a time by mapping it over the bindings
        for levels, samples in ((3, 1), (9, 7), (16, 500)):
            rv = OutOfRange(RankedRevision(random_rank_function(SIG4, levels, levels)), {})
            _sampled_against_reference(rv, 50 + levels, samples)
        # one cell outside the signature, at the tenth binding drawn for
        # (K, phi): K1 fails there, and reports no observed theory
        for seed in range(5):
            draw = random.Random(seed).randrange
            K, phi = [(draw(16), draw(16)) for _ in range(10)][-1]
            rv = OutOfRange(RankedRevision(random_rank_function(SIG2, 3, seed)),
                            {(K, phi): SIG2.universe_mask + 1})
            failed = _sampled_against_reference(rv, seed, 500)
            assert failed[PostulateId.K1] <= 9
            k1 = run_suite(rv, [PostulateId.K1], mode="sampled", seed=seed, samples=500)
            assert k1.verdict(PostulateId.K1).observed is None
        # an expand-or-row revision whose row comes from another revision
        sources = (RankedRevision(random_rank_function(SIG3, 4, 9)),
                   _random_table(SIG3, random.Random(8)))
        for source in sources:
            rv = conservative_extension(source, th(SIG3, "p | q & !r"))
            for samples in self.SAMPLES:
                _sampled_against_reference(rv, 60 + samples, samples)

    @pytest.mark.parametrize("n", [2, 4, 16, 256, 65536, 2**32, 2**65536],
                             ids=lambda n: f"2**{n.bit_length() - 1}")
    def test_draws_are_randrange(self, n):
        # the pass's draws must stay the values randrange returns, so that
        # a recorded seed replays the same bindings
        count = 20 if n > 2**32 else 400
        for seed in (0, 1, 7, 2**40 + 3):
            rng = random.Random(seed)
            want = [rng.randrange(n) for _ in range(count)]
            for size in (1, 3, 128):
                blocks = postulates._draws(seed, n, size)
                assert list(islice(chain.from_iterable(blocks), count)) == want

    def test_seeded_replay_golden(self):
        # witnesses recorded from the per-clause sampled loop
        golden = {
            (3, 1, 7): {"U8": (34808, 35641, 5188, 0), "C2": (34808, 0, 35641, 5188)},
            (9, 2, 8): {"U8": (33412, 51025, 19498, 0), "U8_1": (49140, 5056, 18441, 0),
                        "C2": (14179, 0, 27684, 603)},
            (16, 3, 9): {"U8": (43781, 5360, 49678, 0), "C2": (4472, 0, 21128, 41024)},
        }
        for (levels, rank_seed, seed), want in golden.items():
            rv = RankedRevision(random_rank_function(SIG4, levels, rank_seed))
            report = run_suite(rv, PostulateId, mode="sampled", seed=seed, samples=200)
            assert {p.name: _bindings(v) for p, v in report.results if v} == want
            assert all(v.replay(rv) for v in report.violations)

    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(mode="sampled"), SamplingError, "needs a seed"),
        (dict(mode="sampled", seed=1, samples=0), SamplingError, "at least one sample"),
        (dict(mode="sampled", seed=1, samples=-5), SamplingError, "at least one sample"),
        (dict(mode="bogus", seed=1), ValueError, "mode must be"),
    ])
    def test_bad_arguments_raise_before_any_clause(self, kwargs, error, message):
        rv = _Untouchable(SIG2)
        with pytest.raises(error, match=message):
            run_suite(rv, PostulateId, **kwargs)
        with pytest.raises(error, match=message):
            check_postulate(rv, PostulateId.K7, **kwargs)

    @pytest.mark.parametrize("kwargs", [dict(), dict(mode="sampled", seed=1)])
    def test_no_ids_no_results(self, kwargs):
        # an empty suite would pass vacuously: it raises before any clause,
        # also at a size exhaustive mode refuses
        for sig in (SIG2, SIG4):
            with pytest.raises(ValueError, match="at least one postulate id"):
                run_suite(_Untouchable(sig), [], **kwargs)

    def test_memory_does_not_grow_with_samples(self, rv0):
        # one clause of each shape, each holding on every sample drawn
        ids = (PostulateId.K2, PostulateId.K9, PostulateId.P_GEN)

        def peak(samples):
            tracemalloc.start()
            try:
                report = run_suite(rv0, ids, mode="sampled", seed=3, samples=samples)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.all_pass
            return top

        peak(100)
        assert abs(peak(100_000) - peak(100)) < 64 * 1024

        # all 25 clauses at 4 atoms, each column over a block of bindings;
        # the first call builds the level masks
        rv = RankedRevision(random_rank_function(SIG4, 16, 5))

        def peak4(samples):
            tracemalloc.start()
            try:
                report = run_suite(rv, PostulateId, mode="sampled", seed=3, samples=samples)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # only the clauses no ranked revision satisfies fail, so the
            # other 22 run through every block
            assert {p for p, v in report.results if v} <= {
                PostulateId.U8, PostulateId.U8_1, PostulateId.C2}
            return top

        peak4(1_000)
        assert abs(peak4(20_000) - peak4(1_000)) < 64 * 1024


def _lane_cases(sig, seed):
    """Revisions and bindings for the lane forms: a ranked revision; the
    same one answering -1, 2**(2**n), 300, the lowest value a lane holds
    and values past any lane (10**6, 2**40, -2**70) at cells that the
    bindings read as rev(K, phi), rev(K', phi), rev(K ∪ K', phi),
    rev(K, psi), rev(⊥, phi) and through rev(rev(K, psi), phi); and a
    conservative extension whose row holds those values, read where
    K ∧ phi is empty."""
    rng = random.Random(seed)
    nm = sig.universe_mask + 1
    half = 1 << max(8, 2 * sig.num_valuations) - 1  # lanes are twice a mask wide
    ranked = RankedRevision(random_rank_function(sig, min(nm, 5), seed))

    def draw():
        return rng.randrange(nm)

    bindings = [(draw(), draw(), draw(), draw()) for _ in range(40)]
    cells = {}
    for value in (-1, nm, 300, -half, 10**6, 2**40, -2**70):
        k, f, other = draw(), draw(), draw()
        cells[k, f] = cells[0, f] = value
        bindings += [(k, other, f, other), (other, k, f, other), (k, k, f, other),
                     (k, other, other, f), (0, other, f, f), (other, 0, f, k),
                     (sig.universe_mask ^ f, other, f, other)]
    return {"ranked": ranked, "out_of_range": OutOfRange(ranked, cells),
            "lane_sized": OutOfRange(ranked, {c: v for c, v in cells.items()
                                              if -half <= v < half}),
            "conservative": conservative_extension(
                OutOfRange(ranked, {(0, f): v for (k, f), v in cells.items()}),
                Theory.bottom(sig))}, bindings


class TestLaneForms:
    """Each clause's lane form against its scalar statement in the oracles,
    on one-lane blocks and lane by lane on blocks of many bindings."""

    def test_one_form_clause_and_statement_per_postulate(self):
        names = [pid.name for pid in PostulateId]
        assert sorted(postulates._LANE_FAILS) == sorted(names)
        assert list(postulates._CLAUSES) == list(HOLDS) == list(PostulateId)
        forms = list(postulates._LANE_FAILS.values())
        assert len({id(form) for form in forms}) == len(forms) == len(names)

    @pytest.mark.parametrize("sig", [SIG1, SIG2, SIG3, SIG4],
                             ids=["1atom", "2atoms", "3atoms", "4atoms"])
    def test_forms_match_scalar_statements(self, sig):
        uni = sig.universe_mask
        revisions, bindings = _lane_cases(sig, sig.n)
        fails = Counter()
        for kind, rv in revisions.items():
            want = {pid: [not HOLDS[pid](rv.revise_mask, uni, *b) for b in bindings]
                    for pid in PostulateId}
            block = postulates._Block(rv, dict(zip(("K", "Kp", "phi", "psi"),
                                                   map(list, zip(*bindings)))))
            for pid in PostulateId:
                form = postulates._LANE_FAILS[pid.name]
                one = [postulates._Lane(rv, *b).run(form) is not None for b in bindings]
                assert one == want[pid], (kind, pid)
                first = want[pid].index(True) if True in want[pid] else None
                assert block.run(form) == first, (kind, pid)
                fails[kind] += sum(want[pid])
                if kind in ("ranked", "lane_sized"):  # every value fits: read each lane
                    v = form(block)
                    lanes = [v >> i * block.bits & (1 << block.bits) - 1 != 0
                             for i in range(len(bindings))]
                    assert lanes == want[pid], (kind, pid)
        # every kind fails somewhere, the changed cells most
        assert 0 < fails["ranked"] < fails["lane_sized"] <= fails["out_of_range"], fails
        assert fails["conservative"] > fails["ranked"], fails

    def test_k6_reads_rev_k_phi_twice(self):
        # equivalent inputs are one mask, so only a revise that answers a
        # cell differently from one call to the next fails K6
        class Flaky(Revision):
            calls = 0

            def revise_mask(self, k, f):
                self.calls += 1
                return self.calls % 256

        k6 = postulates._LANE_FAILS["K6"]
        assert postulates._Lane(Flaky(SIG2), 3, 0, 5, 0).run(k6) == 0
        assert postulates._Lane(RankedRevision(random_rank_function(SIG2, 2, 1)), 3, 0, 5, 0
                                ).run(k6) is None
        for samples in (1, 200):
            v = check_postulate(Flaky(SIG3), PostulateId.K6, mode="sampled", seed=4,
                                samples=samples)
            assert v is not None and v.postulate is PostulateId.K6

    def test_lanes_past_eight_bytes(self):
        # at 6 atoms a lane is 16 bytes, which no struct code packs. Negative
        # answers fit a lane, and rev(rev(K, psi), phi) reads them back as K;
        # Wild also answers values past a lane at other cells
        class Generic(Revision):
            def revise_mask(self, k, f):
                return k & f or f >> 1

        class Negative(Generic):
            def revise_mask(self, k, f):
                if not 0 <= k <= self.sig.universe_mask:
                    return f if k < 0 else 0
                return super().revise_mask(k, f) if (k ^ f) % 7 else -((k | f) << 20)

        class Wild(Negative):
            def revise_mask(self, k, f):
                return -((k | f) << 80) if k >= 0 and (k ^ f) % 11 == 0 else super().revise_mask(k, f)

        sig = Signature(tuple("pqrstu"))
        rng = random.Random(6)
        bindings = [tuple(rng.randrange(sig.universe_mask + 1) for _ in range(4)) for _ in range(60)]
        for rv in (Generic(sig), Negative(sig), Wild(sig)):
            for samples in (1, 129):
                _sampled_against_reference(rv, 66, samples)
            if isinstance(rv, Wild):
                continue
            block = postulates._Block(rv, dict(zip(("K", "Kp", "phi", "psi"),
                                                   map(list, zip(*bindings)))))
            for pid in PostulateId:
                v = postulates._LANE_FAILS[pid.name](block)
                assert [v >> i * block.bits & (1 << block.bits) - 1 != 0
                        for i in range(len(bindings))] == [
                    not HOLDS[pid](rv.revise_mask, sig.universe_mask, *b) for b in bindings], pid

    @pytest.mark.parametrize("samples", [127, 128, 129])
    def test_block_edges(self, samples):
        rank = random_rank_function(SIG3, 5, 11)
        ranked = RankedRevision(rank)
        revisions = (
            ranked,
            _perturbed_table(ranked, 200, 17, 3),
            revision_of_relation(ConsequenceRelation.from_rank(rank)),
            conservative_extension(ranked, th(SIG3, "p | q & !r")),
            conservative_extension(OutOfRange(ranked, {(5, 9): -1, (5, 77): 256}),
                                   Theory(PropSet(SIG3, 5))),
        )
        for i, rv in enumerate(revisions):
            _sampled_against_reference(rv, 300 + i, samples)

    def test_sampled_past_four_atoms_answers(self):
        # a ranked revision's columns read its level masks, never a row over
        # 2**32 formula classes: the calls that raised TableTooLargeError at
        # 5 atoms give the min-rank oracle's verdicts, and every violation
        # replays
        done = run_capped("""
from rankedrev import (PostulateId, RankedRevision, Signature, check_postulate,
                       random_rank_function, run_suite)
from oracles import MinRankRevision, replay_reference
rank = random_rank_function(Signature(tuple("pqrst")), 3, 1)
rv, oracle = RankedRevision(rank), MinRankRevision(rank)
for ids in ([PostulateId.U8_1], [PostulateId.K9], [PostulateId.K2], [PostulateId.C2],
            list(PostulateId)):
    for samples in (1, 500, 5000):
        for seed in (1, 30):
            got = run_suite(rv, ids, mode="sampled", seed=seed, samples=samples)
            want = run_suite(oracle, ids, mode="sampled", seed=seed, samples=samples)
            one = check_postulate(rv, ids[0], mode="sampled", seed=seed, samples=samples)
            assert got.to_json_records() == want.to_json_records()
            assert one == got.results[0][1]
            assert all(v.replay(rv) and replay_reference(v, rv) for v in got.violations)
            print(len(got.violations))
""")
        assert done.returncode == 0, done.stderr
        counts = list(map(int, done.stdout.split()))
        # all 25 clauses at seeds 1 and 30: 500 samples reach a U8 failure
        # at seed 30, 5000 reach U8 and C2 failures at seed 1
        assert len(counts) == 30 and counts[-4:] == [0, 1, 2, 1]

    def test_sampled_matches_the_table_path_at_four_atoms(self):
        # the level masks give the records and replays that the severe
        # cells read from the 2**16-entry consequence row gave
        rng = random.Random(19)
        failing = 0
        for i in range(64):
            rank = random_rank_function(SIG4, 1 + i % 16, rng.getrandbits(32))
            seed = rng.getrandbits(32)
            got = run_suite(RankedRevision(rank), PostulateId, mode="sampled", seed=seed)
            table_path = _ExpandOrRow(SIG4, rank.consequence_table)
            want = run_suite(table_path, PostulateId, mode="sampled", seed=seed)
            assert json.dumps(got.to_json_records()) == json.dumps(want.to_json_records())
            assert ([v.replay(RankedRevision(rank)) for v in got.violations]
                    == [v.replay(table_path) for v in want.violations])
            failing += len(got.violations)
        assert failing

    def test_sampled_builds_no_consequence_table(self, monkeypatch):
        def refuse(rank, *levels):
            raise AssertionError("sampled mode built a consequence table")

        monkeypatch.setattr(RankFunction, "_consequence_cells", refuse)
        for levels in (1, 5, 16):
            rv = RankedRevision(random_rank_function(SIG4, levels, levels))
            report = run_suite(rv, PostulateId, mode="sampled", seed=levels)
            assert all(v.replay(rv) for v in report.violations)
            assert check_postulate(rv, PostulateId.K9_2, mode="sampled", seed=3) is None
        with pytest.raises(AssertionError, match="built a consequence table"):
            rv.consequence_masks()


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

    @pytest.mark.parametrize("ids, named", [
        (["U8_1", "K9"], "'K9', 'U8_1'"),
        ([PostulateId.K2, "K9"], "'K9'"),
        ([PostulateId.U8_1, 8], "8"),
    ])
    def test_ids_that_are_not_postulates_raise(self, rv0, ids, named):
        # U8_1 fails on every ranked revision, so a report that dropped the
        # names and passed would hide a violation
        with pytest.raises(ValueError, match=f"PostulateId members, got {named}$"):
            run_suite(rv0, ids)
        with pytest.raises(ValueError, match=f"got {named}$"):
            run_suite(rv0, ids, mode="sampled", seed=1)

    @pytest.mark.parametrize("atoms, size", [(4, "65536"), (5, "2**32"), (14, "2**16384"),
                                             (16, "2**65536")])
    def test_domain_in_text(self, atoms, size):
        # 2**(2**n) has more digits past 13 atoms than str() converts, so
        # past 4 atoms the text gives the power
        class Generic(Revision):
            def revise_mask(self, k, f):
                return k & f or f >> 1

        sig = Signature(SIG16.atoms[:atoms])
        report = run_suite(Generic(sig), [PostulateId.K2], mode="sampled", seed=1, samples=2)
        assert report.to_text().splitlines()[0] == (
            f"postulate suite over atoms {' '.join(sig.atoms)}: mode=sampled seed=1 samples=2 "
            f"domain={size} theories x {size} formula classes")

    def test_repeated_ids_count_once(self, rv0):
        report = run_suite(rv0, [PostulateId.U8_1, PostulateId.K2, PostulateId.U8_1])
        assert [pid for pid, _ in report.results] == [PostulateId.K2, PostulateId.U8_1]


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


class TestReplayMatchesScalarForm:
    """Violation.replay, which evaluates the clause's lane form on a one-lane
    block, against the clause's scalar statement in the oracles: the same
    answer on every violation the corpora give, and again after the
    witness's own cell rev(K, phi) is changed, in a TableRevision copy up
    to 3 atoms and past that in a revision that overrides the one cell."""

    def _check(self, rv, violations, outcomes):
        nm = rv.sig.universe_mask + 1
        cells = [rv.revise_mask(k, f) for k in range(nm) for f in range(nm)] if nm <= 256 else None
        for v in violations:
            assert v.replay(rv) and replay_reference(v, rv), v.describe()
            K, phi = v.k.models.mask, v.phi.mask
            old = rv.revise_mask(K, phi)
            for new in {0, nm - 1, (old + 1) % nm} - {old}:
                if cells is None:
                    changed = OutOfRange(rv, {(K, phi): new})
                else:
                    changed_cells = list(cells)
                    changed_cells[K * nm + phi] = new
                    changed = TableRevision(rv.sig, changed_cells)
                stays = v.replay(changed)
                assert stays == replay_reference(v, changed), (v.describe(), new)
                outcomes[stays] += 1

    def test_two_atom_ranked_and_perturbed_tables(self, revs75):
        outcomes = Counter()
        for rv in [*revs75, *_perturbed_revisions(revs75, 200, 2002)]:
            self._check(rv, run_suite(rv, PostulateId).violations, outcomes)
        assert outcomes[True] >= 1000 and outcomes[False] >= 1000, outcomes

    @pytest.mark.parametrize("sig, levels", [(SIG3, (2, 5, 8)), (SIG4, (3, 9, 16))],
                             ids=["3atoms", "4atoms"])
    def test_sampled_runs(self, sig, levels):
        outcomes = Counter()
        for level in levels:
            rv = RankedRevision(random_rank_function(sig, level, level))
            report = run_suite(rv, PostulateId, mode="sampled", seed=level, samples=500)
            self._check(rv, report.violations, outcomes)
        assert outcomes[True] and outcomes[False], outcomes

    def test_cell_past_the_masks(self, sig2):
        # K1 reports no observed theory at the cell outside the signature
        rv = OutOfRange(RankedRevision(random_rank_function(sig2, 3, 1)),
                        {(6, 9): sig2.universe_mask + 1})
        v = check_postulate(rv, PostulateId.K1)
        assert v.observed is None
        outcomes = Counter()
        self._check(rv, [v], outcomes)
        # any mask in the cell mends K1 there
        assert outcomes == {False: 3}


class TestOtherSignature:
    def test_replay_on_a_revision_over_other_atoms(self, rv0):
        v = check_postulate(rv0, PostulateId.U8_1)
        v3 = check_postulate(RankedRevision(random_rank_function(SIG3, 3, 1)), PostulateId.U8_1)
        for witness, rv in ((v, RankedRevision(random_rank_function(SIG3, 3, 1))),
                            (v3, rv0),
                            (v, RankedRevision(RankFunction(Signature(("y", "x")),
                                                            rv0.rank.ranks)))):
            with pytest.raises(SignatureError, match="violation is over atoms"):
                witness.replay(rv)

    @pytest.mark.parametrize("sig, anchor", [(SIG2, Theory.top(SIG3)), (SIG3, Theory.top(SIG2)),
                                             (Signature(("y", "x")), Theory.top(SIG2))])
    def test_underdetermination_anchor_over_other_atoms(self, sig, anchor):
        with pytest.raises(SignatureError, match="anchor is over atoms"):
            dynamic_underdetermination(sig, anchor)


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

    @pytest.mark.parametrize("call", [
        lambda rv: find_impossibility_witness(rv, "C2_vs_K1K4"),
        lambda rv: find_impossibility_witness(rv, ImpossibilityTarget.U8_1_VS_K4K5),
        check_implication_9p_to_92,
    ])
    def test_preconditions_past_three_atoms_raise(self, call):
        rv = RankedRevision(random_rank_function(SIG4, 3, 1))
        with pytest.raises(DomainTooLargeError,
                           match="checks its preconditions exhaustively, up to 3 atoms; got 4"):
            call(rv)

    def test_unchecked_preconditions_at_four_atoms(self):
        rv = RankedRevision(random_rank_function(SIG4, 3, 1))
        for which in ImpossibilityTarget:
            v = find_impossibility_witness(rv, which, verify_preconditions=False)
            assert v.replay(rv)


class TestPinnedOutputs:
    def test_two_atom_reports_replays_and_witnesses(self, revs75):
        # one digest over what a refactor must not move: the JSON report of
        # the whole catalogue, the replay of each violation and both
        # impossibility witnesses, for every two-atom ranked revision
        h = hashlib.sha256()
        for rv in revs75:
            report = run_suite(rv, PostulateId)
            h.update(json.dumps(report.to_json_records(), indent=2).encode())
            h.update(repr([v.replay(rv) for v in report.violations]).encode())
            for which in ImpossibilityTarget:
                h.update(json.dumps(find_impossibility_witness(rv, which).witness_json()).encode())
        assert h.hexdigest() == "d4b9fa5a81bd02bcc49f77a9d3e0ddf2cb1805a2d968063b14a563b318b4dd47"

    def test_three_atom_kf_and_kkf_reports(self, sig3):
        # the JSON report and the replays of the 14 KF and KKF clauses on
        # ranked tables early, mid-way and last in the enumeration, and on
        # copies with one cell changed, so that clauses fail at early and
        # late bindings
        ids = [pid for pid, clause in postulates._CLAUSES.items() if clause.shape != "KFF"]
        wanted = (0, 4321, 545834)
        ranks = [r for i, r in enumerate(enumerate_rank_functions(sig3)) if i in wanted]
        h = hashlib.sha256()
        for rank in ranks:
            ranked = RankedRevision(rank)
            for rv in (ranked, _perturbed_table(ranked, 1, 200, 8),
                       _perturbed_table(ranked, 96, 1, ranked.revise_mask(96, 1) ^ 1),
                       _perturbed_table(ranked, 0, 77, ranked.revise_mask(0, 77) ^ 16),
                       _perturbed_table(ranked, 255, 255, 0),
                       _perturbed_table(ranked, 170, 85, 255)):
                report = run_suite(rv, ids)
                h.update(json.dumps(report.to_json_records(), indent=2).encode())
                h.update(repr([v.replay(rv) for v in report.violations]).encode())
        assert h.hexdigest() == "2239eb0c483e8a438a90e3d83f134ebe7c1eace7f712e89fe08a17e9fd00fa89"

    def test_three_atom_kff_reports(self):
        # the JSON report and the replays of the 11 KFF clauses on two
        # ranked tables, where all but C2 hold, on copies with one cell
        # changed early and on tables changed late, at K >= 128 and
        # phi >= 192; pinned before the clauses moved onto their lane forms
        ranked = [RankedRevision(random_rank_function(SIG3, levels, seed))
                  for levels, seed in ((3, 20), (8, 21))]
        h = hashlib.sha256()
        for rv in [*ranked, _perturbed_table(ranked[0], 1, 200, 8),
                   _perturbed_table(ranked[1], 0, 77, ranked[1].revise_mask(0, 77) ^ 16),
                   *_late_three_atom_tables(2, 2020)]:
            report = run_suite(rv, KFF)
            h.update(json.dumps(report.to_json_records(), indent=2).encode())
            h.update(repr([v.replay(rv) for v in report.violations]).encode())
        assert h.hexdigest() == "47f112512cd7196e5f4c4482ba93890edf0362a7f190de374ac9829f0037100e"


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

    @pytest.mark.parametrize("sig", [SIG2, Signature(("y", "x"))], ids=["pq", "yx"])
    def test_every_anchor_matches_reference(self, sig):
        # the search relies on distinct bottom rows
        bottoms = [rv.table()[0] for rv in postulates._two_atom_revisions()]
        assert len(set(bottoms)) == len(bottoms) == 75
        for km in range(16):
            k = Theory(PropSet(sig, km))
            try:
                want = dynamic_underdetermination_reference(sig, k)
            except WitnessNotFoundError as e:
                with pytest.raises(WitnessNotFoundError) as got:
                    dynamic_underdetermination(sig, k)
                assert str(got.value) == str(e)
                continue
            got = dynamic_underdetermination(sig, k)
            assert got == want
            assert got.first.sig is sig and got.second.sig is sig


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
