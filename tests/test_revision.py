"""Revision operators: the ranked realization, relation round trips,
theory-floor models, conservative extension, iteration."""

import pickle
import re

import pytest

from rankedrev import ranking, revision
from rankedrev import (
    ConsequenceRelation,
    PostulateId,
    PropSet,
    RankedRevision,
    RankFunction,
    Revision,
    Severity,
    Signature,
    SignatureError,
    TableRevision,
    Theory,
    check_rationality,
    cn_with,
    conservative_extension,
    consequences_of,
    iterate,
    normalize,
    random_rank_function,
    relation_of_revision,
    revision_of_relation,
    run_suite,
    severity_of,
    theory_contains,
    with_theory_floor,
)

from helpers import R0, SIG1, SIG2, SIG3, SIG4, OutOfRange, ps, run_capped, th
from oracles import consequence_table_reference


class TestRevise:
    def test_severe_takes_default_consequences(self, rv0, sig2):
        k, f = th(sig2, "!q"), ps(sig2, "q")
        assert severity_of(k, f) is Severity.SEVERE
        assert rv0.revise(k, f) == th(sig2, "p & q")

    def test_mild_expands(self, rv0, sig2):
        k, f = th(sig2, "p"), ps(sig2, "q")
        assert severity_of(k, f) is Severity.MILD
        assert rv0.revise(k, f) == cn_with(k, f) == th(sig2, "p & q")

    def test_false_input_gives_bottom_for_every_theory(self, rv0, sig2):
        for km in range(16):
            k = Theory(PropSet(sig2, km))
            assert rv0.revise(k, PropSet.empty(sig2)) == Theory.bottom(sig2)

    def test_true_input_fixes_consistent_theories(self, rv0, sig2):
        for km in range(1, 16):
            k = Theory(PropSet(sig2, km))
            assert rv0.revise(k, PropSet.full(sig2)) == k

    def test_bottom_is_always_severe(self, rv0, sig2):
        for fm in range(16):
            f = PropSet(sig2, fm)
            assert severity_of(Theory.bottom(sig2), f) is Severity.SEVERE
            assert rv0.revise(Theory.bottom(sig2), f) == consequences_of(R0, f)

    def test_restriction_to_bottom_determines_everything(self, revs75, sig2):
        # severe cells equal the bottom row, mild cells are expansion
        for rv in revs75:
            for km in range(16):
                for fm in range(16):
                    got = rv.revise_mask(km, fm)
                    if km & fm:
                        assert got == km & fm
                    else:
                        assert got == rv.revise_mask(0, fm)


class TestRelationOfRevision:
    def test_bottom_base_recovers_rank_relation(self, rv0, sig2):
        rel = relation_of_revision(rv0, Theory.bottom(sig2))
        assert rel == ConsequenceRelation.from_rank(R0)

    def test_consistent_base_examples(self, rv0, sig2):
        rel = relation_of_revision(rv0, th(sig2, "!q"))
        assert rel.theory_for(PropSet.full(sig2)) == th(sig2, "!q")
        assert rel.theory_for(ps(sig2, "q")) == th(sig2, "p & q")

    def test_every_base_gives_rational_relation(self, rv0, sig2):
        for km in range(16):
            rel = relation_of_revision(rv0, Theory(PropSet(sig2, km)))
            assert check_rationality(rel).all_pass

    def test_reads_one_row_and_builds_no_table(self, monkeypatch):
        def refuse(rv):
            raise AssertionError("relation_of_revision built a table")

        monkeypatch.setattr(Revision, "_tabulate", refuse)
        monkeypatch.setattr(revision._ExpandOrRow, "_tabulate", refuse)
        rank = random_rank_function(SIG3, 4, 3)
        ranked = RankedRevision(rank)
        base = Theory(PropSet(SIG3, 0x5A))
        for rv in (ranked, conservative_extension(ranked, th(SIG3, "p")),
                   revision_of_relation(ConsequenceRelation.from_rank(rank)),
                   OutOfRange(ranked, {})):
            rel = relation_of_revision(rv, base)
            assert rel.consequences == tuple(rv.revise_mask(0x5A, f) for f in range(256))
            assert rv._rows is None


class TestRoundTrips:
    def test_relation_revision_relation(self, ranks75, sig2):
        for r in ranks75:
            rel = ConsequenceRelation.from_rank(r)
            back = relation_of_revision(revision_of_relation(rel), Theory.bottom(sig2))
            assert back == rel

    def test_revision_relation_revision(self, revs75, sig2):
        for rv in revs75:
            rel = relation_of_revision(rv, Theory.bottom(sig2))
            assert revision_of_relation(rel).same_revision(rv)

    def test_four_atom_round_trips(self):
        bot = Theory.bottom(SIG4)
        for levels, seed in ((1, 0), (4, 1), (16, 2)):
            r = random_rank_function(SIG4, levels, seed)
            rel = ConsequenceRelation.from_rank(r)
            assert relation_of_revision(revision_of_relation(rel), bot) == rel
            assert relation_of_revision(RankedRevision(r), bot) == rel

    def test_true_row_recovers_relation(self, ranks75, sig2):
        # with K the default closure of true, membership in K*phi is the relation
        for r in ranks75:
            rel = ConsequenceRelation.from_rank(r)
            rv = revision_of_relation(rel)
            k_mask = rel.consequences[sig2.universe_mask]
            for fm in range(16):
                assert rv.revise_mask(k_mask, fm) == rel.consequences[fm]


class TestTheoryFloor:
    def test_floor_example(self, sig2):
        floored = with_theory_floor(R0, th(sig2, "!q"))
        # 00 -> 0, 01 -> 2, 10 -> 0, 11 -> 1
        assert floored.ranks == (0, 2, 0, 1)

    def test_bottom_floor_is_identity(self, sig2):
        assert with_theory_floor(R0, Theory.bottom(sig2)) == R0

    def test_full_universe_floor_flattens(self, sig2):
        assert with_theory_floor(R0, Theory.top(sig2)).ranks == (0, 0, 0, 0)

    def test_revision_equals_floored_consequences(self, revs75, sig2):
        # K*phi is exactly the default consequence of phi in the model
        # extended with a new lowest level holding the models of K
        for rv in revs75:
            for km in range(16):
                k = Theory(PropSet(sig2, km))
                floored = with_theory_floor(rv.rank, k)
                for fm in range(16):
                    f = PropSet(sig2, fm)
                    assert rv.revise(k, f) == consequences_of(floored, f)

    def test_refloring_already_floored_changes_nothing(self, sig2):
        # dropping theory models to the floor is idempotent up to
        # normalization, so no trace of their original ranks survives
        for km in range(16):
            k = Theory(PropSet(sig2, km))
            floored = with_theory_floor(R0, k)
            if km:
                reranked = normalize(
                    RankFunction(
                        sig2,
                        tuple(
                            0 if (km >> v) & 1 else rank
                            for v, rank in enumerate(floored.ranks)
                        ),
                    )
                )
                assert reranked == floored


class TestConservativeExtension:
    def test_agrees_on_anchor_row(self, rv0, sig2):
        ext = conservative_extension(rv0, th(sig2, "!q"))
        assert ext.revise(th(sig2, "!q"), ps(sig2, "q")) == rv0.revise(
            th(sig2, "!q"), ps(sig2, "q")
        )

    def test_severe_routes_through_anchor(self, rv0, sig2):
        ext = conservative_extension(rv0, th(sig2, "!q"))
        assert ext.revise(Theory.bottom(sig2), ps(sig2, "q")) == rv0.revise(
            th(sig2, "!q"), ps(sig2, "q")
        )

    def test_mild_branch_is_plain_expansion(self, rv0, sig2):
        ext = conservative_extension(rv0, th(sig2, "!q"))
        assert ext.revise(th(sig2, "p"), ps(sig2, "q")) == th(sig2, "p & q")


class TestPickle:
    """Every kind of revision pickles before its row or table exists, so
    a row source is a bound method or a partial, never a lambda."""

    @pytest.mark.parametrize("sig", [SIG1, SIG2, SIG3], ids=["1atom", "2atoms", "3atoms"])
    def test_fresh_revisions_round_trip(self, sig):
        rank = random_rank_function(sig, 3, 5)
        anchor = Theory(PropSet(sig, sig.universe_mask // 3))
        fresh = {
            "ranked": lambda: RankedRevision(rank),
            "table": lambda: TableRevision.from_function(sig, RankedRevision(rank).revise_mask),
            "conservative": lambda: conservative_extension(RankedRevision(rank), anchor),
            "relation": lambda: revision_of_relation(ConsequenceRelation.from_rank(rank)),
        }
        for kind, make in fresh.items():
            back = pickle.loads(pickle.dumps(make()))
            assert back.same_revision(make()), kind
            assert make().same_revision(back), kind
        back = pickle.loads(pickle.dumps(RankedRevision(rank)))
        assert back.rank == rank
        assert tuple(back.consequence_masks()) == rank.consequence_table()

    @pytest.mark.parametrize("sig", [SIG1, SIG2, SIG3, SIG4], ids=["1atom", "2atoms", "3atoms",
                                                                "4atoms"])
    def test_consequence_masks_are_the_table(self, sig):
        # at 4 atoms they were a read-only memoryview, which compared
        # unequal to the table and did not pickle
        for levels in (1, 3, sig.num_valuations):
            rank = random_rank_function(sig, levels, levels)
            rv = RankedRevision(rank)
            masks = rv.consequence_masks()
            assert masks == rank.consequence_table() == consequence_table_reference(rank)
            assert pickle.loads(pickle.dumps(masks)) == masks
            back = pickle.loads(pickle.dumps(rv))
            assert back.consequence_masks() == masks


class TestIterate:
    def test_two_step_trace(self, rv0, sig2):
        steps = iterate(rv0, th(sig2, "!q"), [ps(sig2, "p"), ps(sig2, "q")])
        assert [(s.before, s.after, s.severity) for s in steps] == [
            (th(sig2, "!q"), th(sig2, "p & !q"), Severity.MILD),
            (th(sig2, "p & !q"), th(sig2, "p & q"), Severity.SEVERE),
        ]

    def test_empty_trace(self, rv0, sig2):
        assert iterate(rv0, th(sig2, "!q"), []) == []

    def test_repeat_input_becomes_mild_fixed_point(self, rv0, sig2):
        steps = iterate(rv0, th(sig2, "!q"), [ps(sig2, "q"), ps(sig2, "q")])
        assert steps[0].severity is Severity.SEVERE
        assert steps[1].severity is Severity.MILD
        assert steps[1].before == steps[1].after == th(sig2, "p & q")

    def test_severity_flag_matches_membership_of_negation(self, rv0, sig2):
        for km in range(16):
            for fm in range(16):
                k, f = Theory(PropSet(sig2, km)), PropSet(sig2, fm)
                step = iterate(rv0, k, [f])[0]
                expected = (
                    Severity.SEVERE
                    if theory_contains(k, ~f)
                    else Severity.MILD
                )
                assert step.severity is expected


class TestSevereCellsFromLevels:
    """Severe cells read from the rank function's level masks: scalar and
    lane by lane, below and above the levels kept, and past 4 atoms under
    an address-space cap."""

    def test_cells_above_the_kept_levels(self, monkeypatch):
        # with two level masks kept, the cells of every higher level come
        # from min_models_mask, one lane at a time in a column
        monkeypatch.setattr(ranking, "LEVEL_MASKS_MAX", 2)
        tables, above = {}, []

        def min_models_mask(r, f):
            above.append(f)
            return tables[r][f]

        monkeypatch.setattr(RankFunction, "min_models_mask", min_models_mask)
        for levels in (3, 9, 16):
            rank = random_rank_function(SIG4, levels, levels)
            rv = RankedRevision(rank)
            table = tables[rank] = consequence_table_reference(rank)
            assert len(rv.levels) == 2
            assert tuple(rv.revise_mask(0, f) for f in range(1 << 16)) == table
            called = len(above)
            for seed in range(3):
                got = run_suite(rv, PostulateId, mode="sampled", seed=seed)
                want = run_suite(revision._ExpandOrRow(SIG4, lambda: table),
                                 PostulateId, mode="sampled", seed=seed)
                assert got.to_json_records() == want.to_json_records()
            assert len(above) > called

    def test_past_four_atoms_under_the_cap(self):
        # severe revise, iterate and a sampled suite at 5 and 16 atoms,
        # against the min-rank oracle and each clause's scalar statement
        done = run_capped("""
from rankedrev import (PostulateId, RankedRevision, Signature, Theory, iterate,
                       random_rank_function, run_suite)
from helpers import ps
from oracles import MinRankRevision, replay_reference, sampled_reference
for atoms, samples in ((5, 500), (16, 128)):
    sig = Signature(tuple("pqrstuvwxyzabcde"[:atoms]))
    rank = random_rank_function(sig, 9, atoms)
    rv, oracle = RankedRevision(rank), MinRankRevision(rank)
    k = ps(sig, "p & q & !r")
    fs = [ps(sig, t) for t in ("!p | !q", "p & q", "p", "false", "true")]
    steps = iterate(rv, Theory(k), fs)
    current = k.mask
    for step, f in zip(steps, fs):
        assert rv.revise(step.before, f) == step.after
        current = oracle.revise_mask(current, f.mask)
        assert step.after.models.mask == current
    assert [s.severity.value for s in steps] == ["severe", "severe", "mild", "severe", "severe"]
    for f in fs:
        assert rv.revise(Theory.bottom(sig), f).models.mask == oracle.revise_mask(0, f.mask)
    got = run_suite(rv, PostulateId, mode="sampled", seed=atoms, samples=samples)
    want = run_suite(oracle, PostulateId, mode="sampled", seed=atoms, samples=samples)
    assert got.to_json_records() == want.to_json_records()
    for pid in PostulateId:
        hit = sampled_reference(oracle, pid, atoms, samples)
        assert (hit and hit[1]) == got.verdict(pid)
    assert all(v.replay(rv) and replay_reference(v, rv) for v in got.violations)
    print(atoms, len(rv.levels))
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "5 9\n16 9\n"

    def test_one_valuation_per_level_at_sixteen_atoms(self):
        # 65536 levels: the lowest LEVEL_MASKS_MAX are built, and a cell
        # above them, scalar or in a column, comes from min_models_mask
        done = run_capped("""
import random
from rankedrev import RankedRevision, RankFunction, Theory, PropSet, iterate
from rankedrev.postulates import _Block
from rankedrev.ranking import LEVEL_MASKS_MAX
from helpers import SIG16
order = list(range(1 << 16))
random.Random(16).shuffle(order)
rv = RankedRevision(RankFunction(SIG16, order))
at_rank = sorted(range(1 << 16), key=order.__getitem__)  # the valuation of each level
assert rv.levels == [1 << v for v in at_rank[:LEVEL_MASKS_MAX]]
top = 1 << at_rank[-1]
lows = (0, 1, LEVEL_MASKS_MAX - 1, LEVEL_MASKS_MAX, 5000, 65535)
fs = [1 << at_rank[low] | top for low in lows]
assert [rv.revise_mask(0, f) for f in fs] == [1 << at_rank[low] for low in lows]
assert [rv.revise_mask(f, f) for f in fs] == fs
block = _Block(rv, {"K": [0, 0, 0, 0, fs[4], 0], "phi": fs})
assert block.row == block.pack([1 << at_rank[low] for low in lows[:4]] + [fs[4], top])
steps = iterate(rv, Theory(PropSet(SIG16, 1 << at_rank[1])), [PropSet(SIG16, f) for f in fs[3:5]])
assert [s.after.models.mask for s in steps] == [1 << at_rank[low] for low in lows[3:5]]
print("ok")
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"


class TestOtherSignature:
    @pytest.mark.parametrize("sig", [Signature(("r", "s")), SIG3], ids=["other-atoms", "more-atoms"])
    def test_inputs_over_other_atoms(self, rv0, sig2, sig):
        # over (r, s) these answered a theory over (p, q); over (p, q, r)
        # a severe cell read past the row
        k, f = Theory(PropSet(sig, 1)), PropSet(sig, sig.universe_mask ^ 1)
        for call in (lambda: rv0.revise(k, ps(sig2, "q")), lambda: rv0.revise(th(sig2, "!q"), f),
                     lambda: consequences_of(R0, f), lambda: iterate(rv0, k, [ps(sig2, "q")]),
                     lambda: iterate(rv0, th(sig2, "!q"), [f])):
            with pytest.raises(SignatureError, match=re.escape(f"is over atoms {sig.atoms}, not")):
                call()

    def test_an_equal_signature_is_the_same(self, rv0):
        sig = Signature(("p", "q"))
        assert sig is not rv0.sig
        assert rv0.revise(th(sig, "!q"), ps(sig, "q")) == th(rv0.sig, "p & q")
        assert consequences_of(R0, ps(sig, "true")) == th(rv0.sig, "p & q")


class TestTableRevision:
    def test_needs_full_table(self, sig2):
        with pytest.raises(ValueError):
            TableRevision(sig2, [0] * 10)

    @pytest.mark.parametrize("cell", [-1, 16])
    def test_cells_out_of_range(self, rv0, sig2, cell):
        cells = list(TableRevision.from_function(sig2, rv0.revise_mask).cells)
        cells[7] = cell
        with pytest.raises(ValueError, match="cell values must be model masks over the signature"):
            TableRevision(sig2, cells)

    def test_from_function_and_equality(self, rv0, sig2):
        tab = TableRevision.from_function(sig2, rv0.revise_mask)
        assert tab.same_revision(rv0)

    def test_pointwise_inequality_detected(self, rv0, sig2):
        cells = list(TableRevision.from_function(sig2, rv0.revise_mask).cells)
        cells[5 * 16 + 10] = 2  # one severe cell perturbed
        assert not TableRevision(sig2, cells).same_revision(rv0)


def _cell_by_cell(rv):
    nm = rv.sig.universe_mask + 1
    return tuple(tuple(rv.revise_mask(k, f) for f in range(nm)) for k in range(nm))


def _int_rows(rv):
    return tuple(map(tuple, rv.table()))


class TestPackedTables:
    """table() built from the severe or anchor row equals revise_mask
    tabulated cell by cell."""

    @pytest.mark.parametrize("sig", [SIG1, SIG2, SIG3], ids=["1atom", "2atoms", "3atoms"])
    def test_ranked_and_conservative(self, sig):
        rank = random_rank_function(sig, 3, 11)
        anchor = Theory(PropSet(sig, sig.universe_mask // 3))
        for rv in (RankedRevision(rank), conservative_extension(RankedRevision(rank), anchor)):
            assert _int_rows(rv) == _cell_by_cell(rv)
            assert all(type(row) is bytes for row in rv.table())
            assert rv.same_revision(TableRevision.from_function(sig, rv.revise_mask))

    def test_every_two_atom_rank_function(self, revs75, sig2):
        for rv in revs75:
            assert _int_rows(rv) == _cell_by_cell(rv)
            ext = conservative_extension(rv, th(sig2, "p | q"))
            assert _int_rows(ext) == _cell_by_cell(ext)

    def test_anchor_row_outside_the_signature(self, rv0, sig2):
        # a row that cannot be packed is tabulated cell by cell
        source = OutOfRange(rv0, {(7, 2): -1, (7, 9): 300})
        ext = conservative_extension(source, Theory(PropSet(sig2, 7)))
        assert ext.table() == _cell_by_cell(ext)
        assert ext.table()[0][2] == -1 and ext.table()[0][9] == 300

    def test_same_revision_across_row_types(self, rv0):
        # OutOfRange tabulates rows of ints; the ranked revision packs bytes
        ints = OutOfRange(rv0, {})
        assert type(ints.table()[0]) is tuple and type(rv0.table()[0]) is bytes
        assert ints.same_revision(rv0) and rv0.same_revision(ints)
        off = OutOfRange(rv0, {(5, 10): 2})
        assert not off.same_revision(rv0) and not rv0.same_revision(off)


_CAPPED = """
from rankedrev import (ConsequenceRelation, RankedRevError, Revision, Signature,
                       TableRevision, Theory, conservative_extension, relation_of_revision)
calls = []
def fn(*args):
    calls.append(args)
    return 0
class Counting(Revision):
    revise_mask = staticmethod(fn)
sig = Signature(tuple("pqrstuvwxyzabcde"[:{n}]))
try:
    {call}
except RankedRevError as e:
    print(type(e).__name__, len(calls))
"""


@pytest.mark.parametrize("n, call, error", [
    (4, "TableRevision.from_function(sig, fn)", "DomainTooLargeError"),
    (4, "TableRevision(sig, [])", "DomainTooLargeError"),
    (5, "ConsequenceRelation.from_function(sig, fn)", "TableTooLargeError"),
    (5, "relation_of_revision(Counting(sig), Theory.bottom(sig))", "TableTooLargeError"),
    (16, "relation_of_revision(Counting(sig), Theory.bottom(sig))", "TableTooLargeError"),
    (5, "conservative_extension(Counting(sig), Theory.bottom(sig))", "TableTooLargeError"),
])
def test_tables_past_the_caps_raise_before_any_cell(n, call, error):
    # in a child process under an address-space cap, so a regression that
    # allocates the 2**32-cell table fails there instead of on the machine
    done = run_capped(_CAPPED.format(n=n, call=call))
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{error} 0\n"
