"""Rank functions: default consequences, normalization, enumeration, file IO."""

import copy
import dataclasses
import gc
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankedrev import (
    PropSet,
    RankFileError,
    RankedRevError,
    RankFunction,
    SignatureTooLargeError,
    Signature,
    TableTooLargeError,
    Theory,
    consequences_of,
    enumerate_rank_functions,
    format_rank_file,
    normalize,
    parse_rank_file,
    random_rank_function,
    sweep_orbits,
)
from rankedrev.ranking import LEVEL_MASKS_MAX, count_rank_functions, level_masks

from helpers import R0, SIG1, SIG2, SIG3, SIG4, ps, th
from oracles import (
    consequence_table_reference,
    enumerate_rank_functions_reference,
    fubini,
    level_mask,
    min_rank_valuations,
    parse_rank_file_reference,
)

R0_FILE = "atoms: p q\n0: 11\n1: 01 10\n2: 00\n"


class TestConsequences:
    def test_true_selects_lowest_level(self):
        assert consequences_of(R0, PropSet.full(SIG2)) == th(SIG2, "p & q")

    def test_not_p(self):
        assert consequences_of(R0, ps(SIG2, "!p")) == th(SIG2, "!p & q")

    def test_false_gives_bottom(self):
        assert consequences_of(R0, PropSet.empty(SIG2)) == Theory.bottom(SIG2)

    def test_matches_min_rank_oracle_on_all_propsets(self):
        for fm in range(16):
            expected = min_rank_valuations(R0.ranks, PropSet(SIG2, fm).valuations())
            got = consequences_of(R0, PropSet(SIG2, fm))
            assert frozenset(got.models.valuations()) == expected

    def test_reflexive_at_semantic_level(self):
        for fm in range(16):
            f = PropSet(SIG2, fm)
            assert consequences_of(R0, f).models.issubset(f)

    def test_table_refused_past_four_atoms(self):
        # 2**32 entries at five atoms: refused before any work, as a typed
        # error that is still the OverflowError callers saw at 16 atoms
        rank = random_rank_function(Signature(tuple("pqrst")), 3, 1)
        with pytest.raises(TableTooLargeError) as exc:
            rank.consequence_table()
        assert isinstance(exc.value, RankedRevError)
        assert isinstance(exc.value, OverflowError)
        assert "at most 4 atoms" in str(exc.value)
        # single queries still work there
        full = PropSet.full(rank.sig)
        assert consequences_of(rank, full).models.mask == level_mask(rank, 0)


def _with_levels(sig, levels, rng):
    """A rank function using exactly ``levels`` levels: each level gets one
    valuation of a shuffled order, the rest go to random levels."""
    order = list(range(sig.num_valuations))
    rng.shuffle(order)
    ranks = [0] * sig.num_valuations
    for i, v in enumerate(order):
        ranks[v] = i if i < levels else rng.randrange(levels)
    return RankFunction(sig, tuple(ranks))


class TestConsequenceTable:
    """The table, each mask's part of the first level it meets, against
    the per-mask reference."""

    @pytest.mark.parametrize("sig", [SIG1, SIG2, SIG3, SIG4])
    def test_random_functions(self, sig):
        for seed in range(6):
            rank = random_rank_function(sig, 1 + seed * 3, seed)
            assert rank.consequence_table() == consequence_table_reference(rank)

    def test_every_level_count_at_four_atoms(self):
        rng = random.Random(16)
        for levels in range(1, 17):
            for _ in range(2):
                rank = _with_levels(SIG4, levels, rng)
                assert rank.height == levels - 1
                assert rank.consequence_table() == consequence_table_reference(rank)

    @pytest.mark.parametrize("ranks", [
        (0,) * 16,  # one level
        tuple(range(16)),  # 16 one-valuation levels, low byte first
        tuple(range(15, -1, -1)),  # and high byte first
        (0,) * 8 + (1,) * 8,  # the lowest level wholly in the low byte
        (1,) * 8 + (0,) * 8,  # wholly in the high byte
        (1, 0, 2, 0, 1, 2, 0, 1) + (3,) * 8,  # every high-byte mask at the top
        (3,) + (0, 1, 2) * 5,  # valuation 0 alone on the top level
    ])
    def test_edge_cases_at_four_atoms(self, ranks):
        rank = RankFunction(SIG4, ranks)
        table = rank.consequence_table()
        assert table == consequence_table_reference(rank)
        assert table[0] == 0 and table[1] == 1 and table[0xFFFF] == level_mask(rank, 0)


    @pytest.mark.parametrize("ranks", [
        (0,) * 15 + (256,),  # the high byte's first level exactly 256
        (0,) * 15 + (300,),  # above 256
        (300,) + (0,) * 15,  # a rank above 255 in the low byte
        (0, 256, 300, 1, 2, 3, 4, 5) + (6,) * 8,  # both, in the low byte
        (0,) * 8 + (256,) * 4 + (300,) * 4,  # both, in the high byte
        (5, 5, 9, 20) * 4,
    ])
    def test_unnormalized_ranks_at_four_atoms(self, ranks):
        rank = RankFunction(SIG4, ranks)
        table = rank.consequence_table()
        assert table == consequence_table_reference(rank)
        assert table == normalize(rank).consequence_table()
        assert table[0x8000] == 0x8000


class TestLevelMasks:
    """The bulk level builder against the oracle's level_mask, one valuation
    at a time."""

    @pytest.mark.parametrize("ranks", [
        (0,) * 16,
        tuple(range(15, -1, -1)),
        (0,) * 15 + (300,),  # a rank past a byte
        (300,) + (0,) * 15,
        (0, 256, 300, 1, 2, 3, 4, 5) + (6,) * 8,
        (5, 5, 9, 20) * 4,
    ])
    def test_every_level_lowest_first(self, ranks):
        rank = RankFunction(SIG4, ranks)
        assert level_masks(rank) == [level_mask(rank, r) for r in sorted(set(ranks))]

    @pytest.mark.parametrize("sig", [SIG1, SIG2, SIG3, SIG4])
    def test_random_functions(self, sig):
        for seed in range(6):
            rank = random_rank_function(sig, 1 + seed * 3, seed)
            assert level_masks(rank) == [level_mask(rank, r) for r in range(rank.height + 1)]

    @pytest.mark.parametrize("spread", [1, 2, 7], ids=["height511", "height1022", "height3577"])
    def test_lowest_kept_past_the_limit(self, spread):
        # 9 atoms, a level per valuation: only the lowest LEVEL_MASKS_MAX
        # are built, whether or not the ranks fit a byte
        sig = Signature(tuple("pqrstuvwx"))
        order = list(range(sig.num_valuations))
        random.Random(spread).shuffle(order)
        rank = RankFunction(sig, [spread * x for x in order])
        kept = sorted(set(rank.ranks))[:LEVEL_MASKS_MAX]
        assert level_masks(rank) == [level_mask(rank, r) for r in kept]
        byte_ranks = RankFunction(sig, [x % 200 for x in order])  # 200 levels, each fits a byte
        assert level_masks(byte_ranks) == [level_mask(byte_ranks, r)
                                           for r in range(LEVEL_MASKS_MAX)]


class TestRankFunctionValue:
    def test_list_stored_as_tuple(self):
        r = RankFunction(SIG2, [2, 1, 1, 0])
        assert type(r.ranks) is tuple and r.ranks == (2, 1, 1, 0)
        assert r == R0 and hash(r) == hash(R0)

    @pytest.mark.parametrize("ranks, message", [
        ((0, 1, 2), "need 4 ranks, got 3"),
        ([0] * 5, "need 4 ranks, got 5"),
        ((0, -1, 1, 2), "ranks must be natural numbers"),
    ])
    def test_rejects_bad_ranks(self, ranks, message):
        with pytest.raises(ValueError) as err:
            RankFunction(SIG2, ranks)
        assert str(err.value) == message

    def test_slotted(self):
        assert not hasattr(R0, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            R0.ranks = (0, 0, 0, 0)

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)),
        copy.deepcopy,
        copy.copy,
        dataclasses.replace,
    ])
    def test_copies_are_equal_values(self, clone):
        r = clone(R0)
        assert r == R0 and hash(r) == hash(R0)
        assert r.sig == SIG2 and type(r.ranks) is tuple
        assert r.min_models_mask(0b0110) == R0.min_models_mask(0b0110)

    def test_replace_checks_again(self):
        assert dataclasses.replace(R0, ranks=[0, 0, 1, 1]).ranks == (0, 0, 1, 1)
        with pytest.raises(ValueError, match="need 4 ranks, got 2"):
            dataclasses.replace(R0, ranks=(0, 1))

    def test_equality_and_hash_by_value(self):
        assert RankFunction(SIG2, (2, 1, 1, 0)) == R0
        assert RankFunction(SIG2, (2, 1, 1, 1)) != R0
        assert RankFunction(Signature(("p", "r")), (2, 1, 1, 0)) != R0
        assert len({R0, RankFunction(SIG2, [2, 1, 1, 0])}) == 1


class TestNormalize:
    def test_relabels_contiguously(self):
        sig = SIG2
        assert normalize(RankFunction(sig, (5, 5, 9, 20))).ranks == (0, 0, 1, 2)

    def test_idempotent_on_normalized(self):
        assert normalize(R0) == R0

    def test_order_not_first_occurrence(self):
        assert normalize(RankFunction(SIG2, (3, 1, 1, 3))).ranks == (1, 0, 0, 1)

    @given(st.tuples(*[st.integers(0, 30)] * 4))
    def test_pointwise_order_preserved(self, ranks):
        r = RankFunction(SIG2, ranks)
        nr = normalize(r)
        assert nr.is_normalized
        for a in range(4):
            for b in range(4):
                assert (r.ranks[a] < r.ranks[b]) == (nr.ranks[a] < nr.ranks[b])

    @given(st.tuples(*[st.integers(0, 30)] * 4))
    def test_consequences_invariant(self, ranks):
        r = RankFunction(SIG2, ranks)
        nr = normalize(r)
        for fm in range(16):
            f = PropSet(SIG2, fm)
            assert consequences_of(r, f) == consequences_of(nr, f)


class TestEnumerate:
    def test_one_atom_by_hand(self):
        assert [r.ranks for r in enumerate_rank_functions(SIG1)] == [
            (0, 0),
            (0, 1),
            (1, 0),
        ]

    def test_two_atom_count_is_fubini(self, ranks75):
        assert len(ranks75) == 75 == fubini(4)

    def test_first_is_all_zero(self, ranks75):
        assert ranks75[0].ranks == (0, 0, 0, 0)

    def test_lexicographic_and_unique(self, ranks75):
        vecs = [r.ranks for r in ranks75]
        assert vecs == sorted(vecs)
        assert len(set(vecs)) == len(vecs)

    def test_all_normalized(self, ranks75):
        assert all(r.is_normalized for r in ranks75)

    @pytest.mark.parametrize("sig", [SIG1, SIG2])
    def test_matches_reference(self, sig):
        assert list(enumerate_rank_functions(sig)) == list(enumerate_rank_functions_reference(sig))

    def test_three_atom_count_is_fubini(self):
        # strictly increasing, all normalized and as many as there are
        # normalized vectors: exactly the sorted normalized vectors
        count, prev = 0, ()
        for r in enumerate_rank_functions(SIG3):
            assert prev < r.ranks and r.is_normalized
            prev = r.ranks
            count += 1
        assert count == fubini(8) == 545835

    def test_first_three_atom_function_is_cheap(self):
        # the enumerator builds each prefix's functions at once, without the
        # constructor, so count the functions alive once the first is yielded
        def alive():
            return sum(type(o) is RankFunction for o in gc.get_objects())

        gc.collect()
        before = alive()
        functions = enumerate_rank_functions(SIG3)
        assert next(functions).ranks == (0,) * 8
        built = alive() - before
        assert 0 < built < 545835 // 100

    def test_bulk_built_functions_match_checked_ones(self):
        wanted = {0, 4321, 545834}
        picked = [r for i, r in enumerate(enumerate_rank_functions(SIG3)) if i in wanted]
        for r in [*enumerate_rank_functions(SIG2), *picked]:
            checked = RankFunction(r.sig, r.ranks)
            assert r == checked and hash(r) == hash(checked)
            assert type(r) is RankFunction and type(r.ranks) is tuple
            assert not hasattr(r, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                r.ranks = checked.ranks
            for clone in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r),
                          dataclasses.replace(r)):
                assert clone == checked and hash(clone) == hash(checked)
                assert type(clone.ranks) is tuple

    def test_four_atoms_rejected(self):
        with pytest.raises(SignatureTooLargeError):
            next(iter(enumerate_rank_functions(Signature(("a", "b", "c", "d")))))

    def test_count_without_enumerating(self):
        for sig in (SIG1, SIG2):
            assert count_rank_functions(sig) == sum(1 for _ in enumerate_rank_functions(sig))
        assert count_rank_functions(SIG3) == 545835
        with pytest.raises(SignatureTooLargeError):
            count_rank_functions(Signature(("a", "b", "c", "d")))


class TestOrbits:
    @pytest.mark.parametrize("sig, orbits", [(SIG1, 2), (SIG2, 8), (SIG3, 128)])
    def test_weights_sum_to_the_count(self, sig, orbits):
        pairs = list(sweep_orbits(sig))
        assert len(pairs) == orbits
        assert sum(weight for _, weight in pairs) == count_rank_functions(sig)
        # one representative per tuple of level sizes, its levels in valuation order
        sizes = {tuple(r.ranks.count(l) for l in range(r.height + 1)) for r, _ in pairs}
        assert len(sizes) == orbits
        assert all(r.is_normalized and list(r.ranks) == sorted(r.ranks) for r, _ in pairs)

    @pytest.mark.parametrize("sig", [SIG1, SIG2])
    def test_weights_are_orbit_sizes(self, sig):
        # the level sizes of every enumerated function, counted
        by_sizes = {}
        for r in enumerate_rank_functions(sig):
            key = tuple(r.ranks.count(l) for l in range(r.height + 1))
            by_sizes[key] = by_sizes.get(key, 0) + 1
        assert {tuple(r.ranks.count(l) for l in range(r.height + 1)): weight
                for r, weight in sweep_orbits(sig)} == by_sizes

    def test_refused_past_three_atoms(self):
        with pytest.raises(SignatureTooLargeError):
            sweep_orbits(SIG4)


class TestRandom:
    def test_deterministic(self):
        a = random_rank_function(SIG2, 4, 123)
        b = random_rank_function(SIG2, 4, 123)
        assert a == b

    def test_single_level_is_all_zero(self):
        for seed in range(5):
            assert random_rank_function(SIG2, 1, seed).ranks == (0, 0, 0, 0)

    def test_documented_prng_golden(self):
        # one randrange(levels) per valuation from random.Random(seed),
        # then normalization
        rng = random.Random(7)
        raw = tuple(rng.randrange(4) for _ in range(4))
        got = random_rank_function(SIG2, 4, 7)
        assert got == normalize(RankFunction(SIG2, raw))
        assert got.ranks == (2, 1, 3, 0)

    def test_always_normalized(self):
        for seed in range(30):
            assert random_rank_function(SIG3, 5, seed).is_normalized

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            random_rank_function(SIG2, 0, 1)


class TestRankFile:
    def test_golden_format(self):
        assert format_rank_file(R0) == R0_FILE

    def test_round_trip(self):
        assert parse_rank_file(format_rank_file(R0)) == R0

    def test_round_trip_bit_exact(self, ranks75):
        for r in ranks75:
            text = format_rank_file(r)
            assert format_rank_file(parse_rank_file(text)) == text

    def test_round_trip_bit_exact_at_sixteen_atoms(self, rank16):
        text = format_rank_file(rank16)
        assert parse_rank_file(text) == rank16
        assert format_rank_file(parse_rank_file(text)) == text

    def test_parse_golden(self):
        assert parse_rank_file(R0_FILE) == R0

    @pytest.mark.parametrize(
        "text",
        [
            "0: 11\n1: 01 10\n2: 00\n",  # missing header
            "atoms: p q\n1: 11\n2: 01 10 00\n",  # levels must start at 0
            "atoms: p q\n0: 11\n2: 01 10 00\n",  # gap in levels
            "atoms: p q\n0: 11\n1: 01 10\n",  # 00 missing
            "atoms: p q\n0: 11 11\n1: 01 10 00\n",  # duplicate valuation
            "atoms: p q\n0: 111\n1: 01 10 00\n",  # wrong width
            "atoms: p q\n0:\n1: 11 01 10 00\n",  # empty level
            "atoms: p p\n0: 11 01 10 00\n",  # bad signature
            "atoms: p q\n²: 11 01 10 00\n",  # a digit to isdigit(), not to int()
            "atoms: p q\n0: 11\n١: 01 10 00\n",  # a decimal digit, but not ASCII
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(RankFileError):
            parse_rank_file(text)

    def test_writer_requires_normalized(self):
        with pytest.raises(ValueError):
            format_rank_file(RankFunction(SIG2, (0, 0, 0, 2)))


PQ = "atoms: p q\n"


def _parsed(parse, text):
    """What ``parse`` makes of ``text``: a RankFunction or a RankFileError message."""
    try:
        return parse(text)
    except RankFileError as exc:
        return f"RankFileError: {exc}"


class TestRankFileMatchesReference:
    """parse_rank_file against the token-by-token reference parser: the
    same rank function, or the same message for the first bad token."""

    def test_every_two_atom_file(self, ranks75):
        for r in ranks75:
            text = format_rank_file(r)
            assert _parsed(parse_rank_file, text) == _parsed(parse_rank_file_reference, text) == r

    def test_sixteen_atoms_sixteen_levels(self, rank16):
        text = format_rank_file(rank16)
        assert rank16.height == 15
        assert _parsed(parse_rank_file, text) == _parsed(parse_rank_file_reference, text)

    @pytest.mark.parametrize(
        "text, message",
        [
            (PQ + "0: 11 1 011 10 00\n", "valuation '1' does not fit 2 atoms"),  # mixed widths
            (PQ + "0: 11 01\n1: 10 001 0\n", "valuation '001' does not fit 2 atoms"),
            (PQ + "0: 11 +1 01 10 00\n", "valuation '+1' does not fit 2 atoms"),
            (PQ + "0: 11 -1 01 10 00\n", "valuation '-1' does not fit 2 atoms"),
            (PQ + "0: 11 ١٠ 01 10 00\n", "valuation '١٠' does not fit 2 atoms"),
            (PQ + "0: 11 11 1x\n1: 01 10 00\n", "valuation 11 listed twice"),
            (PQ + "0: 11 1x 11\n1: 01 10 00\n", "valuation '1x' does not fit 2 atoms"),
            (PQ + "0: 11 01\n1: 10 01 00\n", "valuation 01 listed twice"),
            (PQ + "0: 11 01\n1: 1x 01 00\n", "valuation '1x' does not fit 2 atoms"),
            (PQ + "0: 11 01\n1: 00 01 1x\n", "valuation 01 listed twice"),
            (PQ + "0: 11\n1: 01\n", "valuations missing a rank: 00 10"),
            (PQ + "0:\t11\t01\n1:\t10 00\n", None),  # tabs separate tokens too
            # int("1_1", 2) is 3
            ("atoms: p q r\n0: 1_1 000 001 010 011 100 101 110 111\n",
             "valuation '1_1' does not fit 3 atoms"),
        ],
    )
    def test_malformed_lines(self, text, message):
        got = _parsed(parse_rank_file, text)
        assert got == _parsed(parse_rank_file_reference, text)
        assert got == (RankFunction(SIG2, (1, 0, 1, 0)) if message is None
                       else f"RankFileError: {message}")
