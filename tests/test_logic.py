"""Logic core: parsing, truth-table semantics, theory algebra."""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankedrev import (
    And,
    Atom,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    PropSet,
    Signature,
    Theory,
    UnknownAtomError,
    canonical_formula,
    cn_with,
    format_formula,
    models_of,
    parse_formula,
    theory_contains,
    theory_intersect,
)

from rankedrev import logic
from rankedrev.logic import MAX_FORMULA_DEPTH

from helpers import SIG2, SIG3, height, ps, th
from oracles import atom_mask_reference, models_by_truth_table


class TestSignature:
    def test_basic(self, sig2):
        assert sig2.n == 2
        assert sig2.num_valuations == 4
        assert sig2.universe_mask == 0b1111

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_sizes(self, n):
        sig = Signature(tuple(f"a{i}" for i in range(n)))
        assert (sig.n, sig.num_valuations, sig.universe_mask) == (n, 2**n, 2**2**n - 1)
        for clone in (pickle.loads(pickle.dumps(sig)), copy.deepcopy(sig)):
            assert clone == sig
            assert (clone.n, clone.num_valuations, clone.universe_mask) == (n, 2**n, 2**2**n - 1)

    def test_sizes_are_not_fields(self):
        sig = Signature(["p", "q"])
        assert [f.name for f in dataclasses.fields(sig)] == ["atoms"]
        assert repr(sig) == "Signature(atoms=('p', 'q'))"
        assert sig == SIG2 and hash(sig) == hash(SIG2)
        assert sig != Signature(("p", "r"))

    def test_universe_mask_computed_once(self):
        sig = Signature(tuple(f"a{i}" for i in range(16)))
        assert sig.universe_mask is sig.universe_mask

    def test_bit_order_first_atom_most_significant(self, sig2):
        # valuation "10" (p true, q false) is index 2
        assert sig2.valuation_from_bits("10") == 2
        assert sig2.valuation_bits(2) == "10"
        assert sorted(ps(sig2, "p").valuations()) == [2, 3]

    def test_valuations_in_ascending_order(self):
        # looked up below 256, read from the binary digits from 256 on
        rng = random.Random(3)
        for n in (1, 2, 3, 4, 9, 16):
            sig = Signature(tuple("pqrstuvwxyzabcde"[:n]))
            uni, size = sig.universe_mask, sig.num_valuations
            masks = {0, 1, uni, uni - 1, 1 << size - 1, 255 & uni, 256 & uni,
                     *(rng.getrandbits(size) for _ in range(5))}
            for m in masks:
                data = m.to_bytes(max(1, size // 8), "little")
                assert list(PropSet(sig, m).valuations()) == [
                    8 * i + b for i, byte in enumerate(data) for b in range(8) if byte >> b & 1]

    @pytest.mark.parametrize("atoms", [(), ("p",) * 2, ("P",), ("9x",), ("true",)])
    def test_rejects_bad_atoms(self, atoms):
        with pytest.raises(ValueError):
            Signature(atoms)

    def test_rejects_too_many_atoms(self):
        with pytest.raises(ValueError):
            Signature(tuple(f"a{i}" for i in range(17)))

    def test_largest_allowed_signature(self):
        sig = Signature(tuple(f"a{i}" for i in range(16)))
        assert sig.num_valuations == 65536

    @pytest.mark.parametrize("n", range(1, 13))
    def test_atom_masks_match_reference(self, n):
        sig = Signature(tuple(f"a{i}" for i in range(n)))
        for i, name in enumerate(sig.atoms):
            assert sig.atom_truth_mask(name) == atom_mask_reference(sig, i)

    def test_atom_masks_match_reference_at_sixteen_atoms(self):
        sig = Signature(tuple(f"a{i}" for i in range(16)))
        for i in (0, 15):
            assert sig.atom_truth_mask(f"a{i}") == atom_mask_reference(sig, i)


class TestParse:
    def test_conjunction_of_negation(self, sig2):
        assert parse_formula("p & !q", sig2) == And(Atom("p"), Not(Atom("q")))

    def test_constant(self, sig2):
        assert parse_formula("true", sig2) == Const(True)

    def test_nested_implication(self, sig2):
        assert parse_formula("p -> (q <-> p)", sig2) == Implies(
            Atom("p"), Iff(Atom("q"), Atom("p"))
        )

    def test_imp_right_associative(self, sig3):
        assert parse_formula("p -> q -> r", sig3) == Implies(
            Atom("p"), Implies(Atom("q"), Atom("r"))
        )

    def test_iff_right_associative(self, sig3):
        assert parse_formula("p <-> q <-> r", sig3) == Iff(
            Atom("p"), Iff(Atom("q"), Atom("r"))
        )

    def test_and_binds_tighter_than_or(self, sig3):
        assert parse_formula("p | q & r", sig3) == Or(
            Atom("p"), And(Atom("q"), Atom("r"))
        )

    def test_unknown_atom_named(self, sig2):
        with pytest.raises(UnknownAtomError) as exc:
            parse_formula("p & r", sig2)
        assert exc.value.atom == "r"
        assert exc.value.position == 4

    def test_syntax_error_position(self, sig2):
        with pytest.raises(ParseError) as exc:
            parse_formula("p & ", sig2)
        assert exc.value.position == 4

    def test_chain_is_one_node(self, sig3):
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        assert parse_formula("p & q & r", sig3) == And(p, q, r)
        assert parse_formula("p | q & r | !p", sig3) == Or(p, And(q, r), Not(p))
        assert parse_formula("p & q | r -> p & !q & r", sig3) == Implies(
            Or(And(p, q), r), And(p, Not(q), r))

    def test_parentheses_are_a_node_boundary(self, sig3):
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        for text, f in [("(p & q) & r", And(And(p, q), r)), ("p & (q & r)", And(p, And(q, r))),
                        ("(p | q) | (r | p)", Or(Or(p, q), Or(r, p)))]:
            assert parse_formula(text, sig3) == f
            assert format_formula(f) == text

    @pytest.mark.parametrize("node", [And, Or])
    def test_chain_needs_two_operands(self, node):
        for operands in ((Atom("p"),), ()):
            with pytest.raises(ValueError, match="two or more operands"):
                node(*operands)
        f = node(Atom("p"), Atom("q"), Atom("p"))
        assert f.operands == (Atom("p"), Atom("q"), Atom("p"))
        assert [x.name for x in dataclasses.fields(f)] == ["operands"]
        assert not hasattr(f, "left") and not hasattr(f, "right")
        for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert clone == f and hash(clone) == hash(f)

    def test_unicode_whitespace_is_skipped(self, sig2):
        assert parse_formula("\tp\x1c&\u3000q\n", sig2) == And(Atom("p"), Atom("q"))

    @pytest.mark.parametrize("text, position", [("p & é", 4), ("A", 0), ("p <- q", 2),
                                                ("p & _q", 4), ("!1", 1), ("p - > q", 2)])
    def test_unexpected_character_position(self, text, position, sig2):
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse_formula(text, sig2)
        assert exc.value.position == position

    @pytest.mark.parametrize("bad", ["", "p q", "(p", "p &", "p @ q", "->"])
    def test_rejects_malformed(self, bad, sig2):
        with pytest.raises(ParseError):
            parse_formula(bad, sig2)


def _nested_chains(levels):
    """((p & q & q & q) & q & q & q)...: one level of tree per parenthesis."""
    text = "p"
    for _ in range(levels):
        text = f"({text} & q & q & q)"
    return text


class TestNestingLimit:
    """Text nests at most MAX_FORMULA_DEPTH deep, so neither the parser
    nor models_of and format_formula on the tree run out of stack; deeper
    text fails with ParseError. A chain of & or | is one level."""

    @pytest.mark.parametrize("text, height_", [
        ("(" * (MAX_FORMULA_DEPTH - 1) + "p" + ")" * (MAX_FORMULA_DEPTH - 1), 1),
        ("!" * (MAX_FORMULA_DEPTH - 1) + "p", MAX_FORMULA_DEPTH),
        (" & ".join(["p"] * MAX_FORMULA_DEPTH), 2),  # once 256 deep, now one And
        (" -> ".join(["p"] * MAX_FORMULA_DEPTH), MAX_FORMULA_DEPTH),
        ("!" * (MAX_FORMULA_DEPTH - 2) + "p | " + " | ".join(["q"] * 156), MAX_FORMULA_DEPTH),
        # each parenthesis is a level of the text: 254 of them and the
        # chain operator inside the last make 256
        (_nested_chains(MAX_FORMULA_DEPTH - 2), MAX_FORMULA_DEPTH - 1),
    ], ids=["parentheses", "negations", "and-chain", "implication-chain", "mixed", "chains"])
    def test_at_the_limit(self, text, height_, sig2):
        f = parse_formula(text, sig2)
        assert height(f) == height_
        assert set(models_of(f, sig2).valuations()) == models_by_truth_table(f, sig2)
        assert models_of(f, sig2) == models_of(parse_formula(format_formula(f), sig2), sig2)

    @pytest.mark.parametrize("text, height_", [
        (" & ".join(["p"] * (MAX_FORMULA_DEPTH + 1)), 2),
        (" & ".join(["p"] * 2000), 2),
        ("!" * 100 + "(" + " | ".join(["q"] * 157) + ")", 102),
        (_nested_chains(86), 87),
    ], ids=["and-chain", "2000-and-chain", "mixed", "chains"])
    def test_chains_are_one_level(self, text, height_, sig2):
        # texts that nested too deep while a chain was as tall as it is long
        f = parse_formula(text, sig2)
        assert height(f) == height_
        assert set(models_of(f, sig2).valuations()) == models_by_truth_table(f, sig2)
        assert parse_formula(format_formula(f), sig2) == f

    @pytest.mark.parametrize("text, position", [
        ("(" * 400 + "p" + ")" * 400, MAX_FORMULA_DEPTH - 1),
        ("(" * MAX_FORMULA_DEPTH + "p" + ")" * MAX_FORMULA_DEPTH, MAX_FORMULA_DEPTH - 1),
        ("!" * MAX_FORMULA_DEPTH + "p", MAX_FORMULA_DEPTH - 1),
        # the 256th operator of the chain: a term and its operator take 5
        # characters, 6 with <->
        (" -> ".join(["p"] * (MAX_FORMULA_DEPTH + 1)), 5 * MAX_FORMULA_DEPTH - 3),
        (" <-> ".join(["p"] * (MAX_FORMULA_DEPTH + 1)), 6 * MAX_FORMULA_DEPTH - 4),
        (" <-> ".join(["p"] * 2000), None),
        # a chain adds a level over its tallest operand, here at its first "|"
        ("!" * (MAX_FORMULA_DEPTH - 1) + "p | " + " | ".join(["q"] * 156), MAX_FORMULA_DEPTH + 1),
        # levels add up across parentheses: the first "&" of the innermost
        (_nested_chains(MAX_FORMULA_DEPTH - 1), MAX_FORMULA_DEPTH + 1),
    ], ids=["400-parentheses", "parentheses", "negations", "implication-chain",
            "257-iff-chain", "iff-chain", "mixed", "chains"])
    def test_past_the_limit(self, text, position, sig2):
        with pytest.raises(ParseError, match=f"nests more than {MAX_FORMULA_DEPTH} deep") as exc:
            parse_formula(text, sig2)
        if position is not None:
            assert exc.value.position == position


class TestModels:
    def test_atom(self, sig2):
        assert ps(sig2, "p").mask == 0b1100  # valuations 10, 11

    def test_false(self, sig2):
        assert ps(sig2, "false").mask == 0

    def test_implication_matches_truth_table(self, sig2):
        f = parse_formula("p -> q", sig2)
        expected = models_by_truth_table(f, sig2)
        assert expected == {0, 1, 3}
        assert set(models_of(f, sig2).valuations()) == expected

    def test_equivalent_formulas_same_propset(self, sig2):
        assert ps(sig2, "p -> q") == ps(sig2, "!p | q")
        assert ps(sig2, "!(p & q)") == ps(sig2, "!p | !q")

    def test_shared_subtrees_are_evaluated_once(self, monkeypatch):
        # canonical_formula at 10 atoms is one Or of 320 flat minterms, And
        # nodes of 10 literals, and its literals are shared nodes. With no
        # memo, _mask_of is called once per node of the tree, and once on
        # a negated atom, whose mask the signature keeps
        sig = Signature(tuple("pqrstuvwxy"))
        s = ps(sig, "(p | q & !r) & (x <-> y)")
        f = canonical_formula(s)
        assert isinstance(f, Or) and len(f.operands) == 320
        assert all(isinstance(t, And) and len(t.operands) == 10 for t in f.operands)
        assert f.operands[0].operands[0] is f.operands[1].operands[0]
        calls = []
        mask_of = logic._mask_of
        monkeypatch.setattr(logic, "_mask_of", lambda *a: calls.append(1) or mask_of(*a))
        assert models_of(f, sig) == s
        assert len(calls) == 1 + 320 * (1 + 10)


def _formulas(sig):
    base = st.sampled_from(
        [Atom(a) for a in sig.atoms] + [Const(True), Const(False)]
    )
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.lists(kids, min_size=2, max_size=3).map(lambda ops: And(*ops)),
            st.lists(kids, min_size=2, max_size=3).map(lambda ops: Or(*ops)),
            st.builds(Implies, kids, kids),
            st.builds(Iff, kids, kids),
        ),
        max_leaves=12,
    )


class TestSemanticsProperties:
    @given(f=_formulas(SIG3))
    def test_models_match_truth_table(self, f):
        assert set(models_of(f, SIG3).valuations()) == models_by_truth_table(f, SIG3)

    @given(f=_formulas(SIG3), g=_formulas(SIG3))
    def test_connectives_are_set_operations(self, f, g):
        mf, mg = models_of(f, SIG3), models_of(g, SIG3)
        assert models_of(And(f, g), SIG3) == (mf & mg)
        assert models_of(Or(f, g), SIG3) == (mf | mg)
        assert models_of(Not(f), SIG3) == ~mf

    @given(f=_formulas(SIG3))
    @settings(max_examples=60)
    def test_format_round_trips(self, f):
        assert parse_formula(format_formula(f), SIG3) == f


class TestTheoryAlgebra:
    def test_cn_with_intersects(self, sig2):
        k = th(sig2, "q")
        assert cn_with(k, ps(sig2, "p")) == th(sig2, "p & q")

    def test_cn_with_bottom(self, sig2):
        for text in ("p", "true", "false"):
            assert cn_with(Theory.bottom(sig2), ps(sig2, text)) == Theory.bottom(sig2)

    def test_cn_with_true_is_identity(self, sig2):
        for km in range(16):
            k = Theory(PropSet(sig2, km))
            assert cn_with(k, PropSet.full(sig2)) == k

    def test_contains(self, sig2):
        assert theory_contains(th(sig2, "!q"), ps(sig2, "!q"))
        assert not theory_contains(th(sig2, "p"), ps(sig2, "!q"))
        assert theory_contains(Theory.bottom(sig2), ps(sig2, "false"))

    def test_intersect(self, sig2):
        assert theory_intersect(th(sig2, "!q"), th(sig2, "!p")) == th(sig2, "!(p & q)")
        k = th(sig2, "p")
        assert theory_intersect(k, Theory.bottom(sig2)) == k
        assert theory_intersect(k, k) == k

    def test_expansion_contains_input_everywhere(self, sig2):
        for km in range(16):
            for fm in range(16):
                k, f = Theory(PropSet(sig2, km)), PropSet(sig2, fm)
                assert theory_contains(cn_with(k, f), f)

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
    def test_cn_with_monotone(self, a, b, c, d):
        k1, k2 = Theory(PropSet(SIG2, a & b)), Theory(PropSet(SIG2, a))
        f1, f2 = PropSet(SIG2, c & d), PropSet(SIG2, c)
        # k1 models ⊆ k2 models and f1 ⊆ f2 force the ordering of the closures
        assert cn_with(k1, f1).models.issubset(cn_with(k2, f2).models)

    def test_subset_inverts_for_formula_sets(self, sig2):
        # Cn(p & q) is a stronger theory than Cn(p): more formulas, fewer models
        strong, weak = th(sig2, "p & q"), th(sig2, "p")
        assert strong.models.issubset(weak.models)
        assert theory_contains(strong, ps(sig2, "p"))
        assert not theory_contains(weak, ps(sig2, "p & q"))
