"""Canonical DNF emission and theory literals."""

import random

import pytest

from rankedrev import (
    And,
    Atom,
    Const,
    Not,
    Or,
    PropSet,
    Signature,
    Theory,
    canonical_formula,
    dnf_text,
    models_of,
    parse_formula,
    theory_text,
)

from helpers import SIG1, SIG2, SIG3, SIG16, height, ps

SIG12 = Signature(SIG16.atoms[:12])


class TestCanonicalFormula:
    def test_empty_is_false(self):
        assert canonical_formula(PropSet.empty(SIG2)) == Const(False)

    def test_full_is_true(self):
        assert canonical_formula(PropSet.full(SIG2)) == Const(True)

    def test_single_minterm(self):
        f = canonical_formula(ps(SIG2, "p & q"))
        assert f == And(Atom("p"), Atom("q"))

    def test_two_minterms_ascending(self):
        f = canonical_formula(PropSet.from_bits(SIG2, "00", "11"))
        assert f == Or(And(Not(Atom("p")), Not(Atom("q"))), And(Atom("p"), Atom("q")))

    def test_round_trip_all_propsets_one_atom(self):
        for m in range(4):
            s = PropSet(SIG1, m)
            assert models_of(canonical_formula(s), SIG1) == s

    def test_round_trip_all_propsets_two_atoms(self):
        for m in range(16):
            s = PropSet(SIG2, m)
            assert models_of(canonical_formula(s), SIG2) == s

    def test_round_trip_all_propsets_three_atoms(self):
        for m in range(256):
            s = PropSet(SIG3, m)
            assert models_of(canonical_formula(s), SIG3) == s

    def test_round_trip_at_twelve_atoms(self):
        # about 2048 minterms: one Or of And nodes of 12 literals, a
        # negated atom two levels, where minterms joined pairwise made a
        # tree 24 deep and a chain of them about 2047
        s = PropSet(SIG12, random.Random(12).getrandbits(1 << 12))
        f = canonical_formula(s)
        assert models_of(f, SIG12) == s
        assert height(f) == 4
        assert models_of(canonical_formula(PropSet(SIG12, 1 << 4095)), SIG12).mask == 1 << 4095

    def test_minterms_share_their_leading_literals(self):
        # each minterm is one flat And; the literals are shared nodes
        f = canonical_formula(PropSet.from_bits(SIG3, "000", "001"))
        assert f == Or(And(Not(Atom("p")), Not(Atom("q")), Not(Atom("r"))),
                       And(Not(Atom("p")), Not(Atom("q")), Atom("r")))
        assert f.operands[0].operands[0] is f.operands[1].operands[0]


class TestDnfText:
    def test_examples(self):
        assert dnf_text(PropSet.empty(SIG2)) == "false"
        assert dnf_text(PropSet.full(SIG2)) == "true"
        assert dnf_text(ps(SIG2, "p & q")) == "p & q"
        assert dnf_text(PropSet.from_bits(SIG2, "00", "11")) == "(!p & !q) | (p & q)"

    def test_single_atom_signature(self):
        assert dnf_text(PropSet.from_bits(SIG1, "0")) == "!p"
        assert dnf_text(PropSet.from_bits(SIG1, "1")) == "p"

    def test_text_reparses_to_same_propset(self):
        for m in range(256):
            s = PropSet(SIG3, m)
            assert ps(SIG3, dnf_text(s)) == s


    @pytest.mark.parametrize("sig", [SIG1, SIG2, SIG3], ids=["1atom", "2atoms", "3atoms"])
    def test_text_parses_to_the_canonical_formula(self, sig):
        for m in range(sig.universe_mask + 1):
            s = PropSet(sig, m)
            assert parse_formula(dnf_text(s), sig) == canonical_formula(s)

    @pytest.mark.parametrize("n, text, models", [(9, "p", 256), (16, "p & q & r & s & t & u & v", 512)],
                             ids=["9atoms", "16atoms"])
    def test_text_reads_back_past_the_nesting_limit(self, n, text, models):
        # more minterms than MAX_FORMULA_DEPTH: a chain of them nested too
        # deep while it was as tall as it is long
        sig = Signature(SIG16.atoms[:n])
        s = ps(sig, text)
        assert s.size() == models
        f = parse_formula(dnf_text(s), sig)
        assert f == canonical_formula(s)
        assert models_of(f, sig) == s


class TestTheoryText:
    def test_bottom_literal(self):
        assert theory_text(Theory.bottom(SIG2)) == "bot"

    def test_consistent_theory_is_dnf_of_models(self):
        assert theory_text(Theory(ps(SIG2, "!q"))) == "(!p & !q) | (p & !q)"
