"""Canonical DNF emission and theory literals."""

import random

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
    theory_text,
)

from helpers import SIG1, SIG2, SIG3, SIG16, ps

SIG12 = Signature(SIG16.atoms[:12])


def _height(f):
    kids = [getattr(f, name) for name in ("operand", "left", "right") if hasattr(f, name)]
    return 1 + max(map(_height, kids), default=0)


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
        # about 2048 minterms joined pairwise: 11 or 12 levels of
        # disjunction, where a chain of them was about 2047 deep, over
        # 11 conjunctions of literals of height 1 or 2
        s = PropSet(SIG12, random.Random(12).getrandbits(1 << 12))
        f = canonical_formula(s)
        assert models_of(f, SIG12) == s
        assert _height(f) <= (s.mask.bit_count() - 1).bit_length() + 11 + 2
        assert models_of(canonical_formula(PropSet(SIG12, 1 << 4095)), SIG12).mask == 1 << 4095

    def test_minterms_share_their_leading_literals(self):
        f = canonical_formula(PropSet.from_bits(SIG3, "000", "001"))
        assert f == Or(And(And(Not(Atom("p")), Not(Atom("q"))), Not(Atom("r"))),
                       And(And(Not(Atom("p")), Not(Atom("q"))), Atom("r")))
        assert f.left.left is f.right.left


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


class TestTheoryText:
    def test_bottom_literal(self):
        assert theory_text(Theory.bottom(SIG2)) == "bot"

    def test_consistent_theory_is_dnf_of_models(self):
        assert theory_text(Theory(ps(SIG2, "!q"))) == "(!p & !q) | (p & !q)"
