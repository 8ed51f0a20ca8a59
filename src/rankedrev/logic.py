"""Finite propositional logic over a fixed signature.

Formula trees have And and Or nodes of two or more operands, one per
chain of the operator in the text. Formulas are quotiented by logical
equivalence as soon as they are evaluated: the working representation is
the set of valuations satisfying the formula (:class:`PropSet`), a bitmask
over the 2**n valuations of the signature. Theories are deductively
closed sets of formulas and are represented by their model sets; the
inconsistent theory has an empty model set and contains every formula.
Note the order inversion this buys: K ⊆ K' as formula sets exactly when
models(K) ⊇ models(K').

Valuations are indexed 0 .. 2**n - 1 with the first atom of the
signature as the most significant bit, so the valuation written "10"
over atoms (p, q) is index 2. Bit v of a PropSet mask is set exactly
when valuation v belongs to the set.

All values here are immutable after construction and safe to share
across concurrent workers.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from itertools import compress, count, repeat
from typing import Iterator

from .errors import ParseError, SignatureError, UnknownAtomError

MAX_ATOMS = 16

_ATOM_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_RESERVED_WORDS = frozenset({"true", "false"})
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # bytes.translate table: digit -> its value
_BYTE_MEMBERS = tuple(tuple(v for v in range(8) if m >> v & 1) for m in range(256))


@dataclass(frozen=True)
class Signature:
    """An ordered tuple of atom names; fixes the valuation universe, whose
    sizes ``n``, ``num_valuations`` (2**n) and ``universe_mask`` (one bit
    per valuation) are computed once and are not fields."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not 1 <= len(atoms) <= MAX_ATOMS:
            raise SignatureError(f"need between 1 and {MAX_ATOMS} atoms, got {len(atoms)}")
        if len(set(atoms)) != len(atoms):
            raise SignatureError(f"duplicate atom names in {atoms}")
        for name in atoms:
            if not _ATOM_NAME_RE.match(name):
                raise SignatureError(f"bad atom name {name!r}")
            if name in _RESERVED_WORDS:
                # 'true' and 'false' are constants of the formula grammar.
                raise SignatureError(f"atom name {name!r} is reserved")
        n = len(atoms)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num_valuations", 1 << n)
        object.__setattr__(self, "universe_mask", (1 << (1 << n)) - 1)
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(atoms)})
        masks = []
        for i in range(n):
            # atom i is valuation bit n-1-i: runs of 2**(n-1-i) zeros then
            # as many ones, the pattern doubled until it covers 2**n bits
            half = 1 << (n - 1 - i)
            m, width = ((1 << half) - 1) << half, 2 * half
            while width < 1 << n:
                m, width = m | m << width, 2 * width
            masks.append(m)
        object.__setattr__(self, "_atom_masks", tuple(masks))
        object.__setattr__(self, "_negated_masks",
                           {a: self.universe_mask ^ m for a, m in zip(atoms, masks)})

    def atom_truth_mask(self, name: str) -> int:
        """Mask of the valuations that make ``name`` true."""
        try:
            return self._atom_masks[self._index[name]]
        except KeyError:
            raise UnknownAtomError(name, 0) from None

    def valuation_bits(self, v: int) -> str:
        """Render valuation ``v`` as a bit string in atom order, e.g. "10"."""
        return format(v, f"0{self.n}b")

    def valuation_from_bits(self, bits: str) -> int:
        if len(bits) != self.n or set(bits) - {"0", "1"}:
            raise ValueError(f"valuation {bits!r} does not fit {self.n} atoms")
        return int(bits, 2)


@dataclass(frozen=True)
class PropSet:
    """A set of valuations: the semantic equivalence class of a formula."""

    sig: Signature
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.sig.universe_mask:
            raise ValueError(f"mask {self.mask:#x} out of range for {self.sig.atoms}")

    @classmethod
    def empty(cls, sig: Signature) -> "PropSet":
        return cls(sig, 0)

    @classmethod
    def full(cls, sig: Signature) -> "PropSet":
        return cls(sig, sig.universe_mask)

    @classmethod
    def from_valuations(cls, sig: Signature, valuations) -> "PropSet":
        m = 0
        for v in valuations:
            m |= 1 << v
        return cls(sig, m)

    @classmethod
    def from_bits(cls, sig: Signature, *bit_strings: str) -> "PropSet":
        return cls.from_valuations(sig, (sig.valuation_from_bits(b) for b in bit_strings))

    def __and__(self, other: "PropSet") -> "PropSet":
        return PropSet(self.sig, self.mask & other.mask)

    def __or__(self, other: "PropSet") -> "PropSet":
        return PropSet(self.sig, self.mask | other.mask)

    def __invert__(self) -> "PropSet":
        return PropSet(self.sig, self.sig.universe_mask ^ self.mask)

    def __contains__(self, valuation: int) -> bool:
        return bool((self.mask >> valuation) & 1)

    def issubset(self, other: "PropSet") -> bool:
        return (self.mask | other.mask) == other.mask

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def valuations(self) -> Iterator[int]:
        """The members in ascending order. Up to 3 atoms they are looked up;
        past that the mask's binary digits, lowest first, as bytes 0 and 1,
        select from the valuation numbers, so no shift of the whole mask is
        made per valuation."""
        if self.mask < 256:
            return iter(_BYTE_MEMBERS[self.mask])
        return compress(count(), bin(self.mask)[:1:-1].encode().translate(_DIGIT_BYTES))

    def size(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class Theory:
    """A deductively closed belief set, identified with its model set.

    Contains a formula f exactly when models ⊆ models(f). The empty
    model set is the inconsistent theory, which contains everything and
    is a legal first argument of every revision.
    """

    models: PropSet

    @classmethod
    def bottom(cls, sig: Signature) -> "Theory":
        """The inconsistent theory."""
        return cls(PropSet.empty(sig))

    @classmethod
    def top(cls, sig: Signature) -> "Theory":
        """The tautologies-only theory (every valuation is a model)."""
        return cls(PropSet.full(sig))

    @property
    def sig(self) -> Signature:
        return self.models.sig

    @property
    def is_consistent(self) -> bool:
        return not self.models.is_empty


def _check_over(sig: Signature, *values) -> None:
    """SignatureError unless every value, a PropSet or Theory, is over sig."""
    for x in values:
        if x.sig is not sig and x.sig != sig:
            raise SignatureError(f"{type(x).__name__} is over atoms {x.sig.atoms}, "
                                 f"not {sig.atoms}")


def cn_with(k: Theory, f: PropSet) -> Theory:
    """Consequences of k together with f: model set is the intersection."""
    return Theory(k.models & f)


def theory_contains(k: Theory, f: PropSet) -> bool:
    """Whether f belongs to k, i.e. every model of k satisfies f."""
    return k.models.issubset(f)


def theory_intersect(k: Theory, k2: Theory) -> Theory:
    """Intersection of the formula sets; unions the model sets."""
    return Theory(k.models | k2.models)


# --- packed vectors -------------------------------------------------------
#
# Exhaustive checks at n <= 3 work on packed vectors: a model mask fits in
# a byte, so a map over all formula classes x packs into one int whose
# byte x is the value at x. Conditions enter as vectors whose bytes are
# 0xFF or 0, and a vector that is nonzero exactly where a property fails
# has its first counterexample at its lowest nonzero byte.

_NONZERO = bytes([0] + [255] * 255)  # bytes.translate table: b -> b != 0
_ZERO = bytes([255] + [0] * 255)  # bytes.translate table: b -> b == 0


def _ints(rows) -> list[int]:
    return list(map(int.from_bytes, rows, repeat("little")))


def _first_byte(v: int) -> int:
    """Index of the lowest nonzero byte of a nonzero vector."""
    return ((v & -v).bit_length() - 1) >> 3


class _Masks:
    """Vectors and gather tables that depend only on the signature. Each
    family is indexed by a mask a; x ranges over the formula classes."""

    def __init__(self, nmasks: int):
        xs = range(nmasks)
        ones = int.from_bytes(b"\1" * nmasks, "little")
        self.and_idx = [bytes(a & x for x in xs) for a in xs]  # gather index a & x
        self.or_idx = [bytes(a | x for x in xs) for a in xs]  # gather index a | x
        self.ident = int.from_bytes(bytes(xs), "little")  # x
        self.spread = [a * ones for a in xs]  # a
        self.inter = _ints(self.and_idx)  # a & x
        self.meet = _ints(r.translate(_NONZERO) for r in self.and_idx)  # a & x != 0
        self.apart = _ints(r.translate(_ZERO) for r in self.and_idx)  # a & x == 0
        self.sub = _ints(bytes(255 if a & x == a else 0 for x in xs) for a in xs)  # a ⊆ x


@functools.cache
def _masks(nmasks: int) -> _Masks:
    return _Masks(nmasks)


# --- formulas -------------------------------------------------------------


class Formula:
    """Abstract syntax tree node; see the concrete subclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


class _Chain(Formula):
    """Two or more operands joined by one operator: ``And(a, b, c)`` is
    a & b & c. One operand would not survive a format round trip."""

    def __init__(self, *operands: Formula):
        if len(operands) < 2:
            raise ValueError(f"{type(self).__name__} needs two or more operands")
        object.__setattr__(self, "operands", operands)


@dataclass(frozen=True, init=False)
class And(_Chain):
    operands: tuple[Formula, ...]


@dataclass(frozen=True, init=False)
class Or(_Chain):
    operands: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


def models_of(f: Formula, sig: Signature) -> PropSet:
    """Truth-table semantics: the valuations under which f evaluates true."""
    return PropSet(sig, _mask_of(f, sig))


def _mask_of(f: Formula, sig: Signature) -> int:
    uni = sig.universe_mask
    if isinstance(f, Atom):
        return sig.atom_truth_mask(f.name)
    if isinstance(f, Const):
        return uni if f.value else 0
    if isinstance(f, Not):
        if isinstance(f.operand, Atom) and f.operand.name in sig._negated_masks:
            return sig._negated_masks[f.operand.name]  # a literal: computed once
        return uni ^ _mask_of(f.operand, sig)
    if isinstance(f, And):
        return functools.reduce(operator.and_, map(_mask_of, f.operands, repeat(sig)))
    if isinstance(f, Or):
        return functools.reduce(operator.or_, map(_mask_of, f.operands, repeat(sig)))
    if isinstance(f, Implies):
        return (uni ^ _mask_of(f.left, sig)) | _mask_of(f.right, sig)
    if isinstance(f, Iff):
        return uni ^ (_mask_of(f.left, sig) ^ _mask_of(f.right, sig))
    raise TypeError(f"not a formula node: {f!r}")


# --- parsing --------------------------------------------------------------
#
# Grammar (whitespace insignificant, -> and <-> right-associative):
#   formula := iff
#   iff     := imp ("<->" imp)*
#   imp     := or ("->" or)*
#   or      := and ("|" and)*
#   and     := unary ("&" unary)*
#   unary   := "!" unary | "(" formula ")" | "true" | "false" | atom
#
# A chain of & or of | is one node, but not across parentheses: (p & q) & r
# is an And inside an And. Formulas nest at most MAX_FORMULA_DEPTH deep,
# counting each "!", "(" and binary operator on the way down the text, and
# each level of the tree: the parser, models_of and format_formula recurse
# that deep.

MAX_FORMULA_DEPTH = 256

# an operator, a word, or any other non-space character, which is an error
_TOKEN_RE = re.compile(r"(<->|->|[!&|()])|([a-z][a-z0-9_]*)|(\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        op, word, other = m.groups()
        if other:
            raise ParseError(f"unexpected character {other!r}", m.start())
        if op:
            tokens.append((op, op, m.start()))
        else:
            tokens.append(("CONST" if word in _RESERVED_WORDS else "ATOM", word, m.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


# each binary operator: how tightly it binds, how tightly its right
# operand must bind (-> and <-> group to the right, & and | to the left),
# and its node
_BINARY = {"<->": (1, 1, Iff), "->": (2, 2, Implies), "|": (3, 4, Or), "&": (4, 5, And)}


class _Parser:
    """Precedence climbing. ``binary`` and ``unary`` return a formula with
    the height of its tree; ``depth`` counts the ``binary`` calls under way."""

    def __init__(self, tokens, sig: Signature):
        self.tokens = tokens
        self.sig = sig
        self.pos = 0
        self.depth = 0

    def parse(self) -> Formula:
        f = self.binary(1, 0)[0]
        kind, text, at = self.tokens[self.pos]
        if kind != "EOF":
            raise ParseError(f"unexpected {text!r}", at)
        return f

    def binary(self, min_prec: int, at: int) -> tuple[Formula, int]:
        """A unary, then the operators that bind at least min_prec; ``at``
        is where the text nests too deep if it does. A run of one operator is
        one node; -> and <-> take one operand, whose own run takes the rest."""
        if self.depth == MAX_FORMULA_DEPTH:
            raise _too_deep(at)
        self.depth += 1
        left, height = self.unary()
        tokens = self.tokens
        while (op := _BINARY.get(kind := tokens[self.pos][0])) and op[0] >= min_prec:
            operands = [left]
            while tokens[self.pos][0] == kind:
                at = tokens[self.pos][2]
                self.pos += 1
                right, h = self.binary(op[1], at)
                operands.append(right)
                height = max(height, h)
                if height == MAX_FORMULA_DEPTH:
                    raise _too_deep(at)
            left, height = op[2](*operands), height + 1
        self.depth -= 1
        return left, height

    def unary(self) -> tuple[Formula, int]:
        kind, text, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "ATOM":
            if text not in self.sig._index:
                raise UnknownAtomError(text, at)
            return Atom(text), 1
        if kind == "!":
            f, height = self.binary(5, at)  # 5: no binary operator binds that tight
            if height == MAX_FORMULA_DEPTH:
                raise _too_deep(at)
            return Not(f), height + 1
        if kind == "(":
            f, height = self.binary(1, at)
            kind2, text2, at2 = self.tokens[self.pos]
            self.pos += 1
            if kind2 != ")":
                raise ParseError(f"expected ')', got {text2!r}", at2)
            return f, height
        if kind == "CONST":
            return Const(text == "true"), 1
        raise ParseError(f"expected a formula, got {text or 'end of input'!r}", at)


def _too_deep(at: int) -> ParseError:
    return ParseError(f"formula nests more than {MAX_FORMULA_DEPTH} deep", at)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse formula text over the signature; total on grammatical input."""
    return _Parser(_tokenize(text), sig).parse()


# --- rendering ------------------------------------------------------------

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def format_formula(f: Formula) -> str:
    """Render an AST back to grammar-compatible text (reparses to the same tree)."""
    return _fmt(f, 0)


def _fmt(f: Formula, required: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Const):
        return "true" if f.value else "false"
    prec = _PREC[type(f)]
    if isinstance(f, Not):
        s = "!" + _fmt(f.operand, prec)
    elif isinstance(f, (And, Or)):
        op = " & " if isinstance(f, And) else " | "
        # an operand of the same operator is a node of its own: parenthesised
        s = op.join(_fmt(g, prec + 1) for g in f.operands)
    else:
        op = "->" if isinstance(f, Implies) else "<->"
        # right-associative: left child needs strictly higher precedence
        s = f"{_fmt(f.left, prec + 1)} {op} {_fmt(f.right, prec)}"
    return f"({s})" if prec < required else s
