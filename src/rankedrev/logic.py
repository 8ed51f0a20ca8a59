"""Finite propositional logic over a fixed signature.

Formulas are quotiented by logical equivalence as soon as they are
evaluated: the working representation is the set of valuations
satisfying the formula (:class:`PropSet`), a bitmask over the 2**n
valuations of the signature. Theories are deductively closed sets of
formulas and are represented by their model sets; the inconsistent
theory has an empty model set and contains every formula. Note the
order inversion this buys: K ⊆ K' as formula sets exactly when
models(K) ⊇ models(K').

Valuations are indexed 0 .. 2**n - 1 with the first atom of the
signature as the most significant bit, so the valuation written "10"
over atoms (p, q) is index 2. Bit v of a PropSet mask is set exactly
when valuation v belongs to the set.

All values here are immutable after construction and safe to share
across concurrent workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .errors import ParseError, SignatureError, UnknownAtomError

MAX_ATOMS = 16

_ATOM_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_RESERVED_WORDS = frozenset({"true", "false"})


@dataclass(frozen=True)
class Signature:
    """An ordered tuple of atom names; fixes the valuation universe."""

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
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(atoms)})
        masks = []
        for i in range(n):
            m = 0
            for v in range(1 << n):
                if (v >> (n - 1 - i)) & 1:
                    m |= 1 << v
            masks.append(m)
        object.__setattr__(self, "_atom_masks", tuple(masks))

    @property
    def n(self) -> int:
        return len(self.atoms)

    @property
    def num_valuations(self) -> int:
        return 1 << self.n

    @property
    def universe_mask(self) -> int:
        """Bitmask with one set bit per valuation."""
        return (1 << self.num_valuations) - 1

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
        m, v = self.mask, 0
        while m:
            if m & 1:
                yield v
            m >>= 1
            v += 1

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


def cn_with(k: Theory, f: PropSet) -> Theory:
    """Consequences of k together with f: model set is the intersection."""
    return Theory(k.models & f)


def theory_contains(k: Theory, f: PropSet) -> bool:
    """Whether f belongs to k, i.e. every model of k satisfies f."""
    return k.models.issubset(f)


def theory_intersect(k: Theory, k2: Theory) -> Theory:
    """Intersection of the formula sets; unions the model sets."""
    return Theory(k.models | k2.models)


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


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


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
        return uni ^ _mask_of(f.operand, sig)
    if isinstance(f, And):
        return _mask_of(f.left, sig) & _mask_of(f.right, sig)
    if isinstance(f, Or):
        return _mask_of(f.left, sig) | _mask_of(f.right, sig)
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

_WORD_RE = re.compile(r"[a-z][a-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append(("IFF", "<->", i))
            i += 3
        elif text.startswith("->", i):
            tokens.append(("IMP", "->", i))
            i += 2
        elif c in "!&|()":
            tokens.append((c, c, i))
            i += 1
        else:
            m = _WORD_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {c!r}", i)
            word = m.group()
            kind = "CONST" if word in _RESERVED_WORDS else "ATOM"
            tokens.append((kind, word, i))
            i = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, sig: Signature):
        self.tokens = tokens
        self.sig = sig
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.iff()
        kind, text, at = self.tokens[self.pos]
        if kind != "EOF":
            raise ParseError(f"unexpected {text!r}", at)
        return f

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek() == "IFF":
            self.next()
            return Iff(left, self.iff())
        return left

    def imp(self) -> Formula:
        left = self.or_()
        if self.peek() == "IMP":
            self.next()
            return Implies(left, self.imp())
        return left

    def or_(self) -> Formula:
        f = self.and_()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.and_())
        return f

    def and_(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, text, at = self.next()
        if kind == "!":
            return Not(self.unary())
        if kind == "(":
            f = self.iff()
            kind2, text2, at2 = self.next()
            if kind2 != ")":
                raise ParseError(f"expected ')', got {text2!r}", at2)
            return f
        if kind == "CONST":
            return Const(text == "true")
        if kind == "ATOM":
            if text not in self.sig._index:
                raise UnknownAtomError(text, at)
            return Atom(text)
        raise ParseError(f"expected a formula, got {text or 'end of input'!r}", at)


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
        op = "&" if isinstance(f, And) else "|"
        # left-associative: right child needs strictly higher precedence
        s = f"{_fmt(f.left, prec)} {op} {_fmt(f.right, prec + 1)}"
    else:
        op = "->" if isinstance(f, Implies) else "<->"
        # right-associative: left child needs strictly higher precedence
        s = f"{_fmt(f.left, prec + 1)} {op} {_fmt(f.right, prec)}"
    return f"({s})" if prec < required else s
