"""Rank functions over the valuation universe.

A rank function assigns every valuation a natural number; it is the
finite realization of a rational, consistency-preserving consequence
relation (consistency preservation is exactly totality: no valuation is
missing). Only the induced total preorder matters, so rank functions
are kept in normalized form: the ranks used are exactly 0..h for some
h. The number of normalized rank functions over m valuations is the
ordered-set-partition (Fubini) number of m.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Optional

from .errors import RankFileError, SignatureTooLargeError, TableTooLargeError
from .logic import PropSet, Signature, Theory, _check_over

ENUM_MAX_ATOMS = 3
CONSEQUENCE_TABLE_MAX_ATOMS = 4  # 2**16 entries; 5 atoms would need 2**32
# level masks kept per function: at 16 atoms 8 KB each, 1 MiB in all; at
# least the 16 levels a 4-atom function can have, which its table reads
LEVEL_MASKS_MAX = 128


@dataclass(frozen=True, slots=True)
class RankFunction:
    """One natural-number rank per valuation, indexed by valuation."""

    sig: Signature
    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = self.ranks
        if type(ranks) is not tuple:
            object.__setattr__(self, "ranks", ranks := tuple(ranks))
        if len(ranks) != self.sig.num_valuations:
            raise ValueError(f"need {self.sig.num_valuations} ranks, got {len(ranks)}")
        if min(ranks) < 0:
            raise ValueError("ranks must be natural numbers")

    @property
    def height(self) -> int:
        return max(self.ranks)

    @property
    def is_normalized(self) -> bool:
        used = set(self.ranks)
        return used == set(range(len(used)))

    def min_models_mask(self, f_mask: int) -> int:
        """The minimum-rank valuations of f_mask (0 when f_mask is 0)."""
        if f_mask == 0:
            return 0
        ranks = self.ranks
        best = None
        out = 0
        m, v = f_mask, 0
        while m:
            if m & 1:
                r = ranks[v]
                if best is None or r < best:
                    best, out = r, 1 << v
                elif r == best:
                    out |= 1 << v
            m >>= 1
            v += 1
        return out

    def consequence_table(self) -> tuple[int, ...]:
        """min_models_mask for every PropSet mask, indexed by mask."""
        return self._consequence_cells()

    def _consequence_cells(self, levels: Optional[list[int]] = None) -> tuple[int, ...]:
        """consequence_table's entries, each mask's part of the first level
        it meets, read from ``levels``, the function's level masks, when
        given; past 4 atoms TableTooLargeError."""
        _check_row_fits(self.sig, "consequence table")
        return tuple(_first_hits(self.sig.universe_mask + 1,
                                 level_masks(self) if levels is None else levels))


def _check_row_fits(sig: Signature, what: str) -> None:
    """Raise TableTooLargeError for a row over every formula class of sig
    past CONSEQUENCE_TABLE_MAX_ATOMS."""
    if sig.n > CONSEQUENCE_TABLE_MAX_ATOMS:
        raise TableTooLargeError(f"{what} needs 2**{sig.num_valuations} entries; "
                                 f"at most {CONSEQUENCE_TABLE_MAX_ATOMS} atoms supported")


def level_masks(r: RankFunction) -> list[int]:
    """The masks of r's lowest levels, lowest first: bit v of a level's
    mask is set when valuation v has that level's rank. Every level, or the
    lowest LEVEL_MASKS_MAX where r has more.

    Built in bulk: the ranks as one byte per valuation, the last valuation
    first, then per level one bytes.translate to b"1" where the byte is
    the level's label and b"0" elsewhere, read by int(..., 2). Ranks past
    a byte are relabelled first, the levels not kept sharing label 255."""
    ranks = r.ranks
    values = sorted(set(ranks))[:LEVEL_MASKS_MAX]
    if r.height < 256:
        labels = bytes(ranks[::-1])
    else:
        label = dict(zip(values, range(LEVEL_MASKS_MAX)))
        labels = bytes(label.get(x, 255) for x in ranks[::-1])
        values = range(len(values))
    zeros = b"0" * 256
    return [int(labels.translate(zeros[:v] + b"1" + zeros[v + 1:]), 2) for v in values]


def _first_hits(n: int, levels: list[int]) -> list[int]:
    """For each mask f below n, f's part of the first level it meets."""
    out = [0] * n
    for f in range(1, n):
        for lvl in levels:
            hit = f & lvl
            if hit:
                out[f] = hit
                break
    return out


def consequences_of(r: RankFunction, f: PropSet) -> Theory:
    """The theory holding by default under f: its models are the
    minimum-rank models of f. The empty f yields the inconsistent theory;
    f over other atoms, SignatureError."""
    _check_over(r.sig, f)
    return Theory(PropSet(r.sig, r.min_models_mask(f.mask)))


def normalize(r: RankFunction) -> RankFunction:
    """Relabel ranks order-preservingly onto 0..h; fixes normalized inputs."""
    relabel = {v: i for i, v in enumerate(sorted(set(r.ranks)))}
    return RankFunction(r.sig, tuple(relabel[x] for x in r.ranks))


def _check_enumerable(sig: Signature) -> None:
    if sig.n > ENUM_MAX_ATOMS:
        raise SignatureTooLargeError(
            f"exhaustive enumeration supports at most {ENUM_MAX_ATOMS} atoms, got {sig.n}"
        )


def count_rank_functions(sig: Signature) -> int:
    """How many functions enumerate_rank_functions yields, without
    enumerating them: the Fubini number a(2**n), where
    a(m) = sum over k = 1..m of C(m, k) * a(m - k) and a(0) = 1."""
    _check_enumerable(sig)
    a = [1]
    for m in range(1, sig.num_valuations + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[-1]


def enumerate_rank_functions(sig: Signature) -> Iterator[RankFunction]:
    """Yield every normalized rank function over the signature exactly once,
    in lexicographic order of the rank vector.

    The count equals the Fubini number of 2**n, so enumeration is capped
    at n <= 3 (545835 functions); a larger signature raises at the call.

    It is lazy per prefix of half the valuations: each prefix is followed
    by its completions, whose list depends only on the position and the
    ranks used so far, so it is built once and shared by every prefix
    that reaches it. The order is the one above. A prefix's functions are
    built at once without the constructor, whose checks they pass by
    construction.
    """
    _check_enumerable(sig)
    m = sig.num_valuations

    def choices(i: int, used: int) -> Iterator[tuple[int, int]]:
        # ranks c for valuation i that leave the holes below the top fillable
        for c in range(m):
            u = used | 1 << c
            if u.bit_length() - u.bit_count() < m - i:
                yield c, u

    @functools.cache
    def completions(i: int, used: int) -> list[tuple[int, ...]]:
        if i == m:
            return [()]
        return [(c,) + t for c, u in choices(i, used) for t in completions(i + 1, u)]

    def functions(i: int, used: int, head: tuple[int, ...]) -> Iterator[RankFunction]:
        if i == m // 2:
            # RankFunction's checks hold by construction: each vector is an
            # exact tuple of m ranks, all natural numbers (c in range(m))
            tails = completions(i, used)
            fs = list(map(object.__new__, repeat(RankFunction, len(tails))))
            deque(map(RankFunction.sig.__set__, fs, repeat(sig)), 0)
            deque(map(RankFunction.ranks.__set__, fs, map(head.__add__, tails)), 0)
            return iter(fs)
        return chain.from_iterable(functions(i + 1, u, head + (c,)) for c, u in choices(i, used))

    return functions(0, 0, ())


def sweep_orbits(sig: Signature) -> Iterator[tuple[RankFunction, int]]:
    """Yield one normalized rank function per orbit under permutations of
    the valuations, with the orbit's size: 2**(2**n - 1) pairs, 8 at two
    atoms and 128 at three.

    An orbit is fixed by its level sizes, a composition of 2**n. Its
    representative puts the valuations in order on levels of those sizes,
    lowest first, and its size is the multinomial coefficient
    (2**n)! / prod(size!). The sizes sum to count_rank_functions(sig).
    Every postulate is stated on model sets through ∩, ∪, ⊆ and ∅, so a
    clause holds on every function of an orbit or on none.
    """
    _check_enumerable(sig)
    m = sig.num_valuations

    def orbit(cuts: int) -> tuple[RankFunction, int]:
        # bit i of cuts set: valuation i + 1 starts a new level
        ranks = tuple((cuts & ((1 << v) - 1)).bit_count() for v in range(m))
        sizes = Counter(ranks).values()
        return RankFunction(sig, ranks), math.factorial(m) // math.prod(map(math.factorial, sizes))

    return map(orbit, range(1 << (m - 1)))


def random_rank_function(sig: Signature, levels: int, seed: int) -> RankFunction:
    """Seeded random normalized rank function.

    Each valuation's rank is drawn independently and uniformly from
    0..levels-1 (one random.Random(seed).randrange(levels) call per
    valuation, in valuation order), then the result is normalized.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    rng = random.Random(seed)
    draws = tuple(rng.randrange(levels) for _ in range(sig.num_valuations))
    return normalize(RankFunction(sig, draws))


# --- file format ----------------------------------------------------------
#
#   atoms: p q
#   0: 11
#   1: 01 10
#   2: 00
#
# One line per level, lowest first; valuations as bit strings in atom
# order. Only normalized rank functions are representable, and the
# format round-trips bit-exactly.


def format_rank_file(r: RankFunction) -> str:
    if not r.is_normalized:
        raise ValueError("only normalized rank functions can be written")
    levels: list[list[str]] = [[] for _ in range(r.height + 1)]
    for rk, bits in zip(r.ranks, map(format, range(r.sig.num_valuations), repeat(f"0{r.sig.n}b"))):
        levels[rk].append(bits)
    lines = ["atoms: " + " ".join(r.sig.atoms)]
    lines += [f"{level}: " + " ".join(vals) for level, vals in enumerate(levels)]
    return "\n".join(lines) + "\n"


def parse_rank_file(text: str) -> RankFunction:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("atoms:"):
        raise RankFileError("first line must be 'atoms: <names>'")
    atoms = lines[0][len("atoms:"):].split()
    try:
        sig = Signature(tuple(atoms))
    except ValueError as exc:
        raise RankFileError(str(exc)) from exc
    n, ranks = sig.n, [None] * sig.num_valuations
    for lineno, line in enumerate(lines[1:]):
        head, sep, rest = line.partition(":")
        head = head.strip()
        if not sep or not (head.isascii() and head.isdigit()):
            raise RankFileError(f"bad level line {line!r}")
        level = int(head)
        if level != lineno:
            raise RankFileError(f"levels must be contiguous from 0, got {level}")
        vals = rest.split()
        if not vals:
            raise RankFileError(f"level {level} is empty")
        # a line of n-character 0/1 tokens converts in bulk; any other
        # goes token by token, so the first error in file order is raised
        others = "".join(vals).encode("ascii", "replace").translate(None, b"01")
        bulk = not others and set(map(len, vals)) == {n}
        codes = map(int, vals, repeat(2)) if bulk else map(sig.valuation_from_bits, vals)
        try:
            for bits, v in zip(vals, codes):
                if ranks[v] is not None:
                    raise RankFileError(f"valuation {bits} listed twice")
                ranks[v] = level
        except ValueError as exc:
            raise RankFileError(str(exc)) from exc
    if None in ranks:
        missing = [sig.valuation_bits(v) for v, rk in enumerate(ranks) if rk is None]
        raise RankFileError(f"valuations missing a rank: {' '.join(missing)}")
    return RankFunction(sig, ranks)
