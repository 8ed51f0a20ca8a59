"""Revision operators over finite theories.

A revision maps (theory, input formula) to the revised theory. The
revision is mild when the input is consistent with the theory (plain
expansion suffices) and severe when the input contradicts it. The
ranked realization implements the minimal-influence discipline: a
severe revision forgets the theory entirely and adopts the input
together with its default consequences under the rank function, so the
result of a severe revision does not depend on the theory at all.

The inconsistent theory is always revised severely, which makes it the
canonical probe: the whole operator is determined by its bottom row
plus expansion. Revisions are immutable; ``revise`` is pure, and
exhaustive sweeps may evaluate disjoint cells concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .errors import DomainTooLargeError
from .logic import PropSet, Signature, Theory, _check_over, _masks
from .ranking import RankFunction, _check_row_fits, level_masks, normalize
from .relations import ConsequenceRelation

TABLE_MAX_ATOMS = 3


class Severity(str, Enum):
    MILD = "mild"
    SEVERE = "severe"


def severity_of(k: Theory, f: PropSet) -> Severity:
    """Severe exactly when ¬f belongs to k, i.e. models(k) ∩ f = ∅."""
    return Severity.SEVERE if (k.models.mask & f.mask) == 0 else Severity.MILD


@dataclass(frozen=True)
class RevisionStep:
    before: Theory
    formula: PropSet
    after: Theory
    severity: Severity


class Revision:
    """Abstract two-argument revision operator.

    Subclasses implement ``revise_mask`` on raw masks; the table of all
    cells is cached one row per theory for the exhaustive checkers, which
    also keep their packed form of it in ``_packed``. Two revisions are
    the same revision when they agree pointwise over the finite domain.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self._rows = None
        self._packed = None

    def revise_mask(self, k_mask: int, f_mask: int) -> int:
        raise NotImplementedError

    def revise(self, k: Theory, f: PropSet) -> Theory:
        """The revision of k by f; SignatureError if either is over other atoms."""
        _check_over(self.sig, k, f)
        return Theory(PropSet(self.sig, self.revise_mask(k.models.mask, f.mask)))

    def table(self) -> Sequence[Sequence[int]]:
        """revise_mask tabulated as table[k_mask][f_mask], built once: rows
        of bytes where the revision packs them, else tuples of revise_mask's
        ints, which may not fit a byte."""
        if self._rows is None:
            _check_tabulable(self.sig)
            self._rows = self._tabulate()
        return self._rows

    def _tabulate(self) -> Sequence[Sequence[int]]:
        nmasks = self.sig.universe_mask + 1
        rm = self.revise_mask
        return tuple(tuple(rm(k, f) for f in range(nmasks)) for k in range(nmasks))

    def _revise_lanes(self, lanes, ks: int, fs: int) -> int:
        """revise_mask on each lane of the columns ks and fs, packed as
        ``lanes`` (a postulates._Block) packs them."""
        return lanes.pack(list(map(self.revise_mask, lanes.unpack(ks), lanes.unpack(fs))))

    def same_revision(self, other: "Revision") -> bool:
        """Pointwise equality over the finite domain; a row of bytes equals
        a row of ints with the same cells."""
        return self.sig == other.sig and all(
            tuple(a) == tuple(b) for a, b in zip(self.table(), other.table()))


def _check_tabulable(sig: Signature) -> None:
    if sig.n > TABLE_MAX_ATOMS:
        raise DomainTooLargeError(
            f"full revision table needs 4**{sig.num_valuations} cells; "
            f"at most {TABLE_MAX_ATOMS} atoms supported"
        )


class _ExpandOrRow(Revision):
    """A revision that expands when K ∧ phi is consistent and otherwise
    answers row[phi], whatever K is. The first severe revision calls
    ``build_row``, which takes no argument, for the row; a subclass that
    passes None builds it in its own ``_cells``."""

    def __init__(self, sig: Signature, build_row: Optional[Callable[[], Sequence[int]]]):
        super().__init__(sig)
        self._build_row = build_row
        self._row = None

    def _cells(self) -> Sequence[int]:
        if self._row is None:
            self._row = self._build_row()
        return self._row

    def revise_mask(self, k_mask: int, f_mask: int) -> int:
        return k_mask & f_mask or self._cells()[f_mask]

    def _tabulate(self) -> Sequence[Sequence[int]]:
        """One packed row per theory: byte phi of inter[K] | (ROW & apart[K])
        is K & phi when that is nonzero, else row[phi]. A row with a cell
        outside 0..255 cannot be packed, so its table is tabulated cell by
        cell."""
        row = self._cells()
        try:
            packed = int.from_bytes(bytes(row), "little")
        except ValueError:
            return super()._tabulate()
        nmasks = len(row)
        m = _masks(nmasks)
        return tuple((inter | (packed & apart)).to_bytes(nmasks, "little")
                     for inter, apart in zip(m.inter, m.apart))


class RankedRevision(_ExpandOrRow):
    """Revision induced by a rank function: severe revisions return the
    minimum-rank models of the input, mild revisions expand.

    A severe cell is the input's part of the lowest level it meets, read
    from the level masks, which the first severe revision builds. Only a
    table, or ``consequence_masks``, builds the row over every formula
    class from the same masks, which past 4 atoms raises
    TableTooLargeError."""

    def __init__(self, rank: RankFunction):
        super().__init__(rank.sig, None)  # the row is built by _cells below
        self.rank = rank

    @functools.cached_property
    def levels(self) -> list[int]:
        return level_masks(self.rank)

    def _cells(self) -> Sequence[int]:
        # a row source that holds the revision would be a reference cycle,
        # which keeps the revision and its tables until the next collection
        if self._row is None:
            self._row = self.rank._consequence_cells(self.levels)
        return self._row

    def revise_mask(self, k_mask: int, f_mask: int) -> int:
        meet = k_mask & f_mask
        if meet or not f_mask:
            return meet
        for level in self.levels:
            if level & f_mask:
                return level & f_mask
        return self.rank.min_models_mask(f_mask)  # above every level kept

    def _revise_lanes(self, lanes, ks: int, fs: int) -> int:
        return lanes.expand_or_levels(self.levels, ks, fs, self.rank.min_models_mask)

    def consequence_masks(self) -> Sequence[int]:
        """The minimum-rank models of every formula, indexed by mask."""
        return self._cells()


class TableRevision(Revision):
    """Explicit (theory, formula) -> theory map; the vehicle for testing
    arbitrary candidate revisions. ``cells`` is the table flattened row
    by row, as bytes: the cells are model masks, so they fit a byte at
    the 3 atoms a table is capped at."""

    def __init__(self, sig: Signature, cells: Iterable[int]):
        super().__init__(sig)
        _check_tabulable(sig)
        nmasks = sig.universe_mask + 1
        cells = tuple(cells)
        if len(cells) != nmasks * nmasks:
            raise ValueError(f"need {nmasks * nmasks} cells, got {len(cells)}")
        if not 0 <= min(cells) <= max(cells) <= sig.universe_mask:
            raise ValueError("cell values must be model masks over the signature")
        self.cells = bytes(cells)
        self._rows = tuple(self.cells[k:k + nmasks] for k in range(0, nmasks * nmasks, nmasks))

    @classmethod
    def from_function(
        cls, sig: Signature, fn: Callable[[int, int], int]
    ) -> "TableRevision":
        nmasks = sig.universe_mask + 1
        # lazily, so a signature past the cap raises before fn is called
        return cls(sig, (fn(k, f) for k in range(nmasks) for f in range(nmasks)))

    def revise_mask(self, k_mask: int, f_mask: int) -> int:
        return self._rows[k_mask][f_mask]


def _row_of(rv: Revision, k_mask: int) -> tuple[int, ...]:
    """Row ``k_mask`` of ``rv``, its cells as revise_mask returns them."""
    rm = rv.revise_mask
    return tuple(rm(k_mask, f) for f in range(rv.sig.universe_mask + 1))


def conservative_extension(rv: Revision, k: Theory) -> Revision:
    """The revision that treats every severe revision the way ``rv``
    revises ``k``; it agrees with ``rv`` on the whole row of ``k``. Past
    the consequence table's cap this raises before reading ``rv``."""
    _check_row_fits(rv.sig, "conservative extension")
    return _ExpandOrRow(rv.sig, functools.partial(_row_of, rv, k.models.mask))


def relation_of_revision(rv: Revision, base: Theory) -> ConsequenceRelation:
    """The consequence relation phi |-> revise(base, phi): row ``base`` of
    the revision, read cell by cell without building its table."""
    return ConsequenceRelation.from_function(rv.sig, functools.partial(rv.revise_mask,
                                                                        base.models.mask))


def revision_of_relation(rel: ConsequenceRelation) -> Revision:
    """The inverse construction: severe revisions take the relation's
    consequences of the input, mild revisions expand."""
    # tuple() of a tuple is that tuple: the row is the consequences, not a copy
    return _ExpandOrRow(rel.sig, functools.partial(tuple, rel.consequences))


def with_theory_floor(r: RankFunction, k: Theory) -> RankFunction:
    """Rank function whose lowest level is exactly the models of k: those
    drop to rank 0, every other valuation shifts up one, then the result
    is normalized. For the inconsistent k this is r itself."""
    km = k.models.mask
    shifted = tuple(
        0 if (km >> v) & 1 else rank + 1 for v, rank in enumerate(r.ranks)
    )
    return normalize(RankFunction(r.sig, shifted))


def iterate(rv: Revision, k: Theory, fs: Sequence[PropSet]) -> list[RevisionStep]:
    """Fold revise left to right, recording each step's severity."""
    steps = []
    current = k
    for f in fs:
        nxt = rv.revise(current, f)
        steps.append(RevisionStep(current, f, nxt, severity_of(current, f)))
        current = nxt
    return steps
