"""Codecs between triplet sets and the two word-pair table schemes.

Region scheme: each triplet is a rectangle in the n x n table whose rows
index aspect tokens and columns index opinion tokens; the top-left corner
(aspect start, opinion start) is marked B and the bottom-right corner
(aspect end, opinion end) is marked E, and the rectangle carries the
sentiment class.

Cell scheme: aspect tokens are marked A and opinion tokens O on the
diagonal, and every (aspect token, opinion token) crossing cell carries the
triplet's sentiment.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import LabeledSentence, Polarity, Span, Triplet


class RegionClass(enum.IntEnum):
    POS = 0
    NEU = 1
    NEG = 2
    INVALID = 3


_POLARITY_TO_CLASS = {p: RegionClass[p.name] for p in Polarity}


@dataclass(frozen=True)
class BoundaryLabels:
    b: np.ndarray  # (n, n) 0/1 top-left corner map
    e: np.ndarray  # (n, n) 0/1 bottom-right corner map


@dataclass(frozen=True)
class GoldRegion:
    a: int  # aspect start (row)
    b: int  # opinion start (col)
    c: int  # aspect end (row)
    d: int  # opinion end (col)
    cls: RegionClass

    def rect(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def encode_region_labels(ls: LabeledSentence) -> tuple[BoundaryLabels, list[GoldRegion]]:
    n = ls.sentence.n
    b = np.zeros((n, n), dtype=np.int8)
    e = np.zeros((n, n), dtype=np.int8)
    regions = []
    for t in ls.triplets:
        b[t.aspect.start, t.opinion.start] = 1
        e[t.aspect.end, t.opinion.end] = 1
        regions.append(
            GoldRegion(t.aspect.start, t.opinion.start, t.aspect.end, t.opinion.end,
                       _POLARITY_TO_CLASS[t.polarity])
        )
    return BoundaryLabels(b, e), regions


# Polarity by region class; INVALID maps to None.  Keyed by plain ints, so a
# lookup accepts the same values ``RegionClass(cls)`` does.
_POLARITY_OF_CLASS = ({int(c): p for p, c in _POLARITY_TO_CLASS.items()}
                      | {int(RegionClass.INVALID): None})


@functools.lru_cache(maxsize=4096)
def _span(start: int, end: int) -> Span:
    """The shared ``Span`` of inclusive bounds; ``Span`` is frozen, so one
    object serves every triplet that holds those bounds, across calls.  It
    is built from ``int`` bounds, and numpy integers hash and compare as the
    ints they equal, so no ``Span`` holds a caller's numpy scalars."""
    return Span(int(start), int(end))


def decode_regions(regions: Iterable[tuple[int, int, int, int, int]]) -> list[Triplet]:
    """Map classified rectangles back to triplets; INVALID dropped, output
    deduplicated and sorted by (a, b, c, d, class).  Each distinct span is
    built once by ``_span`` and shared by every triplet that holds it, in
    this call and later ones."""
    out = {}
    for a, b, c, d, cls in regions:
        try:
            pol = _POLARITY_OF_CLASS[cls]
        except (KeyError, TypeError):
            pol = _POLARITY_OF_CLASS[RegionClass(cls)]  # raises for a bad class
        key = (a, b, c, d, cls)
        if pol is None or key in out:
            continue
        if not (a <= c and b <= d):
            raise ValueError(f"degenerate rectangle ({a},{b},{c},{d})")
        out[key] = Triplet(_span(a, c), _span(b, d), pol)
    return [out[k] for k in sorted(out)]


# -- cell-level scheme -------------------------------------------------------

CELL_NONE = 0
CELL_A = 1
CELL_O = 2
CELL_POS = 3
CELL_NEU = 4
CELL_NEG = 5

CELL_SENTIMENT = {
    Polarity.POS: CELL_POS,
    Polarity.NEU: CELL_NEU,
    Polarity.NEG: CELL_NEG,
}
_CELL_TO_POLARITY = {v: k for k, v in CELL_SENTIMENT.items()}


class CellConflictError(ValueError):
    """A cell received two different labels (e.g. a token is both aspect and opinion)."""


def _cell_marks(triplets: Sequence[Triplet]) -> Iterator[tuple[int, int, int]]:
    """(label, i, j) for every cell the triplets mark: the diagonal aspect
    and opinion cells of all triplets first, then every crossing cell."""
    for t in triplets:
        yield from ((CELL_A, i, i) for i in t.aspect.tokens())
        yield from ((CELL_O, j, j) for j in t.opinion.tokens())
    for t in triplets:
        lab = CELL_SENTIMENT[t.polarity]
        yield from ((lab, i, j) for i in t.aspect.tokens() for j in t.opinion.tokens())


def encode_cell_labels(ls: LabeledSentence) -> np.ndarray:
    """Return the (n, n) int table with CELL_* codes.  A token that is both
    aspect and opinion is a conflict on its diagonal cell."""
    n = ls.sentence.n
    tbl = np.zeros((n, n), dtype=np.int8)
    for label, i, j in _cell_marks(ls.triplets):
        if tbl[i, j] != CELL_NONE and tbl[i, j] != label:
            raise CellConflictError(
                f"cell ({i},{j}) already labeled {int(tbl[i, j])}, cannot relabel {label}"
            )
        tbl[i, j] = label
    return tbl


def _diagonal_runs(tbl: np.ndarray, label: int) -> list[Span]:
    n = tbl.shape[0]
    runs = []
    i = 0
    while i < n:
        if tbl[i, i] == label:
            j = i
            while j + 1 < n and tbl[j + 1, j + 1] == label:
                j += 1
            runs.append(Span(i, j))
            i = j + 1
        else:
            i += 1
    return runs


def decode_cell_table(tbl: np.ndarray) -> list[Triplet]:
    """Pair every maximal A-run with every O-run; majority sentiment over the
    crossing cells decides the polarity, an exact tie or all-NONE crossing
    drops the pair."""
    aspects = _diagonal_runs(tbl, CELL_A)
    opinions = _diagonal_runs(tbl, CELL_O)
    triplets = []
    for asp in aspects:
        for op in opinions:
            votes = Counter()
            for i in asp.tokens():
                for j in op.tokens():
                    lab = int(tbl[i, j])
                    if lab in _CELL_TO_POLARITY:
                        votes[lab] += 1
            if not votes:
                continue
            ranked = votes.most_common()
            if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
                continue
            triplets.append(Triplet(asp, op, _CELL_TO_POLARITY[ranked[0][0]]))
    triplets.sort(key=lambda t: (t.aspect.start, t.opinion.start, t.aspect.end, t.opinion.end))
    return triplets


def cells_by_type(triplets: Sequence[Triplet]) -> dict[int, list[tuple[int, int]]]:
    """Lenient cell grouping used for cell-level feature pooling: unlike
    encode_cell_labels this never errors, a conflicted cell simply lands in
    several groups.  Each group lists its cells once, in order of first mark."""
    groups: dict[int, list[tuple[int, int]]] = {
        CELL_A: [], CELL_O: [], CELL_POS: [], CELL_NEU: [], CELL_NEG: []
    }
    for label, i, j in dict.fromkeys(_cell_marks(triplets)):
        groups[label].append((i, j))
    return groups
