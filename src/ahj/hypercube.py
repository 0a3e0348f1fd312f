"""Combinatorics of the hypercube [k]^n.

A point is its index: its n coordinates, each a symbol in 1..k, are the
base-k digits of the index (symbol c as digit c - 1).  A line template is
a word over {1..k} union {*} with at least one star; substituting i for
every star simultaneously (i = 1..k) yields the k ordered points of a
combinatorial line.  A line is a tuple of point indices, and a point or a
line is named only when it is printed.  Geometric lines (anti-diagonals
and friends) are deliberately not modelled.

Conventions, fixed once so every downstream artifact is reproducible:

* point index = sum((c_t - 1) * k^(n-t)), coordinate 1 most significant;
* template streams are lexicographic with * sorting after symbol k;
* the symmetry group is coordinate permutations x uniform symbol
  permutations (per-coordinate symbol swaps do not preserve lines).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
from operator import itemgetter
from typing import Iterator

#: Sentinel for a starred template cell.  Rendered as "*".
STAR = 0

_MAX_POINTS = 2**32
# Entries of the automorphism_index_maps table: |G| = n! * k! maps of k^n
# indices each.  [5]^4 has 1.8M and [3]^6 3.1M; [3]^7 would have 66M.
_MAX_MAP_ENTRIES = 4 * 10**6


class ShapeError(ValueError):
    """Raised for invalid shapes, coordinates or symbols."""


@dataclass(frozen=True)
class CubeShape:
    """The hypercube [k]^n: alphabet size k >= 2, dimension n >= 1."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ShapeError(f"alphabet size k must be >= 2, got {self.k}")
        if self.n < 1:
            raise ShapeError(f"dimension n must be >= 1, got {self.n}")
        # With k >= 2, any n > 32 exceeds the budget; testing n first keeps
        # a huge n from computing k**n.
        if self.n > 32 or self.k**self.n > _MAX_POINTS:
            raise ShapeError(f"shape [{self.k}]^{self.n} exceeds the index budget")

    @property
    def point_count(self) -> int:
        return self.k**self.n

    @property
    def weights(self) -> tuple[int, ...]:
        """Mixed-radix weights: weights[t] = k^(n-1-t) for 0-based t."""
        return _weights(self.k, self.n)

    def iter_indices(self) -> range:
        return range(self.point_count)


@lru_cache(maxsize=None)
def _weights(k: int, n: int) -> tuple[int, ...]:
    return tuple(k ** (n - 1 - t) for t in range(n))


def _name(cells: tuple[int, ...], k: int) -> str:
    """Cells written as symbols, * for a star: run together for k <= 9,
    and joined by ":" from k = 10 on, where a symbol can take two digits."""
    return (":" if k >= 10 else "").join("*" if c == STAR else str(c) for c in cells)


@dataclass(frozen=True)
class LineTemplate:
    """A word over {1..k} union {*} for [k]^n; cells use STAR (= 0) for
    stars."""

    cells: tuple[int, ...]
    k: int

    def __str__(self) -> str:
        return _name(self.cells, self.k)


def _lines(shape: CubeShape) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(cells, base, step) of every line in enumeration order, the one
    definition of that order; point i (0-based) has index base + i * step.

    Each coordinate, of weight w, takes symbol 1..k and then the star, so
    itertools.product is lexicographic with * after k.  Symbol d + 1 adds
    d * w to the base and a star adds w to the step; the second product
    walks the same choices in step with the first and sums them packed as
    step * k^n + base.  Words without a star (step 0) are points.
    """
    k, span = shape.k, shape.point_count
    symbols = (*range(1, k + 1), STAR)
    columns = [[d * w for d in range(k)] + [w * span] for w in shape.weights]
    words = product(symbols, repeat=shape.n)
    for cells, code in zip(words, map(sum, product(*columns))):
        if code >= span:
            step, base = divmod(code, span)
            yield cells, base, step


def enumerate_lines(shape: CubeShape) -> Iterator[LineTemplate]:
    """All line templates of [k]^n, lexicographic with * after symbol k.

    Yields (k+1)^n - k^n templates, each exactly once.
    """
    for cells, _, _ in _lines(shape):
        yield LineTemplate(cells, shape.k)


def line_count(shape: CubeShape) -> int:
    return (shape.k + 1) ** shape.n - shape.k**shape.n


@lru_cache(maxsize=None)
def line_index_table(shape: CubeShape) -> tuple[tuple[int, ...], ...]:
    """Point-index tuples of every line, in enumeration order.  Cached.

    Entry i holds the indices of the points of template i, point j (0-based)
    with symbol j + 1 at every star.  This is the one per-shape line table;
    :func:`line_template` names an entry.
    """
    k = shape.k
    return tuple(
        tuple(range(base, base + k * step, step)) for _, base, step in _lines(shape)
    )


def line_template(idxs: tuple[int, ...], shape: CubeShape) -> LineTemplate:
    """The template of the line whose point indices are `idxs`, an entry of
    :func:`line_index_table`: the step between its points has digit 1 at
    the stars, and its first point has the symbols elsewhere."""
    base, step = idxs[0], idxs[1] - idxs[0]
    cells = (STAR if step // w % shape.k else base // w % shape.k + 1 for w in shape.weights)
    return LineTemplate(tuple(cells), shape.k)


def point_name(index: int, shape: CubeShape) -> str:
    """The name of point `index`: its symbols, read from the index's digits
    as :func:`line_template` reads them and written as a line's cells are."""
    return _name(tuple(index // w % shape.k + 1 for w in shape.weights), shape.k)


def layer(shape: CubeShape, t: int, i: int) -> frozenset[int]:
    """Indices of the k^(n-1) points with coordinate t equal to i (1-based)."""
    if not 1 <= t <= shape.n:
        raise ShapeError(f"coordinate {t} out of range 1..{shape.n}")
    if not 1 <= i <= shape.k:
        raise ShapeError(f"symbol {i} out of range 1..{shape.k}")
    w = shape.weights[t - 1]
    return frozenset(idx for idx in shape.iter_indices() if idx // w % shape.k == i - 1)


def symmetry_table_fits(shape: CubeShape) -> bool:
    """Whether the table of :func:`automorphism_index_maps`, |G| * k^n
    entries with |G| = n! * k!, stays within the guard.  The size is
    multiplied up one factor at a time and the answer is no as soon as it
    passes the guard, so no factorial of a large k is computed."""
    entries = shape.point_count
    for factor in chain(range(2, shape.k + 1), range(2, shape.n + 1)):
        entries *= factor
        if entries > _MAX_MAP_ENTRIES:
            return False
    return True


@lru_cache(maxsize=None)
def automorphism_index_maps(shape: CubeShape) -> tuple[array, ...]:
    """The symmetry group as permutations of the point indices.  Cached.

    maps[g][old_index] = new_index.  Element g pairs a coordinate
    permutation cp (outer loop) with a symbol permutation sp of 1..k
    (inner loop), both in itertools.permutations order, so the identity is
    maps[0] and the first k! maps permute symbols only.  It relabels symbol
    s as sp[s - 1], then moves source coordinate cp[t] to image coordinate
    t.  Each map is an array of k^n 4-byte entries, built by index
    arithmetic over the digits of the points.
    """
    k, n, weights = shape.k, shape.n, shape.weights
    # The table is refused before any map is built.
    if not symmetry_table_fits(shape):
        raise ShapeError(
            f"symmetry group of [{k}]^{n} needs more than {_MAX_MAP_ENTRIES} "
            "index-map entries"
        )

    def index_map(symbols, placed) -> tuple[int, ...]:
        """Image of every point, in index order, when digit d of source
        coordinate s becomes digit symbols[d] at weight placed[s]."""
        return tuple(map(sum, product(*([v * w for v in symbols] for w in placed))))

    # The symbol and coordinate maps commute, so an element's map reads
    # its symbol map at its coordinate map's images.
    symbol_maps = [index_map(sp, weights) for sp in permutations(range(k))]
    maps = []
    for cp in permutations(range(n)):
        # Source coordinate cp[t] lands at the weight of image coordinate t.
        coord_map = index_map(range(k), [w for _, w in sorted(zip(cp, weights))])
        at_images = itemgetter(*coord_map)
        maps += (array("I", at_images(m)) for m in symbol_maps)
    return tuple(maps)
