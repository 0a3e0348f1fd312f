"""Explicit rainbow-free colorings: digit-position, layer stacking, singletons.

Each generator returns a total Coloring and guarantees rainbow-freeness by
construction; the guarantees are also re-checked in the test suite.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .coloring import Coloring, canonical_relabel, is_rainbow_free
from .hypercube import CubeShape, LineTemplate, line_index_table, line_template


class ConstructionError(ValueError):
    """A construction precondition failed; may carry a witnessing line."""

    def __init__(self, message: str, witness: LineTemplate | None = None):
        super().__init__(message)
        self.witness = witness


def monochromatic(shape: CubeShape) -> Coloring:
    """Every point color 1; rainbow-free for every shape with k >= 2."""
    return Coloring(shape, (1,) * shape.point_count)


def digit_position_coloring(shape: CubeShape) -> Coloring:
    """Group points by where each of the symbols 1..k-2 occurs.

    Coordinates holding k-1 or k are interchangeable, so each coordinate
    contributes one of k-1 classes and the coloring uses (k-1)^n colors.
    On any line, the points with star value k-1 and k agree everywhere
    else and land in the same class, so no line is rainbow.

    A point's color is one more than its classes read as a base-(k-1)
    number, coordinate 1 most significant.  Digit d of coordinate t
    (0-based) adds min(d, k-2) * (k-1)^(n-1-t), and itertools.product sums
    one such entry per coordinate in point-index order, so no point is
    built.
    """
    k, n = shape.k, shape.n
    if k < 3:
        raise ConstructionError("digit-position coloring needs k >= 3")
    columns = [[min(d, k - 2) * (k - 1) ** (n - 1 - t) for d in range(k)] for t in range(n)]
    return Coloring(shape, tuple(code + 1 for code in map(sum, product(*columns))))


def stack_recursive(base: Coloring, stacking_coord: int = 1) -> Coloring:
    """Grow a rainbow-free coloring of [k]^(n-1) into one of [k]^n.

    Layers 1..k-2 along the stacking coordinate carry disjoint fresh
    relabelings of the base (contiguous id blocks in layer order); layers
    k-1 and k share one final fresh color.  A line inside a low layer
    copies a base line, a line inside a high layer is monochromatic, and
    a line crossing layers hits both high layers in the shared color, so
    the result stays rainbow-free with (k-2) * base_colors + 1 colors.

    Each point is placed by index arithmetic.  With w the weight of the
    stacking coordinate, point idx lies in layer idx // w % k (0-based),
    and dropping that coordinate leaves the base point
    idx // (w*k) * w + idx % w.
    """
    k = base.shape.k
    if k < 3:
        raise ConstructionError("layer stacking needs k >= 3")
    if not base.is_total:
        raise ConstructionError("base coloring must be total")
    if not is_rainbow_free(base):
        raise ConstructionError("base coloring must be rainbow-free")
    shape = CubeShape(k, base.shape.n + 1)
    t = stacking_coord
    if not 1 <= t <= shape.n:
        raise ConstructionError(f"stacking coordinate {t} out of range 1..{shape.n}")

    base_colors = canonical_relabel(base).colors
    width = max(base_colors)
    cap_color = (k - 2) * width + 1
    w = shape.weights[t - 1]
    out = [cap_color] * shape.point_count
    for idx in shape.iter_indices():
        i = idx // w % k
        if i < k - 2:
            out[idx] = i * width + base_colors[idx // (w * k) * w + idx % w]
    return Coloring(shape, tuple(out))


def singleton_set_coloring(shape: CubeShape, special: Iterable[int]) -> Coloring:
    """One dominant color plus a distinct color per special point.

    Sound whenever every line meets the special set in at most k-2
    points: the other two points on the line share the dominant color.
    For k=3 this is exactly pairwise non-collinearity of the set.  The
    lines are read as point indices; only the first line that breaks the
    condition is named, as the error's witness.  A point given twice is
    an error.
    """
    special_set: set[int] = set()
    for idx in special:
        if not 0 <= idx < shape.point_count:
            raise ConstructionError(f"point index {idx} out of range")
        if idx in special_set:
            raise ConstructionError(f"point {idx} is repeated")
        special_set.add(idx)
    for idxs in line_index_table(shape):
        hits = sum(1 for i in idxs if i in special_set)
        if hits > shape.k - 2:
            witness = line_template(idxs, shape)
            raise ConstructionError(
                f"line {witness} meets the special set in {hits} points "
                f"(at most {shape.k - 2} allowed)",
                witness=witness,
            )
    colors = [1] * shape.point_count
    for next_id, idx in enumerate(sorted(special_set), start=2):
        colors[idx] = next_id
    return Coloring(shape, tuple(colors))
