"""Coordinate-level reference oracles for the index arithmetic of `ahj`.

The package works on point indices only.  These helpers build points as
coordinate vectors instead, so the tests can check the index tables, the
line tables and the names against definitions that share none of their
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ahj.hypercube import STAR, CubeShape, LineTemplate, ShapeError, _name


@dataclass(frozen=True)
class Point:
    """A vertex of [k]^n with its canonical linear index; k sets how its
    name is written."""

    coords: tuple[int, ...]
    index: int
    k: int

    def __str__(self) -> str:
        return _name(self.coords, self.k)


def point_index(coords: tuple[int, ...], shape: CubeShape) -> int:
    """Linear index of a coordinate vector (coordinate 1 most significant)."""
    if len(coords) != shape.n:
        raise ShapeError(f"expected {shape.n} coordinates, got {len(coords)}")
    idx = 0
    for c in coords:
        if not 1 <= c <= shape.k:
            raise ShapeError(f"coordinate {c} out of range 1..{shape.k}")
        idx = idx * shape.k + (c - 1)
    return idx


def point_from_index(index: int, shape: CubeShape) -> Point:
    """Inverse of :func:`point_index`."""
    if not 0 <= index < shape.point_count:
        raise ShapeError(f"index {index} out of range 0..{shape.point_count - 1}")
    coords = []
    rem = index
    for w in shape.weights:
        c, rem = divmod(rem, w)
        coords.append(c + 1)
    return Point(tuple(coords), index, shape.k)


def point_of(coords: tuple[int, ...], shape: CubeShape) -> Point:
    return Point(tuple(coords), point_index(tuple(coords), shape), shape.k)


def expand(template: LineTemplate, shape: CubeShape) -> tuple[Point, ...]:
    """The ordered points of the line: point i has symbol i at every star."""
    return tuple(
        point_of(tuple(i if c == STAR else c for c in template.cells), shape)
        for i in range(1, shape.k + 1)
    )


def collinear(u: Point, v: Point, shape: CubeShape) -> bool:
    """True iff u and v lie on a common combinatorial line.

    Two distinct points determine at most one line: the star set must be
    exactly the coordinate set D where they differ, and each point must be
    constant on D.
    """
    if u.index == v.index:
        raise ShapeError("collinear() requires two distinct points")
    diff = [t for t in range(shape.n) if u.coords[t] != v.coords[t]]
    u_vals = {u.coords[t] for t in diff}
    v_vals = {v.coords[t] for t in diff}
    return len(u_vals) == 1 and len(v_vals) == 1


def generator_index_maps(shape: CubeShape) -> list[tuple[int, ...]]:
    """Index maps of the adjacent coordinate transpositions and the adjacent
    symbol transpositions, built from point coordinates."""
    points = [point_from_index(i, shape).coords for i in shape.iter_indices()]
    images = [
        [c[:t] + (c[t + 1], c[t]) + c[t + 2 :] for c in points] for t in range(shape.n - 1)
    ]
    for s in range(1, shape.k):
        swap = {s: s + 1, s + 1: s}
        images.append([tuple(swap.get(v, v) for v in c) for c in points])
    return [tuple(point_index(c, shape) for c in image) for image in images]
