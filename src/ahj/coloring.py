"""Colorings of [k]^n: rainbow checks, census, canonical forms, file I/O.

A coloring stores one color id per point index.  Ids are arbitrary
positive integers; 0 marks an unassigned point in a partial coloring.
Values are immutable, so everything here is pure and safe to share.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .hypercube import (
    CubeShape,
    LineTemplate,
    automorphism_index_maps,
    line_index_table,
    line_template,
)

UNASSIGNED = 0


class ColoringError(ValueError):
    """Invalid coloring data or a violated operation precondition."""


class ParseError(ColoringError):
    """Malformed coloring file; carries a 1-based line (and column) position."""

    def __init__(self, message: str, line: int, column: int | None = None):
        pos = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{pos}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Coloring:
    shape: CubeShape
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.colors) != self.shape.point_count:
            raise ColoringError(
                f"expected {self.shape.point_count} entries, got {len(self.colors)}"
            )
        if any(c < 0 for c in self.colors):
            raise ColoringError("color ids must be non-negative")

    @property
    def is_total(self) -> bool:
        return UNASSIGNED not in self.colors

    def assign(self, index: int, color: int) -> "Coloring":
        """A copy with one entry replaced (colorings are immutable)."""
        new = list(self.colors)
        new[index] = color
        return Coloring(self.shape, tuple(new))


@dataclass(frozen=True)
class ColorCensus:
    distinct_count: int
    class_sizes: dict[int, int] = field(compare=False)
    unassigned_count: int = 0


def census(coloring: Coloring) -> ColorCensus:
    sizes: dict[int, int] = {}
    unassigned = 0
    for c in coloring.colors:
        if c == UNASSIGNED:
            unassigned += 1
        else:
            sizes[c] = sizes.get(c, 0) + 1
    return ColorCensus(len(sizes), sizes, unassigned)


def is_minimal(coloring: Coloring) -> bool:
    """True iff at most one color repeats (the dominant one).

    The degenerate cases read inclusively: a monochromatic coloring and an
    all-distinct coloring both count as minimal.
    """
    sizes = census(coloring).class_sizes
    return sum(1 for s in sizes.values() if s > 1) <= 1


def _require_total(coloring: Coloring, op: str) -> None:
    if not coloring.is_total:
        raise ColoringError(f"{op} requires a total coloring")


def _rainbow_line_points(coloring: Coloring, op: str) -> Iterator[tuple[int, ...]]:
    """The `line_index_table` entries of the rainbow lines, in table order."""
    _require_total(coloring, op)
    colors = coloring.colors
    for idxs in line_index_table(coloring.shape):
        seen = set()
        for i in idxs:
            c = colors[i]
            if c in seen:
                break
            seen.add(c)
        else:
            yield idxs


def rainbow_lines(coloring: Coloring) -> list[LineTemplate]:
    """Every rainbow line, in template enumeration order.  A template is
    built for each rainbow line only, so a rainbow-free coloring builds
    none."""
    rainbow = _rainbow_line_points(coloring, "rainbow_lines")
    return [line_template(idxs, coloring.shape) for idxs in rainbow]


def is_rainbow_free(coloring: Coloring) -> bool:
    return next(_rainbow_line_points(coloring, "is_rainbow_free"), None) is None


def _first_occurrence(values: Iterable[int]) -> tuple[int, ...]:
    """`values` renamed to 1, 2, ... in order of first occurrence."""
    mapping: dict[int, int] = {}
    out = []
    for c in values:
        if c not in mapping:
            mapping[c] = len(mapping) + 1
        out.append(mapping[c])
    return tuple(out)


def canonical_relabel(coloring: Coloring) -> Coloring:
    """Rename colors to 1, 2, ... in first-occurrence order by point index.

    Idempotent; two total colorings get equal canonical forms iff they
    induce the same partition of the points.
    """
    _require_total(coloring, "canonical_relabel")
    return Coloring(coloring.shape, _first_occurrence(coloring.colors))


def orbit_canonical_form(coloring: Coloring) -> Coloring:
    """Smallest canonical relabeling over all automorphism images.

    Constant on each (automorphism x color-renaming) orbit, so it decides
    equivalence up to cube symmetry and palette renaming at once.
    """
    _require_total(coloring, "orbit_canonical_form")
    best: tuple[int, ...] | None = None
    colors = coloring.colors
    size = len(colors)
    for index_map in automorphism_index_maps(coloring.shape):
        image = [0] * size
        for old, new in enumerate(index_map):
            image[new] = colors[old]
        candidate = _first_occurrence(image)
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return Coloring(coloring.shape, best)


def serialize(coloring: Coloring, comment: str | None = None) -> str:
    """Write the exchange format: magic line, shape line, k entries per row."""
    k, n = coloring.shape.k, coloring.shape.n
    lines = ["ahj-coloring v1", f"k={k} n={n}"]
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}".rstrip())
    for start in range(0, coloring.shape.point_count, k):
        lines.append(" ".join(str(c) for c in coloring.colors[start : start + k]))
    return "\n".join(lines) + "\n"


def parse(text: str) -> Coloring:
    """Read the exchange format produced by :func:`serialize`.

    '#' starts a comment to end of line (anywhere after the shape line).
    Raises ParseError with a 1-based position on malformed input.
    """
    raw_lines = text.splitlines()
    if not raw_lines or raw_lines[0].strip() != "ahj-coloring v1":
        raise ParseError("expected magic line 'ahj-coloring v1'", 1)
    if len(raw_lines) < 2:
        raise ParseError("missing shape line 'k=<int> n=<int>'", 2)
    shape_fields = raw_lines[1].split()
    # ASCII digits only, as in the entries: int() would also take "٣",
    # "1_0" and "+3".
    if (
        len(shape_fields) != 2
        or not shape_fields[0].startswith("k=")
        or not shape_fields[1].startswith("n=")
        or not all(f[2:].isascii() and f[2:].isdecimal() for f in shape_fields)
    ):
        raise ParseError("shape line must be 'k=<int> n=<int>'", 2)
    # int() refuses more digits than sys.get_int_max_str_digits(), as it
    # does an entry's below.
    try:
        k, n = int(shape_fields[0][2:]), int(shape_fields[1][2:])
    except ValueError:
        raise ParseError("shape number too long", 2) from None
    try:
        shape = CubeShape(k, n)
    except Exception as exc:
        raise ParseError(str(exc), 2) from None

    entries: list[int] = []
    for lineno, raw in enumerate(raw_lines[2:], start=3):
        body = raw.split("#", 1)[0]
        col = 1
        for token in body.split():
            col = body.index(token, col - 1) + 1
            # An optional minus sign, then ASCII digits only.  A signed
            # entry is refused even when int() reads it as 0, as in "-0".
            digits = token.removeprefix("-")
            if not (digits.isascii() and digits.isdecimal()):
                raise ParseError(f"bad entry {token!r}", lineno, col)
            if digits != token:
                raise ParseError(f"negative color id {token}", lineno, col)
            try:
                entries.append(int(token))
            except ValueError:
                raise ParseError(f"color id too long: {len(token)} digits", lineno, col) from None
            col += len(token)
    expected = shape.point_count
    if len(entries) != expected:
        raise ParseError(
            f"expected {expected} entries for [{k}]^{n}, got {len(entries)}",
            len(raw_lines),
        )
    return Coloring(shape, tuple(entries))
