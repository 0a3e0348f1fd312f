"""Core combinatorics: indexing, line enumeration, symmetries."""

import math
import time
from array import array
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from ahj.hypercube import (
    STAR,
    CubeShape,
    LineTemplate,
    ShapeError,
    automorphism_index_maps,
    enumerate_lines,
    layer,
    line_count,
    line_index_table,
    line_template,
    point_name,
    symmetry_table_fits,
)
from ahj.search import _layer_masks, _line_masks_by_point

from reference import collinear, expand, point_from_index, point_index, point_of

SMALL_SHAPES = [
    CubeShape(k, n) for k in range(2, 6) for n in range(1, 5) if k**n <= 700
]

small_shape = st.sampled_from(SMALL_SHAPES)


@st.composite
def shape_and_index(draw):
    shape = draw(small_shape)
    return shape, draw(st.integers(0, shape.point_count - 1))


class TestShape:
    def test_point_count(self):
        assert CubeShape(3, 2).point_count == 9
        assert CubeShape(2, 4).point_count == 16

    def test_rejects_bad_parameters(self):
        with pytest.raises(ShapeError):
            CubeShape(1, 3)
        with pytest.raises(ShapeError):
            CubeShape(3, 0)

    def test_rejects_overflowing_point_count(self):
        with pytest.raises(ShapeError):
            CubeShape(2, 33)
        # (10**7)**(10**7) has 7 * 10**7 digits; the guard reads n first.
        started = time.process_time()
        with pytest.raises(ShapeError):
            CubeShape(10**7, 10**7)
        assert time.process_time() - started < 1.0


class TestPointIndexing:
    def test_known_values(self):
        s32 = CubeShape(3, 2)
        assert point_index((1, 1), s32) == 0
        assert point_index((2, 3), s32) == 5
        assert point_from_index(26, CubeShape(3, 3)).coords == (3, 3, 3)

    def test_out_of_range(self):
        s = CubeShape(3, 2)
        with pytest.raises(ShapeError):
            point_index((0, 1), s)
        with pytest.raises(ShapeError):
            point_index((1, 4), s)
        with pytest.raises(ShapeError):
            point_from_index(9, s)

    @given(shape_and_index())
    def test_roundtrip(self, si):
        shape, idx = si
        p = point_from_index(idx, shape)
        assert point_index(p.coords, shape) == idx
        assert p.index == idx

    def test_point_name_inverts_point_index(self):
        """point_name reads back the symbols that point_index packed."""
        for shape in SMALL_SHAPES:
            for coords in product(range(1, shape.k + 1), repeat=shape.n):
                name = point_name(point_index(coords, shape), shape)
                assert name == str(point_of(coords, shape))


class TestLineEnumeration:
    def test_counts(self):
        assert len(list(enumerate_lines(CubeShape(3, 2)))) == 7
        assert len(list(enumerate_lines(CubeShape(2, 2)))) == 5
        assert [str(t) for t in enumerate_lines(CubeShape(3, 1))] == ["*"]

    @given(small_shape)
    def test_count_matches_closed_form(self, shape):
        templates = list(enumerate_lines(shape))
        assert len(templates) == line_count(shape)
        assert len(set(templates)) == len(templates)

    def test_order_is_deterministic_with_star_last(self):
        names = [str(t) for t in enumerate_lines(CubeShape(2, 2))]
        assert names == ["1*", "2*", "*1", "*2", "**"]

    @given(small_shape)
    def test_every_template_has_a_star(self, shape):
        for t in enumerate_lines(shape):
            assert STAR in t.cells


class TestNames:
    @pytest.mark.parametrize("k,n", [(11, 2), (10, 3)])
    def test_wide_alphabet_names_are_distinct(self, k, n):
        """From k = 10 on a symbol can take two digits, so a name joins its
        cells with ":", and the names of the lines, and of the points, stay
        pairwise distinct."""
        shape = CubeShape(k, n)
        names = [str(t) for t in enumerate_lines(shape)]
        assert len(set(names)) == len(names) == line_count(shape)
        points = [point_name(i, shape) for i in shape.iter_indices()]
        assert len(set(points)) == len(points) == shape.point_count
        assert all(":" in name for name in names + points)

    def test_names_separate_cells_from_k_ten_on(self):
        assert str(LineTemplate((11, 1, STAR), 11)) == "11:1:*"
        assert str(point_of((1, 11, 1), CubeShape(11, 3))) == "1:11:1"
        assert point_name(point_index((1, 11, 1), CubeShape(11, 3)), CubeShape(11, 3)) == "1:11:1"
        assert str(point_of((1, 1), CubeShape(10, 2))) == "1:1"
        assert point_name(0, CubeShape(10, 2)) == "1:1"
        assert str(point_of((1, 9), CubeShape(9, 2))) == "19"
        assert point_name(8, CubeShape(9, 2)) == "19"


class TestExpand:
    def test_column(self):
        s = CubeShape(3, 2)
        line = expand(LineTemplate((STAR, 2), 3), s)
        assert [p.coords for p in line] == [(1, 2), (2, 2), (3, 2)]

    def test_diagonal(self):
        s = CubeShape(3, 2)
        line = expand(LineTemplate((STAR, STAR), 3), s)
        assert [p.coords for p in line] == [(1, 1), (2, 2), (3, 3)]

    def test_two_stars_in_three_dims(self):
        s = CubeShape(3, 3)
        line = expand(LineTemplate((1, STAR, STAR), 3), s)
        assert [p.coords for p in line] == [(1, 1, 1), (1, 2, 2), (1, 3, 3)]

    @given(small_shape, st.data())
    def test_layer_crossing(self, shape, data):
        """On any line, each coordinate is constant or takes all k values."""
        templates = list(enumerate_lines(shape))
        t = data.draw(st.sampled_from(templates))
        line = expand(t, shape)
        for c in range(shape.n):
            values = [p.coords[c] for p in line]
            assert len(set(values)) in (1, shape.k)
            if len(set(values)) == shape.k:
                assert values == list(range(1, shape.k + 1))


class TestCollinear:
    def test_known_pairs(self):
        s = CubeShape(3, 2)
        assert collinear(point_of((1, 1), s), point_of((3, 3), s), s)
        assert not collinear(point_of((1, 3), s), point_of((3, 1), s), s)
        assert collinear(point_of((1, 2), s), point_of((1, 3), s), s)

    def test_equal_points_rejected(self):
        s = CubeShape(3, 2)
        with pytest.raises(ShapeError):
            collinear(point_of((2, 2), s), point_of((2, 2), s), s)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_line_membership(self, n):
        shape = CubeShape(3, n)
        on_common_line = set()
        for idxs in line_index_table(shape):
            for a in idxs:
                for b in idxs:
                    if a < b:
                        on_common_line.add((a, b))
        for a in range(shape.point_count):
            for b in range(a + 1, shape.point_count):
                u, v = point_from_index(a, shape), point_from_index(b, shape)
                assert collinear(u, v, shape) == ((a, b) in on_common_line)


def lines_through(p, shape):
    """The templates of the lines through p, read from the point-to-line
    incidence table that the completion search uses."""
    lines = line_index_table(shape)
    mask = _line_masks_by_point(shape)[p.index]
    return [line_template(lines[li], shape) for li in range(mask.bit_length()) if mask >> li & 1]


class TestLinesThrough:
    def test_known_points(self):
        s = CubeShape(3, 2)
        assert {str(t) for t in lines_through(point_of((1, 1), s), s)} == {
            "*1",
            "1*",
            "**",
        }
        assert {str(t) for t in lines_through(point_of((1, 2), s), s)} == {"1*", "*2"}

    @pytest.mark.parametrize("k,n", [(2, 2), (2, 4), (3, 3), (4, 2), (4, 4)])
    def test_all_ones_count(self, k, n):
        shape = CubeShape(k, n)
        p = point_of((1,) * n, shape)
        assert len(lines_through(p, shape)) == 2**n - 1

    @given(shape_and_index())
    def test_matches_membership_scan_and_formula(self, si):
        shape, idx = si
        p = point_from_index(idx, shape)
        found = lines_through(p, shape)
        by_scan = [
            t
            for t, idxs in zip(enumerate_lines(shape), line_index_table(shape))
            if idx in idxs
        ]
        assert found == by_scan
        counts = {c: p.coords.count(c) for c in set(p.coords)}
        assert len(found) == sum(2**m - 1 for m in counts.values())


class TestLayers:
    def test_row_two(self):
        s = CubeShape(3, 2)
        assert layer(s, 1, 2) == {
            point_index((2, j), s) for j in (1, 2, 3)
        }

    def test_middle_coordinate(self):
        assert len(layer(CubeShape(3, 3), 2, 1)) == 9

    @given(small_shape, st.data())
    def test_layers_partition_the_cube(self, shape, data):
        t = data.draw(st.integers(1, shape.n))
        seen = set()
        for i in range(1, shape.k + 1):
            part = layer(shape, t, i)
            assert not (seen & part)
            seen |= part
        assert seen == set(shape.iter_indices())

    def test_masks_match_layers(self):
        """The search's layer masks, built by index arithmetic, hold the
        points of layer()."""
        for shape in SMALL_SHAPES:
            assert _layer_masks(shape) == tuple(
                tuple(sum(1 << p for p in layer(shape, t, i)) for i in range(1, shape.k + 1))
                for t in range(1, shape.n + 1)
            )


class TestAutomorphisms:
    def test_group_sizes(self):
        assert len(automorphism_index_maps(CubeShape(3, 3))) == 36
        assert len(automorphism_index_maps(CubeShape(2, 1))) == 2

    def test_identity_first(self):
        for shape in (CubeShape(2, 1), CubeShape(3, 3), CubeShape(4, 2)):
            maps = [tuple(m) for m in automorphism_index_maps(shape)]
            identity = tuple(shape.iter_indices())
            assert maps[0] == identity
            assert identity not in maps[1:]

    @pytest.mark.parametrize("k, n", [(2, 1), (3, 3), (4, 2), (5, 4)])
    def test_maps_are_four_byte_arrays(self, k, n):
        for m in automorphism_index_maps(CubeShape(k, n)):
            assert isinstance(m, array)
            assert m.itemsize == 4

    @pytest.mark.parametrize("k, n", [(2, 3), (3, 3), (4, 2)])
    def test_table_is_closed_under_composition(self, k, n):
        """Composing any two entries gives an entry, so the table built from
        symbol maps and coordinate maps is the whole group and no more."""
        maps = {tuple(m) for m in automorphism_index_maps(CubeShape(k, n))}
        for f in maps:
            for g in maps:
                assert tuple(f[x] for x in g) in maps

    def test_group_too_large_rejected(self):
        with pytest.raises(ShapeError):
            automorphism_index_maps(CubeShape(7, 7))

    @pytest.mark.parametrize("k, n", [(3, 7), (3, 8), (8, 2), (2, 8), (100_000, 1)])
    def test_table_too_large_rejected_before_any_map(self, k, n, monkeypatch):
        """|G| * k^n bounds the table: [3]^8 has a group of 241,920 but
        would need 1.6 * 10^9 entries.  The builders are replaced by ones
        that fail, so a missing guard fails here without allocating.  The
        size is refused as it grows, so no factorial of a large k is
        computed (100,000! has 456,574 digits)."""

        def refuse(*_):
            raise AssertionError("a map was built")

        monkeypatch.setattr("ahj.hypercube.permutations", refuse)
        monkeypatch.setattr("ahj.hypercube.product", refuse)
        with pytest.raises(ShapeError, match="index-map entries"):
            automorphism_index_maps.__wrapped__(CubeShape(k, n))

    def test_largest_tested_tables_still_built(self):
        # [5]^4 (claim 9) has 1.8M entries and [3]^6 3.1M.
        assert len(automorphism_index_maps.__wrapped__(CubeShape(5, 4))) == 2880
        assert len(automorphism_index_maps.__wrapped__(CubeShape(3, 6))) == 4320

    @pytest.mark.parametrize(
        "k, n, fits", [(3, 6, True), (5, 4, True), (7, 2, True), (3, 7, False), (8, 2, False)]
    )
    def test_table_fits_matches_the_guard(self, k, n, fits):
        assert symmetry_table_fits(CubeShape(k, n)) is fits

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lines_map_onto_lines(self, n):
        shape = CubeShape(3, n)
        line_sets = {frozenset(idxs) for idxs in line_index_table(shape)}
        for m in automorphism_index_maps(shape):
            image = {frozenset(m[i] for i in idxs) for idxs in line_index_table(shape)}
            assert image == line_sets

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_index_maps_are_permutations(self, n):
        shape = CubeShape(3, n)
        for m in automorphism_index_maps(shape):
            assert sorted(m) == list(shape.iter_indices())


def _reference_templates(shape):
    """Line templates as words over 1..k+1, with k+1 standing for the star,
    so that plain lexicographic product order puts * after k."""
    star_symbol = shape.k + 1
    for word in product(range(1, star_symbol + 1), repeat=shape.n):
        if star_symbol in word:
            yield LineTemplate(tuple(STAR if c == star_symbol else c for c in word), shape.k)


def _reference_group(shape):
    """(cp, sp) pairs in the order of automorphism_index_maps: coordinate
    permutations outer, symbol permutations of 1..k inner."""
    return list(product(permutations(range(shape.n)), permutations(range(1, shape.k + 1))))


def _reference_index_map(cp, sp, shape):
    """The point permutation of (cp, sp), through Point objects and
    point_index: image coordinate t holds symbol sp[s - 1] for the symbol s
    at source coordinate cp[t]."""
    return tuple(
        point_index(tuple(sp[coords[s] - 1] for s in cp), shape)
        for coords in (point_from_index(i, shape).coords for i in shape.iter_indices())
    )


class TestIndexTablesMatchReference:
    """The arithmetic tables equal their coordinate-level definitions."""

    @pytest.mark.parametrize(
        "shape",
        [CubeShape(2, 4)] + [CubeShape(3, n) for n in range(1, 5)]
        + [CubeShape(4, 3), CubeShape(5, 3)],
        ids=str,
    )
    def test_every_index_map(self, shape):
        maps = automorphism_index_maps(shape)
        group = _reference_group(shape)
        assert len(maps) == len(group)
        assert tuple(maps[0]) == tuple(shape.iter_indices())
        for (cp, sp), m in zip(group, maps):
            assert tuple(m) == _reference_index_map(cp, sp, shape)

    @pytest.mark.parametrize("shape", [CubeShape(4, 4), CubeShape(5, 4)], ids=str)
    def test_sampled_index_maps_cover_every_coordinate_permutation(self, shape):
        maps = automorphism_index_maps(shape)
        group = _reference_group(shape)
        assert len(maps) == len(group)
        # Elements come in blocks of k! per coordinate permutation; a stride
        # of k! + 1 takes one element from every block, each with a
        # different symbol permutation.
        stride = math.factorial(shape.k) + 1
        sample = range(0, len(group), stride)
        assert {group[j][0] for j in sample} == {cp for cp, _ in group}
        for j in sample:
            assert tuple(maps[j]) == _reference_index_map(*group[j], shape)

    @pytest.mark.parametrize(
        "shape",
        [CubeShape(2, n) for n in range(1, 9)]
        + [CubeShape(3, n) for n in range(1, 8)]
        + [CubeShape(4, n) for n in range(1, 5)]
        + [CubeShape(5, n) for n in range(1, 4)]
        + [CubeShape(6, 2), CubeShape(7, 3)],
        ids=str,
    )
    def test_line_table(self, shape):
        templates = list(_reference_templates(shape))
        assert list(enumerate_lines(shape)) == templates
        assert [line_template(idxs, shape) for idxs in line_index_table(shape)] == templates
        assert line_index_table(shape) == tuple(
            tuple(p.index for p in expand(t, shape)) for t in templates
        )


class TestLineTemplate:
    """line_template names a line from its entry in the index table."""

    @pytest.mark.parametrize(
        "shape", [CubeShape(2, 5), CubeShape(3, 4), CubeShape(4, 3), CubeShape(11, 2)], ids=str
    )
    def test_matches_enumeration(self, shape):
        named = [line_template(idxs, shape) for idxs in line_index_table(shape)]
        assert named == list(enumerate_lines(shape))
        # The names are ":"-joined from k = 10 on.
        assert {":" in str(t) for t in named} == {shape.k >= 10}
