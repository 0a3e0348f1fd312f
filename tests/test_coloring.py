"""Coloring model: rainbow checks, census, canonical forms, file format."""

import time

import pytest
from hypothesis import given, strategies as st

from ahj.coloring import (
    Coloring,
    ColoringError,
    ParseError,
    canonical_relabel,
    census,
    is_minimal,
    is_rainbow_free,
    orbit_canonical_form,
    parse,
    rainbow_lines,
    serialize,
)
from ahj import hypercube
from ahj.hypercube import (
    CubeShape,
    LineTemplate,
    enumerate_lines,
    line_count,
)

S32 = CubeShape(3, 2)


def coloring_of(shape, *colors):
    return Coloring(shape, tuple(colors))


def mono(shape, color=1):
    return Coloring(shape, (color,) * shape.point_count)


def relabel_from(coloring, mapping):
    """Apply a color-id mapping (ids absent from the map pass through)."""
    return Coloring(coloring.shape, tuple(mapping.get(c, c) for c in coloring.colors))


def all_distinct(shape):
    return Coloring(shape, tuple(range(1, shape.point_count + 1)))


coloring_strategy = st.builds(
    lambda shape, seed: Coloring(
        shape,
        tuple(seed[i % len(seed)] for i in range(shape.point_count)),
    ),
    st.sampled_from([CubeShape(2, 2), CubeShape(2, 3), CubeShape(3, 2), CubeShape(3, 3)]),
    st.lists(st.integers(1, 6), min_size=1, max_size=12),
)


class TestColoringValue:
    def test_length_checked(self):
        with pytest.raises(ColoringError):
            Coloring(S32, (1,) * 8)

    def test_negative_rejected(self):
        with pytest.raises(ColoringError):
            Coloring(S32, (-1,) + (1,) * 8)

    def test_totality(self):
        assert mono(S32).is_total
        assert not mono(S32).assign(4, 0).is_total


class TestRainbow:
    def test_monochromatic_is_rainbow_free(self):
        for shape in (CubeShape(2, 3), S32, CubeShape(4, 2)):
            assert is_rainbow_free(mono(shape))
            assert rainbow_lines(mono(shape)) == []

    def test_all_distinct_on_square_has_seven_rainbow_lines(self):
        c = all_distinct(S32)
        assert not is_rainbow_free(c)
        assert len(rainbow_lines(c)) == 7

    def test_partial_coloring_rejected(self):
        with pytest.raises(ColoringError):
            is_rainbow_free(mono(S32).assign(2, 0))

    @given(coloring_strategy)
    def test_rf_iff_no_rainbow_lines(self, c):
        assert is_rainbow_free(c) == (rainbow_lines(c) == [])

    @given(coloring_strategy)
    def test_rainbow_lines_in_enumeration_order(self, c):
        found = rainbow_lines(c)
        assert len(found) <= line_count(c.shape)
        order = {t: i for i, t in enumerate(enumerate_lines(c.shape))}
        assert [order[t] for t in found] == sorted(order[t] for t in found)

    @pytest.mark.parametrize(
        "coloring, rainbow_count",
        [
            (mono(CubeShape(3, 5)), 0),
            (mono(CubeShape(3, 3)).assign(0, 2).assign(1, 3), 1),
            (all_distinct(S32), 7),
        ],
        ids=["rainbow-free", "one-rainbow", "all-rainbow"],
    )
    def test_builds_a_template_per_rainbow_line_only(self, monkeypatch, coloring, rainbow_count):
        for obj in vars(hypercube).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        built = []
        init = LineTemplate.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LineTemplate, "__init__", counting_init)
        assert len(rainbow_lines(coloring)) == rainbow_count
        assert len(built) == rainbow_count


class TestCensusAndMinimality:
    def test_single_dominant_class_is_minimal(self):
        c = coloring_of(S32, 1, 1, 1, 1, 1, 1, 2, 3, 4)
        assert census(c).class_sizes == {1: 6, 2: 1, 3: 1, 4: 1}
        assert is_minimal(c)

    def test_monochromatic_is_minimal(self):
        assert is_minimal(mono(S32))

    def test_two_big_classes_are_not_minimal(self):
        c = coloring_of(S32, 1, 1, 1, 1, 2, 2, 2, 3, 4)
        assert not is_minimal(c)

    def test_all_distinct_is_minimal(self):
        assert is_minimal(all_distinct(S32))

    @given(coloring_strategy)
    def test_census_sizes_sum_to_point_count(self, c):
        report = census(c)
        assert sum(report.class_sizes.values()) == c.shape.point_count
        assert report.unassigned_count == 0
        assert report.distinct_count == len(report.class_sizes)

    def test_unassigned_counted(self):
        c = mono(S32).assign(0, 0).assign(1, 0)
        assert census(c).unassigned_count == 2
        assert sum(census(c).class_sizes.values()) == 7


class TestCanonicalForms:
    def test_first_occurrence_order(self):
        c = Coloring(CubeShape(3, 1), (5, 5, 9))
        assert canonical_relabel(c).colors == (1, 1, 2)

    @given(coloring_strategy)
    def test_idempotent(self, c):
        once = canonical_relabel(c)
        assert canonical_relabel(once) == once

    @given(coloring_strategy, st.permutations(list(range(1, 7))))
    def test_partition_faithful(self, c, perm):
        renamed = relabel_from(c, {i + 1: perm[i] for i in range(6)})
        assert canonical_relabel(renamed) == canonical_relabel(c)

    def test_distinct_partitions_differ(self):
        a = coloring_of(S32, 1, 1, 2, 2, 3, 3, 4, 4, 1)
        b = coloring_of(S32, 1, 1, 2, 2, 3, 3, 4, 4, 4)
        assert canonical_relabel(a) != canonical_relabel(b)

    def test_monochromatic_orbit_form_is_itself(self):
        assert orbit_canonical_form(mono(S32, 3)) == mono(S32, 1)

    @given(coloring_strategy)
    def test_orbit_form_invariant_under_transpose(self, c):
        if c.shape.n != 2:
            return
        k = c.shape.k
        transposed = Coloring(
            c.shape,
            tuple(
                c.colors[j * k + i] for i in range(k) for j in range(k)
            ),
        )
        assert orbit_canonical_form(transposed) == orbit_canonical_form(c)

    @given(coloring_strategy, st.permutations(list(range(1, 7))))
    def test_orbit_form_invariant_under_renaming(self, c, perm):
        renamed = relabel_from(c, {i + 1: perm[i] for i in range(6)})
        assert orbit_canonical_form(renamed) == orbit_canonical_form(c)


class TestFileFormat:
    def test_parse_basic(self):
        text = "ahj-coloring v1\nk=3 n=2\n1 2 3\n4 5 6\n7 8 9\n"
        c = parse(text)
        assert c.shape == S32
        assert c.colors == (1, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_comments_and_ragged_rows(self):
        text = "ahj-coloring v1\nk=3 n=2\n# remark\n1 2 3 4 5 # six\n6 7 8 9\n"
        assert parse(text).colors == (1, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_wrong_count_rejected(self):
        text = "ahj-coloring v1\nk=3 n=2\n1 2 3 4 5 6 7 8\n"
        with pytest.raises(ParseError):
            parse(text)

    def test_bad_magic_rejected(self):
        with pytest.raises(ParseError):
            parse("colors v2\nk=3 n=2\n" + "1 " * 9)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse("ahj-coloring v1\nk=3 m=2\n" + "1 " * 9)

    def test_bad_entry_position_reported(self):
        # Only an optional minus sign and ASCII digits make an entry; int()
        # would fail on "--2" and "-", and str.isdigit() accepts "²".
        for token in ("x", "--2", "²", "-"):
            text = f"ahj-coloring v1\nk=3 n=2\n1 2 3\n4 {token} 6\n7 8 9\n"
            with pytest.raises(ParseError, match="bad entry") as err:
                parse(text)
            assert (err.value.line, err.value.column) == (4, 3)

    @pytest.mark.parametrize("token", ["-0", "-00"])
    def test_signed_zero_is_not_an_unassigned_cell(self, token):
        # int() reads these as 0, the unassigned cell.
        text = f"ahj-coloring v1\nk=3 n=2\n1 2 3\n4 {token} 6\n7 8 9\n"
        with pytest.raises(ParseError, match="negative color id") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (4, 3)

    @pytest.mark.parametrize("k", ["٣", "1_0", "+3"])
    def test_shape_line_takes_ascii_digits_only(self, k):
        # int() reads these as 3, 10 and 3; the entries fit that shape.
        text = f"ahj-coloring v1\nk={k} n=2\n" + "1 " * int(k) ** 2 + "\n"
        with pytest.raises(ParseError, match="shape line") as err:
            parse(text)
        assert err.value.line == 2

    def test_huge_shape_is_refused_quickly(self):
        started = time.process_time()
        with pytest.raises(ParseError, match="index budget") as err:
            parse("ahj-coloring v1\nk=10000000 n=10000000\n1\n")
        assert err.value.line == 2
        assert time.process_time() - started < 1.0

    def test_overlong_shape_number_is_a_parse_error(self):
        # More digits than int() converts by default (4,300 on CPython).
        text = "ahj-coloring v1\nk=" + "3" * 5000 + " n=2\n1 2 3\n4 5 6\n7 8 9\n"
        with pytest.raises(ParseError, match="too long") as err:
            parse(text)
        assert err.value.line == 2

    def test_overlong_entry_is_a_parse_error(self):
        text = "ahj-coloring v1\nk=3 n=2\n1 2 3\n4 " + "7" * 5000 + " 6\n7 8 9\n"
        with pytest.raises(ParseError, match="too long") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (4, 3)

    def test_serialize_groups_by_last_coordinate(self):
        c = all_distinct(S32)
        body = serialize(c).splitlines()
        assert body[0] == "ahj-coloring v1"
        assert body[1] == "k=3 n=2"
        assert body[2:] == ["1 2 3", "4 5 6", "7 8 9"]

    @given(coloring_strategy)
    def test_round_trip(self, c):
        assert parse(serialize(c)) == c

    def test_round_trip_with_comment(self):
        c = mono(S32, 2)
        assert parse(serialize(c, comment="two lines\nof remarks")) == c
