"""Rainbow-free constructions: digit-position, stacking, singleton sets."""

import pytest
from hypothesis import given, settings, strategies as st

from ahj.coloring import Coloring, canonical_relabel, census, is_minimal, is_rainbow_free
from ahj.constructions import (
    ConstructionError,
    digit_position_coloring,
    monochromatic,
    singleton_set_coloring,
    stack_recursive,
)
from ahj.hypercube import CubeShape, layer

from reference import point_from_index, point_index

S32 = CubeShape(3, 2)

small_shapes = st.builds(
    CubeShape,
    st.integers(3, 5),
    st.integers(1, 4),
).filter(lambda s: s.point_count <= 700)


def color_at(coloring, *coords):
    return coloring.colors[point_index(coords, coloring.shape)]


class TestMonochromatic:
    def test_single_color(self):
        c = monochromatic(S32)
        assert census(c).distinct_count == 1
        assert is_rainbow_free(c)


class TestDigitPosition:
    def test_square_classes(self):
        # the four classes of [3]^2: 11 | 12,13 | 21,31 | 22,23,32,33
        c = digit_position_coloring(S32)
        assert census(c).distinct_count == 4
        assert color_at(c, 1, 2) == color_at(c, 1, 3)
        assert color_at(c, 2, 1) == color_at(c, 3, 1)
        high = {color_at(c, y, z) for y in (2, 3) for z in (2, 3)}
        assert len(high) == 1
        assert len({color_at(c, 1, 1), color_at(c, 1, 2), color_at(c, 2, 1)}) == 3

    def test_rejects_two_symbols(self):
        with pytest.raises(ConstructionError):
            digit_position_coloring(CubeShape(2, 2))

    @given(small_shapes)
    @settings(max_examples=30, deadline=None)
    def test_census_and_rainbow_freedom(self, shape):
        """Exactly (k-1)^n colors and no rainbow line, for every small shape."""
        c = digit_position_coloring(shape)
        assert census(c).distinct_count == (shape.k - 1) ** shape.n
        assert is_rainbow_free(c)


class TestStackRecursive:
    def test_census_grows_linearly(self):
        base = digit_position_coloring(S32)
        stacked = stack_recursive(base)
        assert stacked.shape == CubeShape(3, 3)
        assert census(stacked).distinct_count == (3 - 2) * 4 + 1

    def test_rainbow_freedom_preserved(self):
        base = digit_position_coloring(CubeShape(4, 2))
        stacked = stack_recursive(base)
        assert census(stacked).distinct_count == 2 * 9 + 1
        assert is_rainbow_free(stacked)

    def test_rejects_rainbow_base(self):
        rainbow = Coloring(S32, tuple(range(1, 10)))
        with pytest.raises(ConstructionError):
            stack_recursive(rainbow)

    def test_rejects_partial_base(self):
        base = digit_position_coloring(S32).assign(0, 0)
        with pytest.raises(ConstructionError):
            stack_recursive(base)

    @pytest.mark.parametrize("coord", [1, 2, 3])
    def test_any_stacking_coordinate(self, coord):
        base = digit_position_coloring(S32)
        stacked = stack_recursive(base, stacking_coord=coord)
        assert is_rainbow_free(stacked)
        assert census(stacked).distinct_count == 5

    @given(small_shapes)
    @settings(max_examples=15, deadline=None)
    def test_stacks_over_digit_bases(self, shape):
        if shape.point_count * shape.k > 700:
            return
        base = digit_position_coloring(shape)
        stacked = stack_recursive(base)
        assert is_rainbow_free(stacked)
        expected = (shape.k - 2) * census(base).distinct_count + 1
        assert census(stacked).distinct_count == expected


def _reference_digit_position(shape):
    """digit_position_coloring's colors from each point's coordinates."""
    k = shape.k
    high = k - 1
    colors = []
    for idx in shape.iter_indices():
        code = 0
        for v in point_from_index(idx, shape).coords:
            digit = v - 1 if v <= k - 2 else high - 1
            code = code * high + digit
        colors.append(code + 1)
    return tuple(colors)


def _reference_stack(base, t):
    """stack_recursive's colors from the sorted layers along coordinate t:
    the j-th point of a layer takes the color of base point j."""
    k = base.shape.k
    shape = CubeShape(k, base.shape.n + 1)
    base_colors = canonical_relabel(base).colors
    width = max(base_colors)
    out = [0] * shape.point_count
    for i in range(1, k + 1):
        for rest_index, idx in enumerate(sorted(layer(shape, t, i))):
            if i <= k - 2:
                out[idx] = (i - 1) * width + base_colors[rest_index]
            else:
                out[idx] = (k - 2) * width + 1
    return tuple(out)


REFERENCE_SHAPES = [CubeShape(k, n) for k in (3, 4, 5) for n in (1, 2, 3, 4)]


class TestIndexArithmeticMatchesReference:
    """The constructions place points by index arithmetic; these are the
    coordinate-level formulas they replace."""

    @pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=str)
    def test_digit_position(self, shape):
        assert digit_position_coloring(shape).colors == _reference_digit_position(shape)

    @pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=str)
    def test_stack_recursive_at_every_coordinate(self, shape):
        # Colors renamed in reverse, so the base is not in canonical order.
        digits = digit_position_coloring(shape).colors
        base = Coloring(shape, tuple(max(digits) + 1 - c for c in digits))
        for t in range(1, shape.n + 2):
            assert stack_recursive(base, t).colors == _reference_stack(base, t)


class TestSingletonSet:
    def test_known_independent_set(self):
        c = singleton_set_coloring(S32, [0, 5, 7])
        assert is_rainbow_free(c)
        assert is_minimal(c)
        assert census(c).distinct_count == 4

    def test_singletons_numbered_in_point_order(self):
        c = singleton_set_coloring(S32, [7, 0, 5])
        assert c.colors[0] == 2
        assert c.colors[5] == 3
        assert c.colors[7] == 4

    def test_collinear_set_rejected_with_witness(self):
        with pytest.raises(ConstructionError) as exc_info:
            singleton_set_coloring(S32, [0, 1, 2])
        assert exc_info.value.witness is not None

    def test_higher_alphabet_tolerates_two_per_line(self):
        # k=4 rows allow up to k-2 = 2 special points
        shape = CubeShape(4, 1)
        c = singleton_set_coloring(shape, [0, 1])
        assert is_rainbow_free(c)
        assert census(c).distinct_count == 3

    def test_empty_set_gives_monochromatic(self):
        c = singleton_set_coloring(S32, [])
        assert census(c).distinct_count == 1

    def test_out_of_range_point(self):
        with pytest.raises(ConstructionError):
            singleton_set_coloring(S32, [9])

    def test_repeated_point_rejected(self):
        with pytest.raises(ConstructionError, match="point 4 is repeated"):
            singleton_set_coloring(CubeShape(4, 3), [4, 4, 4])
