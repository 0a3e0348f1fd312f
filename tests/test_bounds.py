"""Bound formulas, identities between them, and the assembled table."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from ahj.bounds import (
    BoundsError,
    KnownValue,
    bounds_table,
    geometric_upper,
    iterated_upper,
    known_value,
    layer_recursion_bounds,
    power_lower,
    refined_upper_3,
)
from ahj.coloring import census
from ahj.constructions import digit_position_coloring
from ahj.hypercube import CubeShape


class TestFormulas:
    def test_layer_recursion_known_step(self):
        # ah(3,3)=11 pushes to [12, 29] one dimension up
        assert layer_recursion_bounds(3, (11, 11)) == (12, 29)

    def test_layer_recursion_rejects_small_k(self):
        with pytest.raises(BoundsError):
            layer_recursion_bounds(2, (2, 2))

    def test_layer_recursion_rejects_bad_interval(self):
        with pytest.raises(BoundsError):
            layer_recursion_bounds(3, (5, 4))

    def test_power_lower_values(self):
        assert power_lower(3, 2) == 5
        assert power_lower(3, 5) == 33
        assert power_lower(4, 3) == 28

    def test_geometric_upper_values(self):
        assert geometric_upper(3, 1) == 3
        assert geometric_upper(3, 2) == 5
        assert geometric_upper(3, 3) == 11
        assert geometric_upper(3, 4) == 29

    def test_refined_upper_values(self):
        assert refined_upper_3(4) == 27
        assert refined_upper_3(5) == 77
        with pytest.raises(BoundsError):
            refined_upper_3(3)

    def test_iterated_upper_zero_steps(self):
        assert iterated_upper(3, 4, 27, 4) == 27

    def test_iterated_upper_rejects_backwards(self):
        with pytest.raises(BoundsError):
            iterated_upper(3, 4, 27, 3)


class TestIdentities:
    @given(st.integers(3, 6), st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_geometric_equals_iterated_recursion(self, k, n):
        """The summation form is the recursion u <- k*u - k - 1 run from k."""
        assert geometric_upper(k, n) == iterated_upper(k, 1, k, n)

    @given(st.integers(4, 10))
    @settings(max_examples=20, deadline=None)
    def test_refined_equals_iterated_recursion(self, n):
        assert refined_upper_3(n) == iterated_upper(3, 4, 27, n)

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_power_lower_matches_its_construction(self, k, n):
        """The inclusive lower bound sits one above the witness census."""
        c = digit_position_coloring(CubeShape(k, n))
        assert power_lower(k, n) == census(c).distinct_count + 1


class TestKnownValues:
    def test_single_axis_exact(self):
        assert known_value(5, 1) == KnownValue(5, 1, 5, 5)

    def test_interval_entry(self):
        kv = known_value(3, 4)
        assert (kv.lower, kv.upper) == (24, 27)

    def test_unknown_entries_are_absent(self):
        assert known_value(3, 5) is None
        assert known_value(4, 2) is None

    def test_invalid_interval_rejected(self):
        with pytest.raises(BoundsError):
            KnownValue(3, 2, 6, 5)


class TestTable:
    def test_three_symbol_rows(self):
        rows = bounds_table(3, 5).rows
        assert [(r.lower, r.upper) for r in rows] == [
            (3, 3),
            (5, 5),
            (11, 11),
            (24, 27),
            (33, 77),
        ]

    def test_two_symbol_rows_pin_two(self):
        for row in bounds_table(2, 6).rows:
            assert (row.lower, row.upper) == (2, 2)
            assert row.lower_source == "known-value"

    def test_small_dimensions_pinned_without_search(self):
        rows = bounds_table(3, 3).rows
        assert rows[1].lower == rows[1].upper == 5
        assert rows[2].lower == rows[2].upper == 11

    def test_provenance_tags_present(self):
        rows = bounds_table(3, 5).rows
        assert rows[4].lower_source == "power-construction"
        assert all(row.lower_source and row.upper_source for row in rows)

    @given(st.integers(2, 6), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_consistent(self, k, n_max):
        rows = bounds_table(k, n_max).rows
        assert len(rows) == n_max
        for row in rows:
            assert row.lower <= row.upper

    @pytest.mark.parametrize("k", range(3, 11))
    def test_upper_never_above_the_closed_forms(self, k):
        """The closed forms are not candidates of the table, and no row's
        upper bound lies above them."""
        for row in bounds_table(k, 20).rows:
            assert row.upper <= geometric_upper(k, row.n)
            if k == 3 and row.n >= 4:
                assert row.upper <= refined_upper_3(row.n)

    def test_bound_too_long_to_print_refused_at_its_row(self, monkeypatch):
        # The k = 10 upper bound at row n has n digits; Python prints at
        # most 4,300 by default.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        rows = bounds_table(10, 4300).rows
        assert len(str(rows[-1].upper)) == 4300
        with pytest.raises(BoundsError, match="upper bound at n=4301 has more than 4300"):
            bounds_table(10, 20000)
        # With no limit every row is built.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        assert len(bounds_table(10, 4301).rows) == 4301

    def test_rejects_bad_arguments(self):
        with pytest.raises(BoundsError):
            bounds_table(1, 3)
        with pytest.raises(BoundsError):
            bounds_table(3, 0)
