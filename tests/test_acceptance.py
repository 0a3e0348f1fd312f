"""Acceptance gate: the ten headline claims, one test and verdict line each.

Each test runs one entry of ``ahj.cli.CLAIMS``, the same table that
``ahj repro`` runs, so every claim, its assertions and its time bounds
have a single definition.  Claim 1 runs the only exact ``[3]^3`` search.
"""

from conftest import ACCEPTANCE_RESULTS
from ahj.cli import CLAIMS


def check(number, description, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    text = f"{description}: {detail}"
    ACCEPTANCE_RESULTS[number] = (verdict, text)
    print(f"criterion {number:2d} {verdict}  {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_exact_values_by_search():
    label, claim = CLAIMS[0]
    check(1, label, *claim())


def test_criterion_02_two_symbol_cubes():
    label, claim = CLAIMS[1]
    check(2, label, *claim())


def test_criterion_03_oracle_equivalence():
    label, claim = CLAIMS[2]
    check(3, label, *claim())


def test_criterion_04_enumeration_counts():
    label, claim = CLAIMS[3]
    check(4, label, *claim())


def test_criterion_05_construction_properties():
    label, claim = CLAIMS[4]
    check(5, label, *claim())


def test_criterion_06_arrangement_endgames():
    label, claim = CLAIMS[5]
    check(6, label, *claim())


def test_criterion_07_bounds_table_and_identities():
    label, claim = CLAIMS[6]
    check(7, label, *claim())


def test_criterion_08_fixture_verification():
    label, claim = CLAIMS[7]
    check(8, label, *claim())


def test_criterion_09_invariant_suites():
    label, claim = CLAIMS[8]
    check(9, label, *claim())


def test_criterion_10_determinism_across_runs():
    label, claim = CLAIMS[9]
    check(10, label, *claim())
