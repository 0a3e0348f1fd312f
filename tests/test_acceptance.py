"""Acceptance gate: the ten headline claims, one test case and verdict
line each.

Each case runs one entry of ``ahj.repro.CLAIMS``, the same table that
``ahj repro`` runs, so every claim, its assertions and its time bounds
have a single definition.  Claim 1 runs the only exact ``[3]^3`` search.
"""

import pytest

from conftest import ACCEPTANCE_RESULTS
from ahj.repro import CLAIMS


@pytest.mark.parametrize(
    "number, claim", enumerate(CLAIMS, 1), ids=[f"{n:02d}" for n in range(1, len(CLAIMS) + 1)]
)
def test_criterion(number, claim):
    label, check = claim
    ok, detail = check()
    verdict = "PASS" if ok else "FAIL"
    text = f"{label}: {detail}"
    ACCEPTANCE_RESULTS[number] = (verdict, text)
    print(f"criterion {number:2d} {verdict}  {text}")
    assert ok, f"criterion {number} failed: {text}"
