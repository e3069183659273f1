"""Acceptance suite: every check of the verify registry at its full size.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. `otclu verify --level full` runs the same checks; the seeds,
instance counts, bounds and time budgets live next to each check in
`otclu.verify.CHECKS`.
"""

import pytest

from otclu.verify import CHECKS, run_check


@pytest.mark.parametrize("number, check", enumerate(CHECKS, start=1),
                         ids=[check.name for check in CHECKS])
def test_acceptance(number, check):
    result = run_check(check, "full")
    ok = result.passed and result.seconds < check.budget
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}  {check.name}: "
          f"{result.detail}, {result.seconds:.1f}s (<{check.budget:g}s)")
    assert ok, f"criterion {number} ({check.name}): {result.detail}"
