"""Acceptance suite: every check of the verify registry.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. `otclu verify` runs the same checks; the seeds, instance counts,
bounds and time budgets live next to each check in `otclu.verify.CHECKS`,
and `run_check` fails a check that overruns its budget.
"""

import re

import pytest

from otclu.verify import CHECKS, run_check


@pytest.mark.parametrize("number, check", enumerate(CHECKS, start=1),
                         ids=[check.name for check in CHECKS])
def test_acceptance(number, check):
    result = run_check(check)
    print(f"\nACCEPTANCE {number} {'PASS' if result.passed else 'FAIL'}  {check.name}: "
          f"{result.detail}, {result.seconds:.1f}s (<{check.budget:g}s)")
    assert result.passed, f"criterion {number} ({check.name}): {result.detail}"
    if check.name in ("sinkhorn-feasibility", "sinkhorn-vs-lp", "ablation-mechanics"):
        assert re.search(r"\d+ of \d+ solves stopped above tol", result.detail), result.detail
