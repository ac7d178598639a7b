"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated budget through the bundled reference-check
registry, so `commdist verify-paper` and this module exercise identical code;
the criteria are that registry's checks, numbered in its order.
"""

import pytest

from commdist.verify import CHECKS, verify_paper

CRITERIA = [(number, name) for number, (name, _, _) in enumerate(CHECKS, 1)]


@pytest.mark.parametrize("number,check", CRITERIA, ids=[c for _, c in CRITERIA])
def test_acceptance_criterion(number, check, capsys):
    [result] = verify_paper([check])
    verdict = "PASS" if result.passed and result.in_budget else "FAIL"
    line = (
        f"ACCEPTANCE {number} {check}: {verdict} "
        f"[{result.seconds:.2f}s / budget {result.budget_s:.0f}s] {result.actual}"
    )
    with capsys.disabled():
        print(line)
    assert result.passed, f"criterion {number} failed: {result.actual}"
    assert result.in_budget, (
        f"criterion {number} exceeded its budget: "
        f"{result.seconds:.2f}s >= {result.budget_s:.0f}s"
    )
