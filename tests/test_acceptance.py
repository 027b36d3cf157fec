"""Acceptance gate: every criterion of the desk suite, one line each.

Each criterion is a self-contained check over its stated parameter grid.
The implementations and the runner that times them against their budgets
live next to the fixtures subcommand, so the command line and this gate
run exactly the same code.
"""

import pytest

from cyclohecke.cli import desk_criteria, run_criterion

CRITERIA = desk_criteria()


@pytest.mark.parametrize(
    "name,check,budget",
    CRITERIA,
    ids=[name.replace(" ", "-") for name, _, _ in CRITERIA],
)
def test_criterion(name, check, budget):
    record = run_criterion(name, check, budget)
    verdict = "PASS" if record["passed"] else "FAIL"
    print(f"criterion {name}: {verdict} ({record['seconds']:.1f}s) "
          f"{record['detail']}")
    if not record["passed"]:
        pytest.fail(f"criterion {name}: {record['detail']}")
