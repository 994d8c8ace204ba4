"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run as `pytest tests/test_acceptance.py -v -s` to watch the PASS/FAIL lines;
the same criteria back the CLI's `report` subcommand.
"""

import pytest

from isingtri.acceptance import CRITERIA, AcceptanceContext, run_acceptance, run_criterion


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext()


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(cid, ctx, capsys):
    result = run_criterion(cid, ctx)
    with capsys.disabled():
        print(result.line(), flush=True)
    assert result.passed, result.details


def test_a_repeated_id_runs_once():
    results = run_acceptance([1, 1])
    assert [r.cid for r in results] == [1]
    assert results[0].line().startswith("[PASS] criterion 1: exact critical constants (")
