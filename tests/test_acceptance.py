"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run as `pytest tests/test_acceptance.py -v -s` to watch the PASS/FAIL lines;
the same criteria back the CLI's `report` subcommand.
"""

import pytest

from isingtri.acceptance import CRITERIA, AcceptanceContext


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext()


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(cid, ctx, capsys):
    result = CRITERIA[cid](ctx)
    line = (f"[{'PASS' if result.passed else 'FAIL'}] "
            f"criterion {result.cid}: {result.name} ({result.runtime_s:.1f}s)")
    with capsys.disabled():
        print(line, flush=True)
    assert result.passed, result.details
