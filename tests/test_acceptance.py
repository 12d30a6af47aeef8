"""Acceptance suite: runs every numbered criterion and prints one line each.

All comparisons are exact equality (rational arithmetic end to end), so
there are no tolerances to configure.  Run with ``pytest -s`` to see the
per-criterion lines; the same checks back ``jordanet verify``.
"""

import json
from pathlib import Path

import pytest

from jordanet.verify import ACCEPTANCE_CRITERIA

# each criterion's checks as (name, ok, detail), recorded from `jordanet
# verify --json` (seed 0), keyed by criterion number
GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_golden.json").read_text())


@pytest.mark.parametrize(
    "number,description,runner",
    [(k + 1, desc, fn) for k, (desc, fn) in enumerate(ACCEPTANCE_CRITERIA)],
    ids=[f"criterion-{k + 1:02d}" for k in range(len(ACCEPTANCE_CRITERIA))],
)
def test_acceptance_criterion(number, description, runner):
    results = runner(seed=0)
    failures = [r for r in results if not r.ok]
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description} "
          f"({len(results) - len(failures)}/{len(results)} checks)")
    for r in failures:
        print(f"    failed: {r.name} {r.detail}")
    assert not failures, f"criterion {number}: {[r.name for r in failures]}"
    got = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    assert got == GOLDEN[f"{number:02d}"]
