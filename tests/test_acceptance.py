"""Acceptance suite: runs every numbered criterion and prints one line each.

All comparisons are exact equality (rational arithmetic end to end), so
there are no tolerances to configure.  Run with ``pytest -s`` to see the
per-criterion lines; the same checks back ``jordanet verify``.
"""

import json
from pathlib import Path

import pytest

from jordanet.verify import (
    check_chow_generic,
    check_chow_oracle,
    check_classification,
    check_coherence,
    check_comparison_nets,
    check_complements,
    check_counts,
    check_intro,
    check_pencils,
    check_plucker,
    check_rank8_net,
    check_tau,
)

# each criterion's checks as (name, ok, detail), recorded from `jordanet
# verify --json` (seed 0), keyed by criterion number
GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_golden.json").read_text())

#: the numbered acceptance criteria, in order, each backed by one check group
ACCEPTANCE_CRITERIA = [
    ("reference spaces: closure holds, sign flip breaks it", check_intro),
    ("closure, sampled inverses and closure fixed point agree on the catalog", check_coherence),
    ("generic Chow form: degree 12, 22659 terms, vanishing behavior", check_chow_generic),
    ("rank-8 net: Chow rank, kernel forms, closure dimension", check_rank8_net),
    ("comparison nets: determinants, Chow ranks, closure statuses", check_comparison_nets),
    ("Chow rank equals sampled reciprocal span on catalog and random nets", check_chow_oracle),
    ("eight-class net classification, congruence images, degeneration diagram", check_classification),
    ("minimum-rank certificates: rank 2 in S^5, rank 1 for diagonalizable", check_tau),
    ("pencil families and certificate cubics / chart quadrics", check_pencils),
    ("complement involution, copencil classes, Peirce pieces", check_complements),
    ("certificate quadrics in dual Pluecker coordinates", check_plucker),
    ("component counts match the generating function", check_counts),
]


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
