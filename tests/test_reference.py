"""Seed-0 slices of the pinned suites reproduce the committed reference reports.

A trial's draws depend only on (seed, check name, trial index), so the first
few trials of a check reproduce those entries of the full suite's report,
skipped resamples and reported scalars included.  The oracle's scalar depends
on the order of the pair basis (it fixes the free unknown), so reordering the
basis fails this test.  The reference files are only read here.
"""

import json
from pathlib import Path

import pytest

from rfactor.verify import SuiteConfig, report_to_json, run_suite

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize(
    "workload, algebra, cap, checks, trials",
    [
        ("sl3-oracle", "sl3", 3, ("oracle-r1", "oracle-r2"), 2),
        ("sl2-default", "sl2", 8, ("F1", "F2", "rfact-orders"), 3),
        ("sl3-default", "sl3", 3, ("3F1", "3F2", "3F3", "rfact3-orders", "def3"), 1),
        ("sl3-oracle", "sl3", 3, ("oracle-r3",), 1),
    ],
)
def test_seed0_slice_matches_reference(workload, algebra, cap, checks, trials):
    ref = json.loads((REFERENCE / f"{workload}.seed0.json").read_text())
    assert (ref["suite"], ref["seed"], ref["cap"]) == (algebra, 0, cap)
    report = run_suite(
        SuiteConfig(algebra=algebra, cap=cap, trials=trials, seed=0, checks=checks)
    )
    entries = json.loads(report_to_json(report))["checks"]
    assert len(entries) >= len(checks) * trials
    for entry in entries:
        assert entry in ref["checks"], entry
