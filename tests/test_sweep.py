"""The behaviour contract: every configuration of `tools/sweep.py` leaves the
report, stdout, stderr and exit code recorded in `tests/sweep.golden.json`.

A change that moves a report regenerates the golden file in the same diff
(`PYTHONPATH=src python tools/sweep.py > tests/sweep.golden.json`), so the
configurations it moved show in the diff.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "sweep.golden.json"


def _sweep_module():
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_sweep_configuration_leaves_what_the_golden_file_records(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    now = _sweep_module().sweep(tmp_path)
    changed = sorted(k for k in golden.keys() | now.keys() if golden.get(k) != now.get(k))
    assert not changed, f"{len(changed)} configurations changed: " + "; ".join(changed)
