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
    sweep = _sweep_module()
    changed, added, removed = sweep.compare(
        json.loads(GOLDEN.read_text()), sweep.sweep(tmp_path)
    )
    moved = changed + added + removed
    assert not moved, f"{len(moved)} configurations changed: " + "; ".join(moved)


def test_against_lists_each_key_and_fails_only_on_a_changed_or_removed_one(
    tmp_path, monkeypatch, capsys
):
    sweep = _sweep_module()
    old = {"a": [1], "b": [2], "c": [3]}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    for now, code, lines in [
        (old, 0, ["0 changed, 0 added, 0 removed"]),
        ({**old, "d": [4]}, 0, ["added: d", "0 changed, 1 added, 0 removed"]),
        ({**old, "b": [5]}, 1, ["changed: b", "1 changed, 0 added, 0 removed"]),
        ({"a": [1], "c": [3], "d": [4]}, 1,
         ["added: d", "removed: b", "0 changed, 1 added, 1 removed"]),
    ]:
        monkeypatch.setattr(sweep, "sweep", lambda tmp, now=now: now)
        assert sweep.main(["--against", str(path)]) == code
        assert capsys.readouterr().out.splitlines() == lines
