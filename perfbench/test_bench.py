"""Fast self-test of the benchmark harness (not part of the Tier-1 suite).

    python3 -m pytest -q perfbench/test_bench.py

Each workload runs at cap 2 with one point per check, untraced and traced,
and every metric BENCHMARK.json names must come back with its unit.  The
correctness gate must reject the report of a deliberately mutated run.
"""

import json

import pytest

import bench

BENCHMARK = bench.load_json(bench.ROOT / "BENCHMARK.json")
SPEC = bench.load_json(bench.HERE / "spec.json")


def small(command):
    argv = list(command)
    argv[argv.index("--cap") + 1] = "2"
    argv[argv.index("--trials") + 1] = "1"
    return argv + ["--seed", "0"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    bench.build()
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    argv = small(SPEC["workloads"][workload]["command"])
    metrics, summary = bench.measure(argv, 0, trace, None, list(units))
    line = bench.result_line(summary, metrics, units)
    assert summary["problems"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(units)
    for name, m in line["metrics"].items():
        assert m["unit"] == units[name]
        assert isinstance(m["value"], (int, float)), name
    json.dumps(line)


def test_every_layer_metric_names_what_it_should_move():
    moves = SPEC["per_layer_moves"]
    for m in BENCHMARK["per_layer"]:
        key = m["name"]
        if key.startswith("verify.check."):
            key = "verify.check.<name>.cpu_s"
        assert key in moves, m["name"]


def test_a_wrong_report_is_caught():
    good = bench.probe("run", ["rfactor", "sl2", "--check", "F1", "--trials", "1"])
    bad = bench.probe(
        "run",
        ["rfactor", "sl2", "--check", "F1", "--trials", "1", "--mutate", "r1:1"],
    )
    assert bench.report_failures([good], good["report"]) == (0, [])
    for reference in (good["report"], None):
        failed, problems = bench.report_failures([bad], reference)
        assert failed >= 1 and problems
    failed, problems = bench.report_failures([good, bad], None)
    assert failed >= 2 and any("differs from report 0" in p for p in problems)
    crashed = dict(good, report=None, exit=None, error="Traceback\nKeyError: 1")
    assert bench.report_failures([crashed], None) == (
        1, ["invocation 0 crashed: KeyError: 1"]
    )
