"""Command-line driver: exit codes, JSON reports, and summary lines.

Every test spawns the entry point in a subprocess so the contract (exit 0 when
all non-skipped checks pass, 1 on any failure, 2 on usage or IO errors) is
pinned at the process boundary.
"""

import json
import os
import subprocess
import sys

import pytest

BASE = [sys.executable, "-m", "rfactor.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env
    )


def test_passing_suite_prints_summary_and_json_and_exits_zero():
    proc = run_cli("sl2", "--cap", "4", "--trials", "2", "--seed", "5",
                   "--check", "casimir")
    assert proc.returncode == 0
    assert "PASS  casimir" in proc.stdout
    assert "sl2: 2 checks, 2 passed, 0 failed, 0 skipped" in proc.stdout
    report = json.loads(proc.stdout[proc.stdout.index("{"):])
    assert report["suite"] == "sl2" and report["seed"] == 5
    assert report["all_passed"] and len(report["checks"]) == 2
    for check in report["checks"]:
        assert set(check) == {"name", "params", "status", "scalar"}


def test_same_seed_and_config_reports_are_byte_identical(tmp_path):
    args = ("sl2", "--cap", "4", "--trials", "2", "--seed", "9",
            "--check", "F1", "--check", "casimir")
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    assert run_cli(*args, "--out", str(paths[0])).returncode == 0
    assert run_cli(*args, "--out", str(paths[1])).returncode == 0
    assert run_cli(*args, "--jobs", "2", "--out", str(paths[2])).returncode == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_mutation_mode_exits_one_with_a_witness():
    proc = run_cli("sl2", "--cap", "4", "--trials", "1", "--seed", "0",
                   "--check", "F1", "--mutate", "r1:1")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "witness:" in proc.stdout


def test_guard_rejected_explicit_params_skip_and_exit_zero():
    proc = run_cli("sl2", "--cap", "4", "--check", "F1",
                   "--params", "1,0,1/2,0")
    assert proc.returncode == 0
    assert "SKIP  F1" in proc.stdout
    assert "reason: (0)_1 = 0" in proc.stdout


def test_guard_rejected_explicit_params_over_the_size_limit_exit_two():
    # the guard is read off the factor's path table on the pair basis, so
    # the pair is built, and held to the size limit, before the guard runs
    proc = run_cli("sl2", "--cap", "8", "--check", "F1",
                   "--params", "1,0,1/2,0",
                   env_extra={"RFACTOR_SIZE_LIMIT": "44"})
    assert proc.returncode == 2
    assert "size limit" in proc.stderr


def test_explicit_params_run_exactly_the_requested_point():
    proc = run_cli("sl3", "--cap", "4", "--check", "3F2",
                   "--params", "1/2,1/3,0,1/5,1/7,2/3")
    assert proc.returncode == 0
    assert "PASS  3F2 [1/2, 1/3, 0, 1/5, 1/7, 2/3]" in proc.stdout


def test_report_subcommand_roundtrip(tmp_path):
    good = tmp_path / "good.json"
    run_cli("sl2", "--cap", "4", "--trials", "1", "--seed", "2",
            "--check", "casimir", "--out", str(good))
    proc = run_cli("report", str(good))
    assert proc.returncode == 0
    assert "1 passed" in proc.stdout

    bad = tmp_path / "bad.json"
    assert run_cli("sl2", "--cap", "4", "--trials", "1", "--seed", "0",
                   "--check", "F1", "--mutate", "r1:1",
                   "--out", str(bad)).returncode == 1
    assert run_cli("report", str(bad)).returncode == 1

    assert run_cli("report", str(tmp_path / "missing.json")).returncode == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert run_cli("report", str(garbage)).returncode == 2
    deep = tmp_path / "deep.json"  # deeper than the JSON reader recurses
    deep.write_text("[" * 100000 + "]" * 100000)
    proc = run_cli("report", str(deep))
    assert proc.returncode == 2 and "cannot read report" in proc.stderr
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run_cli("report", str(empty)).returncode == 2
    # wrong shapes are refused before anything is printed
    check = {"name": "F1", "params": ["1"], "status": "pass"}
    for n, shape in enumerate([
        [],
        {"suite": "sl2", "checks": [1]},
        {"suite": "sl2", "checks": "ab"},
        {"suite": "sl2", "checks": [{**check, "params": 5}]},
    ]):
        path = tmp_path / f"shape{n}.json"
        path.write_text(json.dumps(shape))
        proc = run_cli("report", str(path))
        assert proc.returncode == 2, (shape, proc.stderr)
        assert proc.stdout == ""
        assert "cannot read report" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("sl2", "--bogus"),
        ("sl2", "--check", "no-such-check"),
        ("sl2", "--cap", "1"),
        ("sl2", "--trials", "0"),
        ("sl2", "--jobs", "0"),
        ("sl2", "--check", "F1", "--params", "1,oops"),
        ("sl2", "--params", "1,2"),
        ("sl2", "--check", "F1", "--check", "F2", "--params", "1,1,1,1"),
        ("sl2", "--check", "F1", "--mutate", "bogus"),
        ("oracle", "--algebra", "sl2", "--op", "r1"),
        ("ybe",),
        ("sl2", "--check", "F1", "--params", "1e5000,1,1,1", "--cap", "4"),
        ("sl2", "--check", "casimir", "--params", "7" * 4000, "--cap", "2"),
        ("sl2", "--check", "casimir", "--params", ""),
    ],
)
def test_usage_errors_exit_two(args):
    assert run_cli(*args).returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("sl2", "--check", "F1", "--params", "1,2"),
        ("sl2", "--check", "casimir", "--params", "1,2,3"),
        ("sl3", "--check", "findim", "--params", "1"),
    ],
)
def test_explicit_params_of_the_wrong_count_exit_two(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "parameters, got" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("sl2", "--check", "closed-form", "--cap", "6", "--trials", "3"),
        ("sl2", "--check", "oracle-r1", "--check", "casimir", "--cap", "4"),
        ("sl3", "--check", "oracle-r3-single", "--check", "oracle-r2",
         "--trials", "2"),
    ],
)
def test_mutation_read_by_no_selected_check_is_refused(args):
    tag = "r1:1" if args[0] == "sl2" else "r2:b"
    proc = run_cli(*args, "--mutate", tag)
    assert proc.returncode == 2
    assert "no selected check reads the mutation" in proc.stderr
    assert proc.stdout == ""


def test_mutation_exponent_above_the_cap_is_refused():
    # no path of a cap-4 factor reaches exponent 9: the run would pass
    # without ever applying the mutation
    proc = run_cli("sl2", "--cap", "4", "--check", "F1", "--check", "F2",
                   "--check", "rfact-orders", "--mutate", "r1:9")
    assert proc.returncode == 2
    assert "mutation exponent 9 is above cap 4" in proc.stderr
    assert proc.stdout == ""


def test_mutation_runs_when_one_selected_check_reads_it():
    proc = run_cli("sl2", "--cap", "4", "--trials", "1", "--seed", "0",
                   "--check", "closed-form", "--check", "F1",
                   "--mutate", "r1:1")
    assert proc.returncode == 1
    assert "FAIL  F1" in proc.stdout
    assert "PASS  closed-form" in proc.stdout


def test_report_exit_code_follows_the_statuses_not_the_stored_flag(tmp_path):
    lying = tmp_path / "lying.json"
    lying.write_text(json.dumps({
        "suite": "sl2", "seed": 0, "cap": 4, "all_passed": True,
        "checks": [
            {"name": "F1", "params": ["1"], "status": "pass"},
            {"name": "F2", "params": ["1"], "status": "fail",
             "witness": {"monomial": "z1", "value": "1"}},
        ],
    }))
    proc = run_cli("report", str(lying))
    assert proc.returncode == 1
    assert "1 failed" in proc.stdout


def test_importing_the_cli_leaves_the_pool_dataclasses_and_inspect_unimported():
    # only --jobs > 1 runs a process pool, and the package's value types
    # need no dataclasses: each of these imports would cost every run
    # start-up time. Modules loaded before the import, by a site hook say,
    # do not count.
    code = (
        "import json, sys; before = set(sys.modules); import rfactor.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "rfactor.verify" in added
    assert not added & {"concurrent.futures.process", "dataclasses", "inspect"}


def test_zero_shift_parameter_does_not_crash_sl3_invariance():
    # the first parameter is the x shift of the group element
    proc = run_cli("sl3", "--cap", "3", "--check", "sl3-invariance",
                   "--params", "0,1/2,1/3,1/5,1/7,2/3")
    assert proc.returncode == 0, proc.stderr
    assert "PASS  sl3-invariance" in proc.stdout


@pytest.mark.parametrize("limit, code", [("45", 0), ("44", 2)])
def test_size_limit_is_counted_on_the_pair_basis_built(limit, code):
    # sl2 at cap 8 pairs 45 monomials of total height <= 8
    proc = run_cli("sl2", "--cap", "8", "--check", "F1", "--trials", "1",
                   env_extra={"RFACTOR_SIZE_LIMIT": limit})
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert "size limit" in proc.stderr


def test_size_limit_env_var_caps_the_basis():
    proc = run_cli("sl2", "--cap", "8",
                   env_extra={"RFACTOR_SIZE_LIMIT": "10"})
    assert proc.returncode == 2
    assert "size limit" in proc.stderr
    proc = run_cli("sl2", "--cap", "4",
                   env_extra={"RFACTOR_SIZE_LIMIT": "not-a-number"})
    assert proc.returncode == 2
    assert "integer" in proc.stderr
