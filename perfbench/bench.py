"""rfactor benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/bench.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (``spec.json``) are pinned ``rfactor`` command lines, run through
the real CLI by ``probe.py``, one process per invocation, one at a time
(closed loop, one client, ``--jobs 1``).  ``--seed`` is passed through as the
CLI's ``--seed``; every invocation of a run uses the same seed, so repeats
measure the host, not the inputs.  Invocations repeat until ``--seconds``
would be exceeded, with at least MIN_RUNS (MIN_TRACED) of them.

All times are CPU times scaled to nominal host speed by the probe's gauge
(see ``probe.py``): on a shared host the CPU time of identical work swings by
tens of percent, and the gauge swings with it.  ``setup_s`` is the median
process CPU until ``run_suite`` is entered, over set-up-only probes and
every untraced invocation; the raw (unscaled) medians are kept in the
record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics, timed by spans installed from outside the package
(``spans.py``).

Correctness: a seed-0 report must equal the stored reference in
``reference/`` byte for byte; any seed must give ``all_passed``, no ``fail``
status, exit code 0 and identical bytes on every invocation of the run.
Traced reports must equal the untraced one, and the exact counters must
repeat across traced invocations.  A violation sets ``correct`` to false,
counts in ``failed`` and makes the command exit 1.  The last stdout line is
the JSON result; a full record with provenance goes to ``out/``.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
SETUP_PROBES = 3
GAUGE_NOMINAL_S = 0.0004  # a gauge reading at nominal speed; see probe.Gauge
GAUGE_WINDOW_S = 0.02
MIN_RUNS = 3
MIN_TRACED = 2
PROBE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def build():
    """Byte-compile the package so that no probe pays for compilation."""
    if not (SRC / "rfactor" / "cli.py").is_file():
        raise BenchError(f"no rfactor sources under {SRC}")
    if not compileall.compile_dir(str(SRC / "rfactor"), quiet=1):
        raise BenchError("rfactor does not compile")


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def probe(mode, argv):
    """Run probe.py once; returns its record and adds its wall time."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(SRC), mode, *argv[1:]],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"probe {mode} {' '.join(argv)} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    record = json.loads(lines[-1])
    if not Path(record["rfactor"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"probe imported rfactor from {record['rfactor']}")
    record["wall_s"] = time.monotonic() - t0
    return record


def run_invocations(argv, seconds, trace):
    """Full invocations, each untraced one after SETUP_PROBES set-up-only
    probes, until `seconds` would be exceeded (and at least the minimum
    counts).  Returns the records by mode."""
    start = time.monotonic()
    modes = ("run", "trace") if trace else ("run",)
    need = {"run": 1, "trace": MIN_TRACED} if trace else {"run": MIN_RUNS}
    records = {"setup": [], **{m: [] for m in modes}}
    i = 0
    while True:
        mode = modes[i % len(modes)]
        done = all(len(records[m]) >= need[m] for m in modes)
        last = records[mode][-1]["wall_s"] if records[mode] else 0.0
        if done and time.monotonic() - start + last > seconds:
            break
        if mode == "run":
            records["setup"] += [probe("setup", argv) for _ in range(SETUP_PROBES)]
        records[mode].append(probe(mode, argv))
        i += 1
    return records


def report_failures(records, reference):
    """(failure count, problem lines) for the full invocations of one run."""
    failed, problems = 0, []
    first = records[0].get("report")
    for i, record in enumerate(records):
        text = record.get("report")
        if text is None:
            failed += 1
            error = (record.get("error") or "no report").strip().splitlines()[-1]
            problems.append(f"invocation {i} crashed: {error}")
            continue
        if reference is not None and text != reference:
            failed += 1
            problems.append(f"report {i} differs from the stored seed-0 reference")
        elif text != first:
            failed += 1
            problems.append(f"report {i} differs from report 0 of this run")
        report = json.loads(text)
        fails = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        failed += len(fails)
        if fails:
            problems.append(f"report {i}: failing checks {sorted(set(fails))}")
        if not report["all_passed"] or record["exit"] != 0:
            problems.append(
                f"report {i}: all_passed={report['all_passed']}, "
                f"exit code {record['exit']}"
            )
    return failed, problems


def median(values):
    return statistics.median(values) if values else 0.0


def scale(record, phase="gauge_s"):
    """Factor that converts a probe's CPU times of one phase (the suite, or
    with "setup_gauge_s" the set-up) to nominal host speed, at which the
    gauge reads GAUGE_NOMINAL_S."""
    return GAUGE_NOMINAL_S / record[phase]


def instance_ms(record):
    """CPU ms of every check instance at nominal speed, each scaled by the
    gauge readings taken while it ran (within GAUGE_WINDOW_S of it): the
    host's speed regimes are shorter than an invocation."""
    readings = record["gauge_readings"]
    stamps = [t for t, _ in readings]
    out = []
    for _, cpu, t0, t1 in record["instances"]:
        near = readings[
            bisect.bisect_left(stamps, t0 - GAUGE_WINDOW_S):
            bisect.bisect_right(stamps, t1 + GAUGE_WINDOW_S)
        ]
        factor = (
            GAUGE_NOMINAL_S * len(near) / sum(g for _, g in near)
            if near else scale(record)
        )
        out.append(cpu * 1000 * factor)
    return out


def instance_medians(runs):
    """Median CPU ms of each check instance over the repeats of a run.  Every
    repeat runs the same instances in the same order.  Pooling the repeats
    instead would let single noisy samples decide a percentile that falls
    between two clusters of check costs (sl2's cheap half ends at p50)."""
    per_run = [instance_ms(r) for r in runs]
    n = min(len(p) for p in per_run)
    return [median(col) for col in zip(*(p[:n] for p in per_run))]


def end_to_end_metrics(records):
    runs = records["run"]
    setups = [
        r["setup_s"] * scale(r, "setup_gauge_s") for r in records["setup"] + runs
    ]
    checks = instance_medians(runs)
    deciles = (
        statistics.quantiles(checks, n=10, method="inclusive")
        if len(checks) > 1 else [median(checks)] * 9
    )
    return {
        "setup_s": median(setups),
        "suite_cpu_s": median([r["suite_cpu_s"] * scale(r) for r in runs]),
        "check_cpu_ms.p50": deciles[4],
        "check_cpu_ms.p90": deciles[8],
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
    }


def layer_metrics(records, names):
    """Per-layer metrics named in BENCHMARK.json, from the traced records
    (times: median over traced invocations; counters: exact) and, for the
    per-check CPU, from the untraced ones."""
    traced, runs = records["trace"], records["run"]
    first = traced[0]["layers"]

    def traced_median(fn):
        return median([fn(t["layers"]) * scale(t) for t in traced])

    def ratio(num, den):
        return first.get(num, 0) / first[den] if first.get(den) else 0.0

    def unattributed(t):
        spans = sum(v for k, v in t["layers"].items() if k.endswith(".self_s"))
        return t["layers"].get("verify.run_one.self_s", 0.0) / spans if spans else 0.0

    texts = [r["report"] for r in runs if r.get("report")]
    report = json.loads(texts[0]) if texts else {"checks": []}
    derived = {
        "linop.tabulate.useful_share": ratio(
            "linop.tabulate.useful_cols", "linop.tabulate.cols"),
        "polyspace.certified_share": ratio(
            "polyspace.pair_certified", "polyspace.pair_size"),
        "verify.skips": sum(1 for c in report["checks"] if c["status"] == "skipped"),
        "trace.overhead_s": median([t["suite_cpu_s"] * scale(t) for t in traced])
        - median([r["suite_cpu_s"] * scale(r) for r in runs]),
        "trace.unattributed_share": median([unattributed(t) for t in traced]),
    }
    for core in ("sl2core", "sl3core"):
        derived[f"{core}.self_s"] = traced_median(
            lambda L, c=core: L.get(f"{c}.self_s", 0) + L.get(f"{c}.lax.self_s", 0)
        )
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.startswith("verify.check."):
            check = name[len("verify.check."):-len(".cpu_s")]
            out[name] = median([
                sum(dt for (n, dt, _, _) in r["instances"] if n == check) * scale(r)
                for r in runs
            ])
        elif name.endswith("_s"):
            out[name] = traced_median(lambda L, n=name: L.get(n, 0.0))
        else:
            out[name] = first.get(name, 0)
    return out


def trace_problems(records):
    problems = []
    base = records["run"][0].get("report")
    counters = [  # everything a traced invocation counts, as opposed to times
        {k: v for k, v in t["layers"].items() if not k.endswith("_s")}
        for t in records["trace"]
    ]
    for i, t in enumerate(records["trace"]):
        if t.get("report") != base:
            problems.append(f"traced report {i} differs from the untraced report")
        if counters[i] != counters[0]:
            diff = sorted(k for k in counters[0].keys() | counters[i].keys()
                          if counters[0].get(k) != counters[i].get(k))
            problems.append(f"traced run {i}: exact counters differ: {diff}")
    return problems


def measure(argv, seconds, trace, reference, names):
    """Run one workload command line and return (metrics, summary)."""
    records = run_invocations(argv, seconds, trace)
    full = records["run"] + records.get("trace", [])
    failed, problems = report_failures(full, reference)
    if trace:
        problems += trace_problems(records)
        metrics = layer_metrics(records, names)
    else:
        metrics = end_to_end_metrics(records)
    attempted = max(sum(len(r["instances"]) for r in full), failed)
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "problems": problems,
        "raw_cpu_medians_s": {
            "setup_s": median([r["setup_s"] for r in records["setup"] + records["run"]]),
            "suite_cpu_s": median([r["suite_cpu_s"] for r in records["run"]]),
        },
        "report_sha256": sorted({
            hashlib.sha256(r["report"].encode()).hexdigest()
            for r in full if r.get("report")
        }),
        "samples": {
            "setup": len(records["setup"]) + len(records["run"]),
            "untraced_runs": len(records["run"]),
            "traced_runs": len(records.get("trace", [])),
            "check_instances": min(len(r["instances"]) for r in records["run"]),
        },
        "raw": {
            mode: [{k: v for k, v in r.items()
                    if k not in ("report", "instances", "gauge_readings")}
                   for r in recs]
            for mode, recs in records.items()
        },
    }
    return metrics, summary


def provenance(workload, argv, seed, seconds, trace):
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rfactor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": workload,
        "command": " ".join(argv),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "points_per_check": int(argv[argv.index("--trials") + 1]),
        "seconds": seconds,
        "trace": trace,
    }


def result_line(summary, metrics, units):
    """The final stdout line: every metric BENCHMARK.json names, with unit."""
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        spec = load_json(HERE / "spec.json")
        if args.workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}")
        build()
        wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        cli_argv = spec["workloads"][args.workload]["command"] + [
            "--seed", str(args.seed)]
        reference = None
        if args.seed == 0:
            reference = (HERE / "reference" / f"{args.workload}.seed0.json"
                         ).read_text(encoding="utf-8")
        metrics, summary = measure(
            cli_argv, args.seconds, args.trace, reference, list(units)
        )
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    line = result_line(summary, metrics, units)
    record = {
        "provenance": provenance(
            args.workload, cli_argv, args.seed, args.seconds, args.trace),
        "metrics": line["metrics"],
        **summary,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, m in line["metrics"].items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
    samples = summary["samples"]
    print(f"fail_share {summary['fail_share']:.6g} "
          f"({summary['failed']} of {summary['attempted']} check instances); "
          f"{samples['untraced_runs']} untraced + {samples['traced_runs']} traced "
          f"invocations, {samples['setup']} set-up samples, "
          f"{samples['check_instances']} check-CPU samples (per-instance "
          f"medians over the untraced invocations); record: {out_path}")
    for problem in summary["problems"]:
        print(f"PROBLEM: {problem}")
    print(json.dumps(line))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
