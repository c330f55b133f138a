"""Parity sweep: run a fixed set of CLI configurations and hash what each leaves.

Covers every catalog check of sl2 at caps 8 and 4 and of sl3 at caps 3 and 4,
at seeds 0 and 1, the sl2 and sl3 default suites at seeds 3 and 7, every
mutation tag on its algebra's default suite, and every oracle check alone at
sl2 cap 6 or sl3 cap 3 with 5 trials. Each configuration runs
in-process through `rfactor.cli.main` with a fresh `--out` file. It also
hashes the compiled path table of every factor stage list (`_FACTORS`) at
the same caps, and the compiled Lax product table of the exchange checks
(`_lax_table`), so a change to how a stage list or a Lax matrix is written or
compiled that moves a table shows even where no report moves. Prints one
JSON object, keyed by the space-joined arguments (without `--out`), by
"path-table ALGEBRA FACTOR --cap CAP" and by "lax-table ALGEBRA --cap CAP":

    {argv: [sha256 of the --out bytes, sha256 of stdout, sha256 of stderr,
            exit code],
     path table: [sha256 of repr((exps, keys, cols))],
     lax table: [sha256 of repr((den, blocks))]}

The output at the current source is committed as `tests/sweep.golden.json`,
and `tests/test_sweep.py` re-runs the sweep against it. A change that moves a
report regenerates that file in the same diff:

    PYTHONPATH=src python tools/sweep.py > tests/sweep.golden.json

Two source trees are compared by running the sweep against each:

    PYTHONPATH=path/to/parent/src python tools/sweep.py > parent.json
    PYTHONPATH=src python tools/sweep.py --against parent.json

With `--against FILE` the sweep prints, instead of its JSON, every key whose
entry differs from FILE's ("changed"), is new ("added") or is gone
("removed"), and exits 1 if any key changed or was removed: a change that
keeps every old report and only adds configurations exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from rfactor import cli
from rfactor.linop import path_table
from rfactor.verify import (
    _FACTORS,
    CATALOG,
    SL2_MUTATION_TAGS,
    SL3_MUTATION_TAGS,
    _algebra,
    _lax_table,
)

CAPS = {"sl2": (8, 4), "sl3": (3, 4)}
SEEDS = (0, 1)
SUITE_SEEDS = (3, 7)
ORACLE_CAPS = {"sl2": 6, "sl3": 3}
ORACLE_TRIALS = 5


def configurations():
    """The argument lists of the sweep, in a fixed order."""
    for algebra, caps in CAPS.items():
        names = [name for alg, name in CATALOG if alg == algebra]
        for cap in caps:
            for seed in SEEDS:
                for name in names:
                    yield [algebra, "--cap", str(cap), "--seed", str(seed),
                           "--check", name]
    for algebra in CAPS:
        for seed in SUITE_SEEDS:
            yield [algebra, "--seed", str(seed)]
    for algebra, tags in (("sl2", SL2_MUTATION_TAGS), ("sl3", SL3_MUTATION_TAGS)):
        for tag in tags:
            yield [algebra, "--mutate", tag]
    for algebra, name in CATALOG:
        if name.startswith("oracle-"):
            yield [algebra, "--check", name, "--cap", str(ORACLE_CAPS[algebra]),
                   "--trials", str(ORACLE_TRIALS)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv, out: Path):
    """[sha of the --out bytes, sha of stdout, sha of stderr, exit code] of
    one in-process CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv + ["--out", str(out)])
        except SystemExit as e:
            code = e.code
    report = out.read_bytes() if out.exists() else b""
    return [
        _sha(report),
        _sha(stdout.getvalue().encode()),
        _sha(stderr.getvalue().encode()),
        code,
    ]


def path_tables():
    """{"path-table ALGEBRA FACTOR --cap CAP": [sha of the table]} for every
    factor stage list at each sweep cap of its algebra, on the pair basis,
    or on the site basis for the one-site third swap "r3-single"."""
    out = {}
    for (algebra, k), (stages, _) in _FACTORS.items():
        a = _algebra(algebra)
        for cap in CAPS[algebra]:
            basis = a.site(cap) if k == "r3-single" else a.pair(cap)
            table = path_table(basis, stages)
            data = repr((table.exps, table.keys, table.cols)).encode()
            out[f"path-table {algebra} {k} --cap {cap}"] = [_sha(data)]
    return out


def lax_tables():
    """{"lax-table ALGEBRA --cap CAP": [sha of the table]} for the exchange
    checks' Lax product table at each sweep cap of its algebra."""
    out = {}
    for algebra, caps in CAPS.items():
        for cap in caps:
            table = _lax_table(algebra, _algebra(algebra).pair(cap))
            data = repr((table.den, table.blocks)).encode()
            out[f"lax-table {algebra} --cap {cap}"] = [_sha(data)]
    return out


def sweep(tmp: Path):
    """{space-joined argv: run(argv)} over every configuration, each with
    its --out file in the directory `tmp`, and the path- and Lax-table
    hashes."""
    results = {
        " ".join(argv): run(argv, tmp / f"{i}.json")
        for i, argv in enumerate(configurations())
    }
    results.update(path_tables())
    results.update(lax_tables())
    return results


def compare(old, new):
    """(changed, added, removed): the sorted keys of `new` whose entry
    differs from `old`'s, those only `new` has and those only `old` has."""
    changed = sorted(k for k in old.keys() & new.keys() if old[k] != new[k])
    return changed, sorted(new.keys() - old.keys()), sorted(old.keys() - new.keys())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument(
        "--against", metavar="FILE",
        help="list the keys that differ from this sweep output; "
        "exit 1 if any existing key changed or vanished",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        results = sweep(Path(tmp))
    if args.against is None:
        json.dump(results, sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    old = json.loads(Path(args.against).read_text())
    changed, added, removed = compare(old, results)
    for tag, keys in (("changed", changed), ("added", added), ("removed", removed)):
        for key in keys:
            print(f"{tag}: {key}")
    print(f"{len(changed)} changed, {len(added)} added, {len(removed)} removed")
    return 1 if changed or removed else 0


if __name__ == "__main__":
    raise SystemExit(main())
