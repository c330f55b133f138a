"""Parity sweep: run a fixed set of CLI configurations and hash what each leaves.

Covers every catalog check of sl2 at caps 8 and 4 and of sl3 at caps 3 and 4,
at seeds 0 and 1, the sl2 and sl3 default suites at seeds 3 and 7, every
mutation tag on its algebra's default suite, and the `ybe` command and every
`oracle --algebra A --op OP` at their defaults. Each configuration runs
in-process through `rfactor.cli.main` with a fresh `--out` file. Prints one
JSON object, keyed by the space-joined arguments (without `--out`):

    {argv: [sha256 of the --out bytes, sha256 of stdout, sha256 of stderr,
            exit code]}

The output at the current source is committed as `tests/sweep.golden.json`,
and `tests/test_sweep.py` re-runs the sweep against it. A change that moves a
report regenerates that file in the same diff:

    PYTHONPATH=src python tools/sweep.py > tests/sweep.golden.json

Two source trees are compared by running the sweep against each:

    PYTHONPATH=path/to/parent/src python tools/sweep.py > parent.json
    PYTHONPATH=src python tools/sweep.py > change.json
    cmp parent.json change.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from rfactor import cli
from rfactor.cli import ORACLE_OPS
from rfactor.verify import CATALOG, SL2_MUTATION_TAGS, SL3_MUTATION_TAGS

CAPS = {"sl2": (8, 4), "sl3": (3, 4)}
SEEDS = (0, 1)
SUITE_SEEDS = (3, 7)


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
    yield ["ybe"]
    for algebra, ops in ORACLE_OPS.items():
        for op in ops:
            yield ["oracle", "--algebra", algebra, "--op", op]


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


def sweep(tmp: Path):
    """{space-joined argv: run(argv)} over every configuration, each with
    its --out file in the directory `tmp`."""
    return {
        " ".join(argv): run(argv, tmp / f"{i}.json")
        for i, argv in enumerate(configurations())
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = sweep(Path(tmp))
    json.dump(results, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
