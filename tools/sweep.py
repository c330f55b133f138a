"""Parity sweep: run a fixed set of CLI configurations and hash what each leaves.

Covers every catalog check of sl2 at caps 8 and 4 and of sl3 at caps 3 and 4,
at seeds 0 and 1, every mutation tag on its algebra's default suite, and the
`ybe` command and every `oracle --algebra A --op OP` at their defaults. Each
configuration runs in-process through `rfactor.cli.main` with a fresh
`--out` file. Prints one JSON object, keyed by the space-joined arguments
(without `--out`):

    {argv: [sha256 of the --out bytes, sha256 of stdout, sha256 of stderr,
            exit code]}

A refactor that must leave reports byte-identical is checked by running the
sweep against two source trees and comparing the outputs:

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


def configurations():
    """The argument lists of the sweep, in a fixed order."""
    for algebra, caps in CAPS.items():
        names = [name for alg, name in CATALOG if alg == algebra]
        for cap in caps:
            for seed in SEEDS:
                for name in names:
                    yield [algebra, "--cap", str(cap), "--seed", str(seed),
                           "--check", name]
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


def main() -> int:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(configurations()):
            results[" ".join(argv)] = run(argv, Path(tmp) / f"{i}.json")
    json.dump(results, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
