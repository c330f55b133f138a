"""Full-scale end-to-end guarantees of the engine.

Each test exercises the public check catalog at production sizes: exact-zero
residuals of the defining exchange relations at seeded random rational points,
agreement of both factorization orders after lowest-weight normalization, the
eigenvalue recurrence of the full operator, fundamental Yang-Baxter products,
independent oracle re-derivation of all five elementary R-operators,
sensitivity to any single tested eigenvalue mutation, and byte-identical
reports under identical seeds.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction as F
from functools import lru_cache

from rfactor.linop import compose, pair_swap
from rfactor.sl2core import (
    sl2_pair,
    sl2_slots,
    sl2_spectral,
    ybe_fundamental_residual,
)
from rfactor.sl3core import sl3_findim_dim, sl3_pair
from rfactor.verify import (
    CATALOG,
    CheckSkipped,
    SL2_MUTATION_TAGS,
    SL3_MUTATION_TAGS,
    SuiteConfig,
    _swap,
    check_rng,
    draw_rats,
    parse_mutate,
    report_to_json,
    rhat,
    run_check,
    run_suite,
)

SEED = 0


def _guarded_points(stream, ndraws, count, accept):
    """Draw seeded points until `count` of them pass the `accept` guard."""
    pts = []
    for trial in range(200):
        draws = draw_rats(check_rng(SEED, stream, trial), ndraws)
        if accept(draws):
            pts.append(tuple(draws))
            if len(pts) == count:
                return pts
    raise AssertionError(f"sampling pool exhausted for {stream}")


def _builds(*swaps):
    """Whether every swap (t, s, word of factors) builds on the cap-8 sl2
    pair basis: each factor guards itself and raises CheckSkipped at a
    pole."""
    try:
        for t, s, word in swaps:
            _swap("sl2", sl2_pair(8), t, s, word)
    except CheckSkipped:
        return False
    return True


@lru_cache(maxsize=1)
def _sl2_points():
    """Twenty generic points usable by F1, F2, and both product orders."""

    def ok(draws):
        l1, l2, u, v = draws
        t, s = sl2_slots(l1, u), sl2_slots(l2, v)
        return _builds((t, s, (2, 1)), (t, s, (1, 2)))

    return tuple(_guarded_points("sl2-rll", 4, 20, ok))


def test_sl2_defining_relations_exact_at_twenty_points():
    assert len(sl2_pair(8)) == 45  # two-site monomials of total height <= 8
    t0 = time.monotonic()
    for name in ("F1", "F2"):
        for draws in _sl2_points():
            res = run_check("sl2", name, 8, draws)
            assert res.status == "pass", (name, draws, res.witness)
            assert res.window == 6  # cap - 2
    assert time.monotonic() - t0 < 30.0


def test_sl2_factorization_orders_agree_at_the_same_points():
    for draws in _sl2_points():
        res = run_check("sl2", "rfact-orders", 8, draws)
        assert res.status == "pass", (draws, res.witness)
        assert res.scalar is not None  # lowest-weight normalization constant


def test_sl2_spectral_recurrence_through_degree_six():
    def ok(draws):
        l1, l2, u, v = draws
        return _builds((sl2_slots(l1, u), sl2_slots(l2, v), (2, 1)))

    def spectral(l1, l2, u, v):
        pair = sl2_pair(8)
        R = rhat("sl2", pair, sl2_slots(l1, u), sl2_slots(l2, v))
        return sl2_spectral((compose(pair_swap(pair), R),), l1, l2, u - v, 7)

    for l1, l2, u, v in _guarded_points("spectral-accept", 4, 10, ok):
        rhos = spectral(l1, l2, u, v)
        w = u - v
        assert len(rhos) == 8 and rhos[0]
        for n in range(7):
            assert rhos[n + 1] * (-w + l1 + l2 + n) == -(w + l1 + l2 + n) * rhos[n]
    rhos = spectral(F(1), F(1), F(1, 2), F(0))
    assert rhos[1] / rhos[0] == F(-5, 3)


def test_fundamental_ybe_exact_and_fast():
    t0 = time.monotonic()
    for trial in range(10):
        u, v = draw_rats(check_rng(SEED, "ybe-accept", trial), 2)
        for d in (2, 3):
            assert ybe_fundamental_residual(u, v, d) == {}
    assert time.monotonic() - t0 < 1.0


def test_sl3_structure_constants_casimirs_and_module_dims():
    for trial in range(10):
        draws = draw_rats(check_rng(SEED, "sl3-structure", trial), 2)
        assert run_check("sl3", "commutators", 4, draws).status == "pass", draws
        res = run_check("sl3", "casimirs", 4, draws)
        assert res.status == "pass" and res.scalar is not None, draws
    shapes = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1))
    dims = [sl3_findim_dim(M, N) for M, N in shapes]
    assert dims == [3, 3, 8, 6, 6, 15]
    for (M, N), d in zip(shapes, dims):
        assert d == (M + 1) * (N + 1) * (M + N + 2) // 2
    assert run_check("sl3", "findim", 4, ()).status == "pass"


def test_sl3_lax_triple_product_and_invariance_at_five_points():
    for trial in range(5):
        draws = draw_rats(check_rng(SEED, "sl3-lax", trial), 6)
        res = run_check("sl3", "lax-factor3", 4, draws[:3])
        assert res.status == "pass", (draws, res.witness)
        assert res.window == 2  # cap - 2
        res = run_check("sl3", "sl3-invariance", 4, draws)
        assert res.status == "pass", (draws, res.witness)


def test_sl3_r_operator_relations_and_orderings_at_shared_points():
    assert len(sl3_pair(3)) == 45  # two-site monomials of total height <= 3
    names = ("3F1", "3F2", "3F3", "rfact3-orders", "def3")
    good = 0
    elapsed = 0.0
    for trial in range(200):
        draws = draw_rats(check_rng(SEED, "sl3-rll", trial), 6)
        t0 = time.monotonic()
        results = [run_check("sl3", name, 3, draws) for name in names]
        dt = time.monotonic() - t0
        if any(r.status == "skipped" for r in results):
            continue
        elapsed += dt
        for name, res in zip(names, results):
            assert res.status == "pass", (name, draws, res.witness)
        for res in results[:3]:
            assert res.window == 1  # cap - 2
        assert results[3].scalar is not None
        good += 1
        if good == 10:
            break
    assert good == 10
    assert elapsed < 300.0


def test_oracle_rederives_every_elementary_r_operator():
    jobs = (
        ("sl2", "oracle-r1", 6),
        ("sl2", "oracle-r2", 6),
        ("sl3", "oracle-r1", 3),
        ("sl3", "oracle-r2", 3),
        ("sl3", "oracle-r3", 3),
        ("sl3", "oracle-r3-single", 3),
    )
    for algebra, name, cap in jobs:
        ndraws = CATALOG[algebra, name][1]
        good = 0
        for trial in range(100):
            draws = draw_rats(check_rng(SEED, name, trial), ndraws)
            res = run_check(algebra, name, cap, draws)
            if res.status == "skipped":
                # only degeneracy-guard or pole skips are tolerable here; a
                # multi-dimensional nullspace at a guarded point is a failure
                assert not res.reason.startswith("nullspace"), (name, draws)
                continue
            assert res.status == "pass", (name, draws, res.witness)
            assert res.scalar is not None
            good += 1
            if good == 5:
                break
        assert good == 5, name


def test_every_single_eigenvalue_mutation_is_caught_with_a_witness():
    for tag in SL2_MUTATION_TAGS:
        rep = run_suite(
            SuiteConfig("sl2", cap=6, trials=1, seed=SEED,
                        checks=("F1", "F2", "rfact-orders"),
                        mutate=parse_mutate("sl2", tag))
        )
        fails = [c for c in rep["checks"] if c["status"] == "fail"]
        assert fails and not rep["all_passed"], tag
        assert all(c["witness"]["monomial"] for c in fails), tag
    for tag in SL3_MUTATION_TAGS:
        rep = run_suite(
            SuiteConfig("sl3", cap=3, trials=1, seed=SEED,
                        checks=("3F1", "3F2", "3F3", "rfact3-orders", "def3"),
                        mutate=parse_mutate("sl3", tag))
        )
        fails = [c for c in rep["checks"] if c["status"] == "fail"]
        assert fails and not rep["all_passed"], tag
        assert all(c["witness"]["monomial"] for c in fails), tag


def test_reports_are_reproducible_and_cli_exit_codes_hold(tmp_path):
    cfg = dict(algebra="sl2", cap=4, trials=2, seed=11,
               checks=("F1", "spectral"))
    assert report_to_json(run_suite(SuiteConfig(**cfg))) == report_to_json(
        run_suite(SuiteConfig(**cfg))
    )
    base = [sys.executable, "-m", "rfactor.cli"]
    args = ["sl2", "--cap", "4", "--trials", "2", "--seed", "11",
            "--check", "F1"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        proc = subprocess.run(base + args + ["--out", str(out)],
                              capture_output=True)
        assert proc.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["all_passed"]
    fail = subprocess.run(
        base + ["sl2", "--cap", "4", "--trials", "1", "--seed", "0",
                "--check", "F1", "--mutate", "r1:1"],
        capture_output=True,
    )
    assert fail.returncode == 1
    assert b"witness:" in fail.stdout
    usage = subprocess.run(base + ["sl2", "--cap", "1"], capture_output=True)
    assert usage.returncode == 2
