"""Full-scale end-to-end guarantees of the engine.

Each test exercises the public check catalog at production sizes: exact-zero
residuals of the defining exchange relations at seeded random rational points,
agreement of both factorization orders after lowest-weight normalization, the
eigenvalue recurrence of the full operator, dense Yang-Baxter products,
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

from rfactor.linop import mat_is_zero
from rfactor.sl2core import (
    Sl2Params,
    sl2_pair,
    sl2_rhat_pairs,
    sl2_spectral,
    sl2_spectral_pairs,
    ybe_fundamental_residual,
)
from rfactor.sl3core import sl3_findim_dim, sl3_pair
from rfactor.verify import (
    CATALOG,
    SL2_MUTATION_TAGS,
    SL3_MUTATION_TAGS,
    SuiteConfig,
    check_rng,
    degeneracy_guard,
    draw_rats,
    parse_mutate,
    report_to_json,
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


@lru_cache(maxsize=1)
def _sl2_points():
    """Twenty generic points usable by F1, F2, and both product orders."""

    def ok(draws):
        l1, l2, u, v = draws
        p1, p2 = Sl2Params(l1, u), Sl2Params(l2, v)
        pairs = sl2_rhat_pairs(p1, p2, 1) + sl2_rhat_pairs(p1, p2, 2)
        return degeneracy_guard(pairs, 8)[0]

    return tuple(_guarded_points("sl2-rll", 4, 20, ok))


def test_sl2_defining_relations_exact_at_twenty_points():
    assert len(sl2_pair(8)) == 45  # two-site monomials of total height <= 8
    t0 = time.monotonic()
    for name in ("F1", "F2"):
        fn = CATALOG[("sl2", name)][0]
        for draws in _sl2_points():
            res = fn(8, list(draws), None)
            assert res.status == "pass", (name, draws, res.witness)
            assert res.window == 6  # cap - 2
    assert time.monotonic() - t0 < 30.0


def test_sl2_factorization_orders_agree_at_the_same_points():
    fn = CATALOG[("sl2", "rfact-orders")][0]
    for draws in _sl2_points():
        res = fn(8, list(draws), None)
        assert res.status == "pass", (draws, res.witness)
        assert res.scalar is not None  # lowest-weight normalization constant


def test_sl2_spectral_recurrence_through_degree_six():
    def ok(draws):
        l1, l2, u, v = draws
        p1, p2 = Sl2Params(l1, u), Sl2Params(l2, v)
        pairs = sl2_rhat_pairs(p1, p2, 1) + sl2_spectral_pairs(l1, l2, u - v, 7)
        return degeneracy_guard(pairs, 8)[0]

    for l1, l2, u, v in _guarded_points("spectral-accept", 4, 10, ok):
        rhos, ratios = sl2_spectral(8, l1, l2, u, v, 7)
        w = u - v
        assert len(ratios) == 7
        for n, got in enumerate(ratios):
            assert got == -(w + l1 + l2 + n) / (-w + l1 + l2 + n)
        assert all(rhos)
    _, ratios = sl2_spectral(8, F(1), F(1), F(1, 2), F(0), 7)
    assert ratios[0] == F(-5, 3)


def test_fundamental_ybe_dense_exact_and_fast():
    t0 = time.monotonic()
    for trial in range(10):
        u, v = draw_rats(check_rng(SEED, "ybe-accept", trial), 2)
        for d in (2, 3):
            assert mat_is_zero(ybe_fundamental_residual(u, v, d))
    assert time.monotonic() - t0 < 1.0


def test_sl3_structure_constants_casimirs_and_module_dims():
    comm = CATALOG[("sl3", "commutators")][0]
    cas = CATALOG[("sl3", "casimirs")][0]
    for trial in range(10):
        draws = draw_rats(check_rng(SEED, "sl3-structure", trial), 2)
        assert comm(4, draws, None).status == "pass", draws
        res = cas(4, draws, None)
        assert res.status == "pass" and res.scalar is not None, draws
    shapes = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1))
    dims = [sl3_findim_dim(M, N) for M, N in shapes]
    assert dims == [3, 3, 8, 6, 6, 15]
    for (M, N), d in zip(shapes, dims):
        assert d == (M + 1) * (N + 1) * (M + N + 2) // 2
    assert CATALOG[("sl3", "findim")][0](4, (), None).status == "pass"


def test_sl3_lax_triple_product_and_invariance_at_five_points():
    factor = CATALOG[("sl3", "lax-factor3")][0]
    invariance = CATALOG[("sl3", "sl3-invariance")][0]
    for trial in range(5):
        draws = draw_rats(check_rng(SEED, "sl3-lax", trial), 6)
        res = factor(4, draws[:3], None)
        assert res.status == "pass", (draws, res.witness)
        assert res.window == 2  # cap - 2
        res = invariance(4, draws, None)
        assert res.status == "pass", (draws, res.witness)


def test_sl3_r_operator_relations_and_orderings_at_shared_points():
    assert len(sl3_pair(3)) == 45  # two-site monomials of total height <= 3
    names = ("3F1", "3F2", "3F3", "rfact3-orders", "def3")
    fns = [CATALOG[("sl3", n)][0] for n in names]
    good = 0
    elapsed = 0.0
    for trial in range(200):
        draws = draw_rats(check_rng(SEED, "sl3-rll", trial), 6)
        t0 = time.monotonic()
        results = [fn(3, draws, None) for fn in fns]
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
        fn, ndraws = CATALOG[(algebra, name)]
        good = 0
        for trial in range(100):
            draws = draw_rats(check_rng(SEED, name, trial), ndraws)
            res = fn(cap, draws, None)
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
