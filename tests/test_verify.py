"""Check runner, degeneracy guards, normalization, and the intertwining oracle.

Small deterministic systems exercise the oracle's nullspace handling (unique /
empty / degenerate), and frozen parameter points pin the guard reasons, JSON
schema, and mutation sensitivity of the seeded suites.
"""

import json
from fractions import Fraction as F

import pytest

from rfactor.linop import diffop_to_op, identity_op, op_equal, op_scale, term
from rfactor.sl2core import Sl2Params, sl2_generators, sl2_pair, sl2_site
from rfactor.sl2core import sl2_lax, sl2_r1
from rfactor.sl3core import sl3_pair, sl3_site
from rfactor.verify import (
    CATALOG,
    CheckResult,
    EmptyNullspace,
    MultiDimensional,
    NotLowestWeightStable,
    SL2_MUTATION_TAGS,
    SL3_MUTATION_TAGS,
    SuiteConfig,
    charge_vectors,
    check_rng,
    degeneracy_guard,
    draw_rats,
    intertwiner_oracle,
    lwv_normalize,
    parse_mutate,
    report_to_json,
    residual_rll,
    run_one,
    run_suite,
)


# ---------------------------------------------------------------------------
# Sampling and guards

def test_check_rng_is_a_pure_function_of_its_key():
    a = draw_rats(check_rng(7, "F1", 3), 4)
    b = draw_rats(check_rng(7, "F1", 3), 4)
    assert a == b
    assert draw_rats(check_rng(7, "F1", 4), 4) != a
    assert draw_rats(check_rng(8, "F1", 3), 4) != a
    assert draw_rats(check_rng(7, "F2", 3), 4) != a


def test_draw_rats_stays_in_the_pool():
    vals = draw_rats(check_rng(0, "pool", 0), 200)
    assert all(isinstance(v, F) for v in vals)
    assert all(abs(v) <= 40 for v in vals)
    assert all(v.denominator <= 12 for v in vals)


def test_degeneracy_guard_accepts_and_rejects():
    ok, reason = degeneracy_guard([(F(3), F(5)), (F(-2), F(1, 2))], 6)
    assert ok and reason is None
    # (b)_k vanishes iff b is one of 0, -1, ..., -(cap-1)
    ok, reason = degeneracy_guard([(F(1), F(0))], 4)
    assert not ok and reason == "(0)_1 = 0"
    ok, reason = degeneracy_guard([(F(1), F(-3))], 4)
    assert not ok and reason == "(-3)_4 = 0"
    ok, _ = degeneracy_guard([(F(1), F(-4))], 4)
    assert ok
    # the numerator entry of a pair is never inspected
    ok, _ = degeneracy_guard([(F(0), F(9))], 4)
    assert ok


def test_lwv_normalize_scales_the_vacuum_coefficient_away():
    basis = sl2_site(3)
    n, c = lwv_normalize(op_scale(identity_op(basis), F(5)))
    assert c == 5
    assert op_equal(n, identity_op(basis), 3)[0]


def test_lwv_normalize_rejects_operators_moving_the_vacuum():
    basis = sl2_site(3)
    z = diffop_to_op(basis, [term(basis, 1, {"z": 1})])
    with pytest.raises(NotLowestWeightStable) as err:
        lwv_normalize(z)
    assert err.value.args[0] == ("z", "1")
    d = diffop_to_op(basis, [term(basis, 1, None, {"z": 1})])
    with pytest.raises(NotLowestWeightStable) as err:
        lwv_normalize(d)
    assert err.value.args[0] == ("1", "0")


# ---------------------------------------------------------------------------
# Charges

def test_charge_vectors_grade_z_only_bases_by_degree():
    basis = sl2_site(4)
    assert charge_vectors(basis) == [(h,) for h in basis.heights]
    pair = sl2_pair(3)
    assert charge_vectors(pair) == [(h,) for h in pair.heights]


def test_charge_vectors_sl3_refine_the_height():
    for basis in (sl3_site(3), sl3_pair(2)):
        charges = charge_vectors(basis)
        assert charges[0] == (0, 0)
        for q, h in zip(charges, basis.heights):
            assert 2 * q[0] + q[1] == h


def test_charge_vectors_sl3_single_variables():
    basis = sl3_site(2)
    by_mono = {basis.mono_str(m): q
               for m, q in zip(basis.monomials, charge_vectors(basis))}
    assert by_mono["x"] == (1, -1)
    assert by_mono["y"] == (1, 0)
    assert by_mono["z"] == (0, 1)


# ---------------------------------------------------------------------------
# Intertwining oracle on a one-site toy system

def _raising_op(cap, ell):
    basis = sl2_site(cap)
    return basis, sl2_generators(basis, ell)["Sp"]


def test_oracle_unique_solution_is_the_identity():
    basis, sp = _raising_op(4, F(3, 2))
    sols = intertwiner_oracle([(sp, sp)], basis, expect_dim=1)
    n, _ = lwv_normalize(sols[0])
    assert op_equal(n, identity_op(basis), basis.cap)[0]


def test_oracle_scaled_relation_forces_a_geometric_diagonal():
    basis, sp = _raising_op(4, F(3, 2))
    sols = intertwiner_oracle([(sp, op_scale(sp, F(2)))], basis, expect_dim=1)
    n, _ = lwv_normalize(sols[0])
    for k, h in enumerate(basis.heights):
        assert n.col(k) == {k: F(2) ** h}


def test_oracle_contradictory_relations_leave_no_solution():
    basis, sp = _raising_op(4, F(3, 2))
    constraints = [(sp, sp), (sp, op_scale(sp, F(2)))]
    assert intertwiner_oracle(constraints, basis) == []
    with pytest.raises(EmptyNullspace):
        intertwiner_oracle(constraints, basis, expect_dim=1)


def test_oracle_unconstrained_system_is_degenerate():
    basis = sl2_site(3)
    sols = intertwiner_oracle([], basis)
    assert len(sols) == len(basis)  # one free diagonal entry per degree
    with pytest.raises(MultiDimensional):
        intertwiner_oracle([], basis, expect_dim=1)


# ---------------------------------------------------------------------------
# Residual helpers

def _r1_setup(cap):
    pair = sl2_pair(cap)
    p1, p2 = Sl2Params(F(1), F(1, 3)), Sl2Params(F(1, 2), F(-1, 4))
    u1, u2, v1, v2 = p1.u1, p1.u2, p2.u1, p2.u2
    laxes = (
        sl2_lax(pair, u1, u2, "z1"),
        sl2_lax(pair, v1, v2, "z2"),
        sl2_lax(pair, v1, u2, "z1"),
        sl2_lax(pair, u1, v2, "z2"),
    )
    return pair, (u1, v1, v2), laxes


def test_residual_rll_passes_on_the_exchange_relation():
    pair, args, laxes = _r1_setup(4)
    R = sl2_r1(pair, *args)
    res = residual_rll(R, *laxes, 2, name="t", params=(), cap=4)
    assert res.status == "pass" and res.window == 2


def test_residual_rll_fails_with_a_block_witness_under_mutation():
    pair, args, laxes = _r1_setup(4)
    R = sl2_r1(pair, *args, mutate=(1, F(2)))
    res = residual_rll(R, *laxes, 2, name="t", params=(), cap=4)
    assert res.status == "fail"
    assert "block" in res.witness[0]


# ---------------------------------------------------------------------------
# Result schema and serialization

def test_check_result_json_schema():
    ok = CheckResult("c", [F(1, 2)], 4, 2, "pass", scalar=F(-3, 7))
    assert ok.to_json() == {
        "name": "c", "params": ["1/2"], "status": "pass", "scalar": "-3/7"
    }
    bad = CheckResult("c", [], 4, 2, "fail", witness=("z1", "5/3"))
    assert bad.to_json()["witness"] == {"monomial": "z1", "value": "5/3"}
    assert "reason" not in bad.to_json()
    skip = CheckResult("c", [], 4, 0, "skipped", reason="(0)_1 = 0")
    assert skip.to_json()["reason"] == "(0)_1 = 0"


def test_failing_result_requires_a_witness():
    with pytest.raises(ValueError):
        CheckResult("c", [], 4, 2, "fail")


# ---------------------------------------------------------------------------
# Suite runner

def test_reports_are_byte_identical_and_sorted():
    cfg = dict(algebra="sl2", cap=4, trials=2, seed=3, checks=("casimir", "F1"))
    r1 = run_suite(SuiteConfig(**cfg))
    r2 = run_suite(SuiteConfig(**cfg))
    assert report_to_json(r1) == report_to_json(r2)
    keys = [(c["name"], c["params"]) for c in r1["checks"]]
    assert keys == sorted(keys)
    assert r1["all_passed"]
    r3 = run_suite(SuiteConfig(**{**cfg, "seed": 4}))
    assert report_to_json(r3) != report_to_json(r1)


def test_job_count_does_not_change_the_report():
    cfg = dict(algebra="sl2", cap=4, trials=2, seed=1, checks=("casimir", "F2"))
    seq = run_suite(SuiteConfig(**cfg))
    par = run_suite(SuiteConfig(**cfg, jobs=2))
    assert report_to_json(seq) == report_to_json(par)


def test_explicit_params_bypass_sampling_but_not_guards():
    out = run_one("sl2", "casimir", 0, 4, 0, (F(2),), None)
    assert len(out) == 1 and out[0].params == [F(2)]
    with pytest.raises(ValueError):
        run_one("sl2", "F1", 0, 4, 0, (F(1),), None)
    # l2 = 0 makes the guard's (v1 - v2) Pochhammer vanish
    res = run_one("sl2", "F1", 0, 4, 0, (F(1), F(0), F(1, 2), F(0)), None)[0]
    assert res.status == "skipped" and res.reason == "(0)_1 = 0"


def test_zero_draw_checks_run_once():
    out = run_one("sl3", "findim", 0, 3, 0, None, None)
    assert len(out) == 1 and out[0].status == "pass"


def test_suite_config_validates_check_names():
    with pytest.raises(KeyError):
        SuiteConfig("sl2", 4, checks=("no-such-check",))
    assert SuiteConfig("ybe", 2).checks == ("ybe-fundamental",)


# ---------------------------------------------------------------------------
# Mutation plumbing

def test_parse_mutate_accepts_the_published_tags():
    assert parse_mutate("sl2", "r1:2") == ("r1", (2, F(2)))
    assert parse_mutate("sl3", "r2:b") == ("r2", ("b", 1))
    for algebra, tags in (("sl2", SL2_MUTATION_TAGS), ("sl3", SL3_MUTATION_TAGS)):
        for tag in tags:
            fac, inner = parse_mutate(algebra, tag)
            assert fac in ("r1", "r2", "r3") and len(inner) == 2


@pytest.mark.parametrize(
    "algebra,tag", [("sl2", "r3:1"), ("sl2", "r1:x"), ("sl2", "r1:0"),
                    ("sl3", "r1:d"), ("sl3", "q:a"), ("sl2", "r1")]
)
def test_parse_mutate_rejects_malformed_tags(algebra, tag):
    with pytest.raises(ValueError):
        parse_mutate(algebra, tag)


def test_single_eigenvalue_mutations_are_detected():
    rep = run_suite(SuiteConfig("sl2", cap=4, trials=1, seed=0, checks=("F1",),
                                mutate=parse_mutate("sl2", "r1:1")))
    assert not rep["all_passed"]
    fails = [c for c in rep["checks"] if c["status"] == "fail"]
    assert fails and all("witness" in c for c in fails)
    rep = run_suite(SuiteConfig("sl3", cap=3, trials=1, seed=4, checks=("3F2",),
                                mutate=parse_mutate("sl3", "r2:b")))
    assert not rep["all_passed"]
    fails = [c for c in rep["checks"] if c["status"] == "fail"]
    assert fails and all("witness" in c for c in fails)


# Exact failure entries at --trials 1 --seed 0 (default caps), recorded before
# the sl2/sl3 relations were merged into one implementation each.

@pytest.mark.parametrize(
    "algebra,check,tag,entries",
    [
        ("sl2", "F1", "r1:1", [
            {
                "name": "F1",
                "params": ["15", "-18/11", "-4", "-9"],
                "status": "fail",
                "witness": {
                    "monomial": "z2 in block (0,0)",
                    "value": "(-202/11)*z2",
                },
            },
            {
                "name": "F1",
                "params": ["35/2", "-2", "-34/7", "2"],
                "reason": "(-4)_5 = 0",
                "status": "skipped",
            },
        ]),
        ("sl2", "F2", "r2:1", [
            {
                "name": "F2",
                "params": ["36", "1/8", "-2", "-3/11"],
                "status": "fail",
                "witness": {
                    "monomial": "z1 in block (0,0)",
                    "value": "(3027/88)*z2",
                },
            },
        ]),
        ("sl2", "rfact-orders", "r2:1", [
            {
                "name": "rfact-orders",
                "params": ["-29/10", "11/9", "5/8", "1/9"],
                "status": "fail",
                "witness": {
                    "monomial": "z2",
                    "value": "(-433/263)*z2 + (433/263)*z1",
                },
            },
        ]),
        ("sl2", "global", "r1:1", [
            {
                "name": "global",
                "params": ["7/3", "-8", "-3/2", "-11/5"],
                "status": "fail",
                "witness": {
                    "monomial": "z2 in block (0,0)",
                    "value": "(-14/3)*z2",
                },
            },
        ]),
        ("sl3", "3F1", "r1:a", [
            {
                "name": "3F1",
                "params": ["-28/11", "20/7", "-17", "-5/2", "2", "25/7"],
                "reason": "(-2)_3 = 0",
                "status": "skipped",
            },
            {
                "name": "3F1",
                "params": ["-3/7", "1", "-19/5", "-4", "36/5", "-18"],
                "status": "fail",
                "witness": {
                    "monomial": "x2 in block (0,0)",
                    "value": "(-348/35)*x2",
                },
            },
        ]),
        ("sl3", "3F2", "r2:b", [
            {
                "name": "3F2",
                "params": ["-40/3", "-9/2", "-12", "-4", "5/3", "-29/8"],
                "status": "fail",
                "witness": {
                    "monomial": "x1 in block (0,0)",
                    "value": "(-203/72)*x2",
                },
            },
        ]),
        ("sl3", "3F3", "r3:c", [
            {
                "name": "3F3",
                "params": ["4", "2", "-5/3", "-26/5", "16/3", "-29/10"],
                "status": "fail",
                "witness": {
                    "monomial": "z1 in block (1,0)",
                    "value": (
                        "(19883/11340)*x2*z2 + (19883/11340)*y2 + (1139/2268)*x1*z2 + "
                        "(1139/2268)*y1"
                    ),
                },
            },
        ]),
        ("sl3", "rfact3-orders", "r2:b", [
            {
                "name": "rfact3-orders",
                "params": ["-11", "-14/5", "0", "-9", "8/3", "-25/6"],
                "status": "fail",
                "witness": {
                    "monomial": "x2",
                    "value": "(109/73)*x2 + (-109/73)*x1",
                },
            },
        ]),
        ("sl3", "def3", "r1:b", [
            {
                "name": "def3",
                "params": ["-8", "-4/5", "-31/6", "-1/2", "-32/9", "3"],
                "status": "fail",
                "witness": {
                    "monomial": "z2 in block (1,0)",
                    "value": (
                        "(-24999/8605)*x2*z2 + (-24999/8605)*y2 + (24999/8605)*x1*z2 + "
                        "(24999/8605)*y1"
                    ),
                },
            },
        ]),
    ],
)
def test_mutation_failure_entries_are_pinned(algebra, check, tag, entries):
    cap = 8 if algebra == "sl2" else 3
    rep = run_suite(SuiteConfig(algebra, cap, trials=1, seed=0, checks=(check,),
                                mutate=parse_mutate(algebra, tag)))
    assert json.loads(report_to_json(rep))["checks"] == entries


# ---------------------------------------------------------------------------
# Oracle checks from the catalog at frozen points

def test_catalog_oracles_rederive_the_closed_forms():
    point2 = [F(1), F(1, 2), F(1, 3), F(-1, 4)]
    for name in ("oracle-r1", "oracle-r2"):
        res = CATALOG[("sl2", name)][0](4, point2, None)
        assert res.status == "pass" and res.scalar is not None
    point3 = [F(1, 2), F(1, 3), F(0), F(1, 5), F(1, 7), F(2, 3)]
    res = CATALOG[("sl3", "oracle-r3-single")][0](3, point3, None)
    assert res.status == "pass" and res.window == 3
