"""Check runner, skips, normalization, intertwining pairs and the oracle.

Small deterministic systems exercise the oracle's nullspace handling (unique /
empty / degenerate), and frozen parameter points pin the guard reasons, JSON
schema, and mutation sensitivity of the seeded suites.
"""

import json
from fractions import Fraction as F
from functools import partial
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfactor import linop, sl2core, sl3core, verify
from rfactor.exactnum import PoleAtParameter
from rfactor.linop import (
    LaurentLeak, LaxOp, compose, compose_sum, diffop, generators, identity_op,
    is_zero, lax_table_op, lax_terms, op_add, op_scalar_part, op_scale, pair_swap,
    rational_op,
)
from rfactor.sl2core import SL2_GENERATORS, sl2_pair, sl2_site, sl2_slots
from rfactor.sl2core import SpectralMismatch, sl2_lax, sl2_rhat_closed, sl2_spectral
from rfactor.sl3core import sl3_pair, sl3_site, sl3_slots
from rfactor.verify import (
    POOL_DEN,
    POOL_NUM,
    CheckFailed,
    CheckResult,
    CheckSkipped,
    SL2_DEFAULT_CHECKS,
    SL2_MUTATION_TAGS,
    SL3_DEFAULT_CHECKS,
    SL3_MUTATION_TAGS,
    SuiteConfig,
    charge_vectors,
    check_rng,
    draw_rats,
    intertwiner_oracle,
    parse_mutate,
    report_to_json,
    rhat,
    run_check,
    run_one,
    run_suite,
)
from termlists import (
    assert_same_op,
    blockwise_pairs,
    commutator,
    exchange_laxes,
    factor,
    lax_mul,
    same_op,
    tabulate,
    tabulated_columns,
    vanishing_pochhammer,
    whole_block,
)


# ---------------------------------------------------------------------------
# Sampling

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


# ---------------------------------------------------------------------------
# The full swap, built from the factor table; each factor guards itself

def _word(alg, pair, t, s, word, mutate=None):
    """The swap of the factors of `word` from (t, s)."""
    return verify._swap(alg, pair, t, s, word, mutate)[0]


def test_rhat_composes_the_sl2_factors_in_both_orders():
    """rhat is the word (2, 1); (1, 2) is the other order."""
    pair = sl2_pair(5)
    u1, u2, v1, v2 = F(4, 3), F(-2, 3), F(5, 7), F(-3, 7)
    t, s = (u1, u2), (v1, v2)
    r1 = partial(factor, "sl2", 1, pair)
    r2 = partial(factor, "sl2", 2, pair)
    want1 = compose(r1(u1, v1, u2), r2(u1, u2, v2))
    want2 = compose(r2(v1, u2, v2), r1(u1, v1, v2))
    assert_same_op(rhat("sl2", pair, t, s), want1)
    assert_same_op(_word("sl2", pair, t, s, (1, 2)), want2)
    mutated = compose(r1(u1, v1, u2, mutate=(0, 2)), r2(u1, u2, v2))
    assert_same_op(_word("sl2", pair, t, s, (2, 1), (1, 0, 2)), mutated)
    # each factor guards itself in the order the factors apply: (2, 1)
    # meets r2's lower parameter u1 - u2 = -1 before r1's v1 - u2 = 0;
    # (1, 2) passes r1's v1 - v2 = -1/3 and meets r2's, 0
    pair = sl2_pair(4)
    t, s = (F(-1), F(0)), (F(0), F(1, 3))
    with pytest.raises(CheckSkipped, match=r"^\(-1\)_2 = 0$"):
        rhat("sl2", pair, t, s)
    with pytest.raises(CheckSkipped, match=r"^\(0\)_1 = 0$"):
        _word("sl2", pair, t, s, (1, 2))


def test_rhat_composes_the_sl3_factors_in_both_orders():
    """rhat is the word (3, 2, 1); (1, 2, 3) is the other order."""
    pair = sl3_pair(3)
    u1, u2, u3 = F(1, 2), F(-1, 3), F(5, 4)
    v1, v2, v3 = F(2, 7), F(-3, 5), F(7, 6)
    t, s = (u1, u2, u3), (v1, v2, v3)
    r1, r2, r3 = (partial(factor, "sl3", k, pair) for k in (1, 2, 3))
    want1 = compose(
        r1(u1, v1, u2, u3),
        compose(r2(u1, u2, v2, u3), r3(u1, u2, u3, v3)),
    )
    want2 = compose(
        r3(v1, v2, u3, v3),
        compose(r2(v1, u2, v2, v3), r1(u1, v1, v2, v3)),
    )
    assert_same_op(rhat("sl3", pair, t, s), want1)
    assert_same_op(_word("sl3", pair, t, s, (1, 2, 3)), want2)
    mutated = compose(
        r3(v1, v2, u3, v3),
        compose(r2(v1, u2, v2, v3, mutate=(1, 1)), r1(u1, v1, v2, v3)),
    )
    assert_same_op(_word("sl3", pair, t, s, (1, 2, 3), (2, 1, 1)), mutated)
    assert not same_op(mutated, want2)


def _near_pole(cap):
    """Integers around the poles of a cap-`cap` guard, mixed with the draw
    pool's rationals."""
    return st.integers(-cap - 1, cap + 1).map(F) | st.builds(
        F, st.integers(-POOL_NUM, POOL_NUM), st.integers(1, POOL_DEN)
    )


@pytest.mark.parametrize("alg, cap", [("sl2", 4), ("sl3", 3)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_guard_accepted_full_swap_meets_no_pole(alg, cap, data):
    """Near a pole the full swap either skips or builds: no factor's guard
    lets a pole through."""
    n = 2 if alg == "sl2" else 3
    t, s = (data.draw(st.tuples(*[_near_pole(cap)] * n)) for _ in range(2))
    pair = sl2_pair(cap) if alg == "sl2" else sl3_pair(cap)
    for word in (tuple(range(n, 0, -1)), tuple(range(1, n + 1))):
        try:
            _word(alg, pair, t, s, word)
        except CheckSkipped:
            pass
        except PoleAtParameter as e:
            raise AssertionError(f"guard accepted order {word}: {e}")


def _sl3_draws(t, s):
    """The global3 draws (m1, n1, u, m2, n2, v) whose Lax slots are t, s."""
    out = []
    for u1, u2, u3 in (t, s):
        m, n = u3 - u2 - 1, u2 - u1 - 1
        out += [m, n, u1 + 2 + (m + 2 * n) / 3]
    assert (sl3_slots(*out[:3]), sl3_slots(*out[3:])) == (t, s)
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_global3_guard_covers_every_factor_it_builds(data):
    """global3 builds the full swap (3, 2, 1) and each factor at (t, s):
    near a pole it either skips or passes, and none of them raises."""
    cap = 2
    t, s = (data.draw(st.tuples(*[_near_pole(cap)] * 3)) for _ in range(2))
    res = run_check("sl3", "global3", cap, _sl3_draws(t, s))
    assert res.status in ("pass", "skipped"), res


def test_global3_passes_where_only_a_swap_it_never_builds_meets_a_pole():
    """At this draw the full swap (1, 2, 3)'s third factor has lower
    parameter 0, but global3 builds only the swap (3, 2, 1) and the factors
    at (t, s), and all of them exist, so the check passes rather than
    skipping."""
    draws = [F(8, 7), F(-2, 5), F(27), F(-3), F(37, 12), F(-25, 8)]
    res = run_check("sl3", "global3", 3, draws)
    assert res.status == "pass", res


def _sl2_draws(t, s):
    """The sl2 pair-check draws (l1, l2, u, v) whose Lax slots are t, s."""
    (u1, u2), (v1, v2) = t, s
    return [(u1 - u2) / 2, (v1 - v2) / 2, (u1 + u2) / 2, (v1 + v2) / 2]


# every factor-building check that no test above samples near a pole, with
# the cap it is sampled at
FACTOR_CHECKS = [
    ("sl2", name, 3)
    for name in (
        "F1", "F2", "rfact-orders", "global", "inverse-scalar",
        "involutions", "oracle-r1", "oracle-r2",
    )
] + [
    ("sl3", name, 3)
    for name in (
        "3F1", "3F2", "3F3", "rfact3-orders", "def3", "inverse-scalar3",
        "orders3", "involutions3", "oracle-r1", "oracle-r2", "oracle-r3",
        "oracle-r3-single",
    )
]


@pytest.mark.parametrize("alg, name, cap", FACTOR_CHECKS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_factor_building_check_skips_or_passes_near_a_pole(
    alg, name, cap, data
):
    """Lax slots at and around the poles of a cap-`cap` guard: each factor
    the check builds guards itself, so the check skips or passes there and
    raises nothing."""
    n, draws = (2, _sl2_draws) if alg == "sl2" else (3, _sl3_draws)
    t, s = (data.draw(st.tuples(*[_near_pole(cap)] * n)) for _ in range(2))
    res = run_check(alg, name, cap, draws(t, s))
    assert res.status in ("pass", "skipped"), res


@pytest.mark.parametrize("name", ["closed-form", "spectral"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_sl2_closed_form_and_spectral_guards_are_sound(name, data):
    """closed-form and spectral, each skipped by the full swap's factors
    alone, either skip a near-pole point or pass there: they never raise and
    never fail."""
    cap = 4
    half = st.integers(-2 * cap - 3, 2 * cap + 3).map(lambda k: F(k, 2))
    draws = data.draw(st.lists(_near_pole(cap) | half, min_size=4, max_size=4))
    res = run_check("sl2", name, cap, draws)
    assert res.status in ("pass", "skipped"), res


@pytest.mark.parametrize("cap", [4, 8])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_sl2_full_swap_guard_is_the_closed_form_lower_parameters(cap, data):
    """Order 1 applies r2 at (u1, u2, v2), then r1 at (u1, v1, u2); their
    lower parameters u1 - u2 and v1 - u2 are 2 l1 and l1 + l2 - w, the lower
    parameters of sl2_rhat_closed's two Euler stages. The full swap skips
    exactly where a guard over those two rejects, with its reason, and
    where it builds, sl2_rhat_closed builds: the closed form needs no guard
    of its own."""
    l1, l2, u, v = data.draw(st.lists(_near_pole(cap), min_size=4, max_size=4))
    t, s = (u + l1, u - l1), (v + l2, v - l2)
    pair = sl2_pair(cap)
    reason = vanishing_pochhammer([2 * l1, l1 + l2 - (u - v)], cap)
    try:
        rhat("sl2", pair, t, s)
    except CheckSkipped as e:
        assert e.args[0] == reason
        return
    assert reason is None
    sl2_rhat_closed(pair, l1, l2, u - v)


def test_a_closed_form_with_one_parameter_moved_fails_the_closed_form_check(
    monkeypatch,
):
    """closed-form compares the factors with a formula of its own: with l1 +
    l2 - w replaced by l1 + l2 - w + 1 in the closed form alone, the check
    fails at a generic point where it passes otherwise."""
    assert run_check("sl2", "closed-form", 4, _POINT).status == "pass"
    first, second = sl2core._SL2_CLOSED_STAGES
    moved = partial(first.func, *first.args[:3], lambda l1, l2, w: l1 + l2 - w + 1)
    monkeypatch.setattr(sl2core, "_SL2_CLOSED_STAGES", (moved, second))
    res = run_check("sl2", "closed-form", 4, _POINT)
    assert res.status == "fail", res


# ---------------------------------------------------------------------------
# Charges

def test_charge_vectors_grade_z_only_bases_by_degree():
    """The per-variable rule gives an sl2 monomial the charge (0, degree),
    so the oracle's charge blocks on sl2 bases are the degree levels, in
    degree order."""
    for basis in (sl2_site(4), sl2_pair(3), sl2_pair(6)):
        assert charge_vectors(basis) == [(0, h) for h in basis.heights]
        levels = {}
        for i, h in enumerate(basis.heights):
            levels.setdefault(h, []).append(i)
        _, blocks, _ = verify._charge_structure(basis)
        assert [blocks[q] for q in sorted(blocks)] == [
            levels[h] for h in sorted(levels)
        ]


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


@pytest.mark.parametrize(
    "make", [partial(sl2_pair, 6), partial(sl3_pair, 3), partial(sl3_site, 3)],
    ids=["sl2-pair-6", "sl3-pair-3", "sl3-site-3"],
)
def test_the_oracle_keys_x_rc_as_r_n_plus_c_in_pair_order(make):
    """The oracle's unknown X[r, c] is the int r * n + c, listed by sorted
    charge block, then r, then c; so the keys compare as the pairs do, and
    the solver's leads and free unknown are those of the pairs."""
    basis = make()
    n = len(basis)
    blocks = {}
    for i, q in enumerate(charge_vectors(basis)):
        blocks.setdefault(q, []).append(i)
    pairs = [(r, c) for q in sorted(blocks) for r in blocks[q] for c in blocks[q]]
    _, _, unknowns = verify._charge_structure(basis)
    assert verify._charge_structure(basis)[2] is unknowns  # built once
    assert [divmod(k, n) for k in unknowns] == pairs
    by_key = sorted(range(len(unknowns)), key=unknowns.__getitem__)
    assert by_key == sorted(range(len(pairs)), key=pairs.__getitem__)


# ---------------------------------------------------------------------------
# Intertwining oracle on a one-site toy system

def _raising_op(cap, ell):
    basis = sl2_site(cap)
    return basis, generators(basis, SL2_GENERATORS, (ell,))["Sp"]


def test_oracle_unique_solution_is_the_identity():
    basis, sp = _raising_op(4, F(3, 2))
    sols = intertwiner_oracle([("Sp", sp, sp)], basis)
    assert len(sols) == 1
    n = op_scale(sols[0], 1 / op_scalar_part(sols[0]))
    assert is_zero(op_add(n, identity_op(basis), -1), basis.cap)[0]


def test_oracle_scaled_relation_forces_a_geometric_diagonal():
    basis, sp = _raising_op(4, F(3, 2))
    sols = intertwiner_oracle([("Sp", sp, op_scale(sp, F(2)))], basis)
    assert len(sols) == 1
    n = op_scale(sols[0], 1 / op_scalar_part(sols[0]))
    for k, h in enumerate(basis.heights):
        assert n.col(k) == {k: F(2) ** h}


def test_oracle_contradictory_relations_leave_no_solution():
    basis, sp = _raising_op(4, F(3, 2))
    pairs = [("Sp", sp, sp), ("2 Sp", sp, op_scale(sp, F(2)))]
    assert len(intertwiner_oracle(pairs, basis)) == 0


def test_oracle_unconstrained_system_is_degenerate():
    basis = sl2_site(3)
    sols = intertwiner_oracle([], basis)
    assert len(sols) == len(basis)  # one free diagonal entry per degree


# ---------------------------------------------------------------------------
# Residual helpers

def _r1_setup(cap):
    pair = sl2_pair(cap)
    (u1, u2), (v1, v2) = sl2_slots(F(1), F(1, 3)), sl2_slots(F(1, 2), F(-1, 4))
    laxes = (
        sl2_lax(pair, u1, u2, "1"),
        sl2_lax(pair, v1, v2, "2"),
        sl2_lax(pair, v1, u2, "1"),
        sl2_lax(pair, u1, v2, "2"),
    )
    return pair, (u1, v1, v2), laxes


def test_intertwines_passes_on_the_exchange_relation():
    pair, args, laxes = _r1_setup(4)
    R = factor("sl2", 1, pair, *args)
    pairs = verify._blocks(lax_mul(*laxes[:2]), lax_mul(*laxes[2:]))
    assert [label for label, _, _ in pairs] == [
        "block (0,0)", "block (0,1)", "block (1,0)", "block (1,1)"
    ]
    assert verify._intertwines(R, pairs, 2) == 2


def test_intertwines_fails_with_a_block_witness_under_mutation():
    pair, args, laxes = _r1_setup(4)
    R = factor("sl2", 1, pair, *args, mutate=(0, 1))
    pairs = verify._blocks(lax_mul(*laxes[:2]), lax_mul(*laxes[2:]))
    with pytest.raises(CheckFailed) as err:
        verify._intertwines(R, pairs, 2)
    assert err.value.window == 2
    assert err.value.witness[0].startswith("block")


_GENERIC = {
    "sl2": (6, [F(1), F(1, 2), F(1, 3), F(-1, 4)]),
    "sl3": (3, [F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(2, 3), F(1, 4)]),
}


@pytest.mark.parametrize(
    "alg, k, tag",
    [("sl2", 1, "r1:1"), ("sl2", 2, None), ("sl3", 1, None), ("sl3", 2, "r2:b"),
     ("sl3", 3, None)],
)
def test_each_factor_meets_its_first_order_pairs_on_every_certified_column(
    alg, k, tag
):
    """The oracle's pairs, the blocks of L1 + L2 on either side and the side
    operators, hold for each factor on every column each residual is
    certified at: down to cap - 1 for sl2 and cap - 2 for sl3, whose lowest
    blocks raise the height by 1 and 2. A mutated factor fails them with a
    block witness."""
    cap, draws = _GENERIC[alg]
    a, pair, t, s = verify._point(alg, cap, draws)
    R, q1, q2 = verify._swap(alg, pair, t, s, (k,))
    pairs = verify._first_order(a, pair, t, s, q1, q2) + verify._side_pairs(
        alg, k, pair
    )
    n = 2 if alg == "sl2" else 3
    sides = verify._FACTORS[alg, k][1]
    assert [label for label, _, _ in pairs] == [
        f"block ({i},{j})" for i in range(n) for j in range(n)
    ] + [None] * len(sides)
    assert verify._intertwines(R, pairs) == (cap - 1 if alg == "sl2" else cap - 2)
    if tag is None:
        return
    bad, _, _ = verify._swap(alg, pair, t, s, (k,), parse_mutate(alg, tag))
    with pytest.raises(CheckFailed) as err:
        verify._intertwines(bad, pairs)
    assert err.value.witness[0].startswith("block (")


@pytest.mark.parametrize(
    "alg, k", [("sl2", 1), ("sl2", 2), ("sl3", 1), ("sl3", 2), ("sl3", 3)]
)
def test_the_oracle_solves_the_first_order_and_side_pairs(monkeypatch, alg, k):
    handed = []
    monkeypatch.setattr(
        verify, "_oracle_check", lambda basis, pairs, closed: handed.append(pairs)
    )
    cap, draws = _GENERIC[alg]
    verify._oracle(alg, k, cap, draws, None)
    a, pair, t, s = verify._point(alg, cap, draws)
    _, q1, q2 = verify._swap(alg, pair, t, s, (k,))
    pairs = verify._first_order(a, pair, t, s, q1, q2) + verify._side_pairs(
        alg, k, pair
    )
    (got,) = handed
    assert len(got) == len(pairs)
    for (label, A, B), (label2, A2, B2) in zip(got, pairs):
        assert label == label2
        assert_same_op(whole_block(A), whole_block(A2), (alg, k))
        assert_same_op(whole_block(B), whole_block(B2), (alg, k))


@pytest.mark.parametrize(
    "alg, k, cap, tag, draws",
    [
        ("sl2", 1, 8, "r1:1", [F(1), F(1, 2), F(1, 3), F(-1, 4)]),
        ("sl3", 2, 3, "r2:b", [F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(2, 3), F(1, 4)]),
    ],
)
def test_a_failing_exchange_fails_as_its_whole_products_do(alg, k, cap, tag, draws):
    # the check builds its Lax products on window cap - 2 only; the residual
    # of the whole products must fail at the same window with the same witness
    mutate = parse_mutate(alg, tag)
    a, pair, t, s = verify._point(alg, cap, draws)
    R, q1, q2 = verify._swap(alg, pair, t, s, (k,), mutate)
    L1, L2, L1p, L2p = exchange_laxes(a, pair, t, s, q1, q2)
    P, Q = lax_mul(L1, L2), lax_mul(L1p, L2p)
    with pytest.raises(CheckFailed) as whole:
        verify._intertwines(R, verify._blocks(P, Q), cap - 2)
    with pytest.raises(CheckFailed) as windowed:
        verify._exchange(alg, (k,), cap, draws, mutate)
    assert windowed.value.window == whole.value.window == cap - 2
    assert windowed.value.witness == whole.value.witness
    # the fused residual blocks fail as R P - Q R built blockwise does
    with pytest.raises(CheckFailed) as blockwise:
        verify._equal(blockwise_pairs(R, P, Q), cap - 2)
    assert blockwise.value.args == whole.value.args


@pytest.mark.parametrize("name", ["3F2", "def3", "sl3-invariance", "lax-factor3"])
def test_lax_products_read_only_on_window_cap_minus_two_stop_there(monkeypatch, name):
    """Every Lax product a check reads, evaluated from a compiled table
    (`lax_table_op`), is certified at most at cap - 2 and stores no column
    above it; so is the table. `sl3-invariance` reads no product: its sides
    are L's blocks times entries of a numeric matrix, and its residuals
    with the flow, zero-tested on that window, stop there."""
    products, tables, residuals = [], [], []

    def evaluating(table, *args):
        tables.append(table)
        products.append(lax_table_op(table, *args))
        return products[-1]

    def vanishing(label, res, window=None):
        if window == w:
            residuals.append(res)
        return real(label, res, window)

    real = verify._vanishes
    monkeypatch.setattr(verify, "lax_table_op", evaluating)
    monkeypatch.setattr(verify, "_vanishes", vanishing)
    cap = 3
    w = cap - 2
    draws = draw_rats(check_rng(0, name, 0), verify.CATALOG["sl3", name][1])
    assert run_check("sl3", name, cap, draws).status == "pass"
    one_site = name in ("sl3-invariance", "lax-factor3")
    heights = (sl3_site if one_site else sl3_pair)(cap).heights
    if name == "sl3-invariance":
        assert not products and len(residuals) == 9
        for res in residuals:
            assert res.certified <= w and all(heights[i] <= w for i in res.cols)
    else:
        assert products
    for P in products:
        for row in P.blocks:
            for block in row:
                assert block.certified <= w
                assert all(heights[i] <= w for i in block.cols)
    for table in tables:
        for row in table.blocks:
            for _, certified, cols in row:
                assert certified <= w and all(heights[i] <= w for i in cols)


# algebra -> [(t, s)]: a generic point, and points at which a slot zeroes a
# coefficient: in L1 L2, sl2 u1 = 0 and u1 - u2 = 0, sl3 u1 + 2 = 0,
# u2 + 1 = 0 and m = 0; on the diagonal of the factored form D, sl2
# u1 - 1 = 0 and u2 = 0, sl3 u1 = 0, u2 = 0 and u3 = 0
_TABLE_POINTS = {
    "sl2": [
        ((F(1, 3), F(-2, 7)), (F(5, 4), F(-3, 10))),
        ((F(0), F(1, 3)), (F(1, 2), F(1, 2))),
        ((F(1), F(2, 5)), (F(1), F(0))),
    ],
    "sl3": [
        ((F(1, 3), F(-2, 7), F(3, 4)), (F(5, 6), F(-3, 10), F(1, 9))),
        ((F(-2), F(1, 3), F(2, 5)), (F(1, 7), F(-1), F(0))),
        ((F(0), F(1, 3), F(2, 5)), (F(1, 7), F(0), F(3, 4))),
        ((F(2, 3), F(1, 5), F(0)), (F(0), F(0), F(0))),
    ],
}

# the tables the checks read: the exchange checks' L1(t) L2(s) on the pair
# basis, and the factorization's L(t) M and M D(s) on the site basis
_TABLES = [
    pytest.param(
        alg, cap, first, second,
        id=f"{alg}-{cap}" + ("" if first == "1" else f"-{first}{second}"),
    )
    for alg, cap in [("sl2", 4), ("sl2", 8), ("sl3", 2), ("sl3", 3)]
    for first, second in [("1", "2"), ("L", "M"), ("M", "D")]
]


@pytest.mark.parametrize("alg, cap, first, second", _TABLES)
def test_the_evaluated_lax_table_is_the_folded_lax_product(alg, cap, first, second):
    """A compiled Lax product, evaluated at a point, is the product
    `lax_mul` builds there on window cap - 2, each block folded by
    `op_comb` (`whole_block`): the same values, shift and certified height,
    block by block; every block keeps the band."""
    a = verify._algebra(alg)
    basis = a.pair(cap) if first == "1" else a.site(cap)
    table = verify._lax_table(alg, basis, first, second)
    read1, read2 = (verify._LAX_READS[name] for name in (first, second))
    for t, s in _TABLE_POINTS[alg]:
        P = lax_table_op(table, t, s)
        want = lax_mul(read1(a, basis, t), read2(a, basis, s), cap - 2)
        for (label, got, ref), (i, k) in zip(
            verify._blocks(P, want), product(range(P.size), repeat=2)
        ):
            assert_same_op(got, whole_block(ref), (t, s, label))
            assert got.shift <= i - k


def _perturbed(table, m):
    """The table with 1 added to the coefficient of monomial m in the
    vacuum entry of block (0, 0)."""
    rows = [list(row) for row in table.blocks]
    shift, certified, cols = rows[0][0]
    entries = dict(cols[0])
    coeffs = dict(entries[0])
    coeffs[m] = coeffs.get(m, 0) + table.den
    entries[0] = tuple(sorted(coeffs.items()))
    rows[0][0] = (shift, certified, {**cols, 0: tuple(entries.items())})
    return table._replace(blocks=tuple(map(tuple, rows)))


@pytest.mark.parametrize("alg, cap, name", [("sl2", 6, "F1"), ("sl3", 3, "3F1")])
def test_a_perturbed_lax_table_fails_the_first_factor_at_every_point(
    monkeypatch, alg, cap, name
):
    """One table coefficient off by 1 fails the exchange check at every
    seed-0 point it does not skip. The coefficient is that of t_1 in the
    vacuum entry of block (0, 0): the first factor moves slot 1, so the two
    products read it at t_1 and at s_1, and the residual's vacuum column is
    (t_1 - s_1) times the vacuum. (A constant coefficient there would be
    invisible: R fixes the vacuum.)"""
    pair = verify._algebra(alg).pair(cap)
    n = 2 if alg == "sl2" else 3
    bad = _perturbed(verify._lax_table(alg, pair, "1", "2"), n + 1)
    monkeypatch.setattr(verify, "_lax_table", lambda *args: bad)
    statuses = [
        c["status"] for c in run_suite(SuiteConfig(alg, cap, checks=(name,)))["checks"]
    ]
    assert set(statuses) == {"fail", "skipped"}
    assert statuses.count("fail") == 10


# algebra -> (cap, a generic point)
_SWAP_POINTS = {
    "sl2": (5, [F(1, 3), F(2, 7), F(-3, 5), F(5, 11)]),
    "sl3": (3, [F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(2, 3), F(1, 4)]),
}


@pytest.mark.parametrize(
    "alg, tag", [("sl2", None), ("sl2", "r1:1"), ("sl3", None), ("sl3", "r2:b")]
)
def test_the_permuted_full_swap_residual_is_the_swapped_residual(alg, tag):
    """The site swap P takes L(x, site 2) to L(x, site 1) and back, so the
    permuted relation (P Rhat) L1 L2 = L2' L1' (P Rhat) has residual P times
    that of Rhat L1 L2 = L1' L2' Rhat, and `_exchange` tests only the
    latter; this holds for a mutated Rhat as for a true one."""
    cap, draws = _SWAP_POINTS[alg]
    a = verify._algebra(alg)
    t, s = (a.slots(*d) for d in a.sites(draws))
    pair = a.pair(cap)
    sigma = pair_swap(pair)
    w = cap - 2
    for x in (t, s):
        L1, L2 = a.lax(pair, *x, "1"), a.lax(pair, *x, "2")
        for label, b1, b2 in verify._blocks(L1, L2):
            swapped = compose(sigma, compose(whole_block(b2), sigma))
            assert_same_op(swapped, whole_block(b1), (x, label))
    mutate = None if tag is None else parse_mutate(alg, tag)
    A = _word(alg, pair, t, s, range(len(t), 0, -1), mutate)
    L1, L2, L1p, L2p = exchange_laxes(a, pair, t, s, s, t)
    P = lax_mul(L1, L2, w)
    res = blockwise_pairs(A, P, lax_mul(L1p, L2p, w))
    permuted = blockwise_pairs(compose(sigma, A), P, lax_mul(L2, L1, w))
    nonzero = 0
    for (label, *sides), (_, *permuted_sides) in zip(res, permuted):
        want = compose_sum(((sigma, op_add(*sides, -1), 1),), upto=w)
        got = op_add(*permuted_sides, -1)
        assert_same_op(got, want, label)
        nonzero += not is_zero(got, w)[0]
    assert (nonzero > 0) == (tag is not None)


@pytest.mark.parametrize(
    "alg, tag", [("sl2", None), ("sl2", "r1:1"), ("sl3", None), ("sl3", "r2:b")]
)
def test_the_folded_intertwining_residual_is_the_per_term_one(monkeypatch, alg, tag):
    """`_intertwines` folds each side's terms by one op_comb before its one
    compose_sum; its residual is the one compose_sum over every term of both
    sides, for the exchange pairs of each factor and the full swap, their
    first-order pairs and the factors' side pairs."""
    residuals = []
    real = verify._vanishes

    def recording(label, res, window=None):
        residuals.append(res)
        return real(label, res, window)

    monkeypatch.setattr(verify, "_vanishes", recording)
    cap, draws = _SWAP_POINTS[alg]
    a, pair, t, s = verify._point(alg, cap, draws)
    mutate = None if tag is None else parse_mutate(alg, tag)
    w = cap - 2
    for word in [(k,) for k in range(1, len(t) + 1)] + [tuple(range(len(t), 0, -1))]:
        R, q1, q2 = verify._swap(alg, pair, t, s, word, mutate)
        L1, L2, L1p, L2p = exchange_laxes(a, pair, t, s, q1, q2)
        jobs = [
            (verify._blocks(lax_mul(L1, L2, w), lax_mul(L1p, L2p, w)), w),
            (verify._first_order(a, pair, t, s, q1, q2), None),
        ]
        if len(word) == 1:
            jobs.append((verify._side_pairs(alg, word[0], pair), None))
        for pairs, window in jobs:
            for label, A, B in pairs:
                residuals.clear()
                try:
                    verify._intertwines(R, [(label, A, B)], window)
                except CheckFailed:
                    pass
                want = compose_sum(
                    [(R, op, c) for op, c in lax_terms(A)]
                    + [(op, R, -c) for op, c in lax_terms(B)],
                    upto=window,
                )
                assert_same_op(residuals[0], want, (word, label))


# the catalog checks that read Lax products -> how many compiled tables
# they hold: an exchange check L1(t) L2(s), the factorization checks L(t) M
# and M D(s), and `sl3-invariance`, whose M is numeric, none
_LAX_PRODUCT_CHECKS = {
    ("sl2", "lax-factor"): 2, ("sl2", "F1"): 1, ("sl2", "F2"): 1,
    ("sl2", "global"): 1, ("sl3", "lax-factor3"): 2, ("sl3", "sl3-invariance"): 0,
    ("sl3", "3F1"): 1, ("sl3", "3F2"): 1, ("sl3", "3F3"): 1, ("sl3", "def3"): 1,
}


@pytest.mark.parametrize("alg, name", list(_LAX_PRODUCT_CHECKS))
def test_an_exchange_check_holds_one_lax_table_at_any_trial_count(alg, name):
    # each check compiles its tables at its first point, and no more after
    cap = 6 if alg == "sl2" else 3
    for trials in (2, 10):
        verify._lax_table.cache_clear()
        run_suite(SuiteConfig(alg, cap, trials=trials, checks=(name,)))
        held = verify._lax_table.cache_info().currsize
        assert held == _LAX_PRODUCT_CHECKS[alg, name], trials


def _changed_block(L, i, j, change):
    """The Lax matrix L with each coefficient c of block (i, j) made
    change(c)."""
    blocks = [list(row) for row in L.blocks]
    blocks[i][j] = tuple((op, change(c)) for op, c in lax_terms(blocks[i][j]))
    return LaxOp(blocks)


@pytest.mark.parametrize(
    "alg, cap, factor, i, j, change",
    [
        pytest.param(alg, cap, *wrong, id=f"{alg}-{cap}-{tag}")
        for alg, cap in [("sl2", 6), ("sl3", 3), ("sl3", 4)]
        for tag, wrong in [
            ("M", (0, 1, 0, lambda c: 2 * c)), ("D", (1, 0, 0, lambda c: c + 1))
        ]
    ],
)
def test_a_wrong_triangular_factor_fails_the_factorization_at_every_point(
    monkeypatch, fresh_lax_tables, alg, cap, factor, i, j, change
):
    """L(t) M = M D(t) fails at every seed-0 point when M alone has one
    changed entry (block (1, 0) doubled) or D's first diagonal entry is
    shifted by 1: L M - M D is then L E - E D for the change E of M, whose
    block (0, 0) is L_01 E_10, minus the first derivative times the
    variable, or -1 for the change of D; neither kills the vacuum."""
    real = verify._algebra(alg)
    name = "lax-factor" if alg == "sl2" else "lax-factor3"

    def wrong(basis, *t):
        parts = list(real.lax_factored(basis, *t))
        parts[factor] = _changed_block(parts[factor], i, j, change)
        return tuple(parts)

    monkeypatch.setitem(verify._ALGEBRAS, alg, real._replace(lax_factored=wrong))
    report = run_suite(SuiteConfig(alg, cap, trials=4, checks=(name,)))
    assert [c["status"] for c in report["checks"]] == ["fail"] * 4


# ---------------------------------------------------------------------------
# Result schema and serialization

def test_check_result_json_schema():
    ok = CheckResult("c", [F(1, 2)], 2, "pass", scalar=F(-3, 7))
    assert ok.to_json() == {
        "name": "c", "params": ["1/2"], "status": "pass", "scalar": "-3/7"
    }
    bad = CheckResult("c", [], 2, "fail", witness=("z1", "5/3"))
    assert bad.to_json()["witness"] == {"monomial": "z1", "value": "5/3"}
    assert "reason" not in bad.to_json()
    skip = CheckResult("c", [], 0, "skipped", reason="(0)_1 = 0")
    assert skip.to_json()["reason"] == "(0)_1 = 0"


def test_failing_result_requires_a_witness():
    with pytest.raises(ValueError):
        CheckResult("c", [], 2, "fail")


# ---------------------------------------------------------------------------
# run_check: one place labels every outcome

_POINT = [F(1), F(1, 2), F(1, 3), F(-1, 4)]


def test_run_check_labels_a_pass_with_its_scalar():
    res = run_check("sl2", "rfact-orders", 4, _POINT)
    pair = sl2_pair(4)
    t, s = sl2_slots(F(1), F(1, 3)), sl2_slots(F(1, 2), F(-1, 4))
    want = op_scalar_part(rhat("sl2", pair, t, s))
    assert (res.name, res.params, res.status) == ("rfact-orders", _POINT, "pass")
    assert res.scalar == want and res.window == 4
    assert res.witness is None and res.reason is None


def test_run_check_labels_a_guard_rejected_point_skipped():
    # l1 = -1: r2's lower parameter u1 - u2 = 2 l1 = -2
    res = run_check("sl2", "rfact-orders", 4, [F(-1), F(1, 2), F(1, 3), F(-1, 4)])
    assert res.status == "skipped" and res.reason == "(-2)_3 = 0"
    assert res.window == 0 and res.witness is None and res.scalar is None


def test_run_check_labels_a_mutated_factor_failed_with_a_block_witness():
    res = run_check("sl2", "F1", 4, _POINT, mutate=parse_mutate("sl2", "r1:1"))
    assert res.status == "fail" and res.window == 2
    monomial, value = res.witness
    assert " in block (" in monomial and value
    assert res.to_json()["witness"] == {"monomial": monomial, "value": value}


def test_an_oracle_solution_that_kills_the_vacuum_fails_at_the_cap(monkeypatch):
    def kills_the_vacuum(pairs, basis):
        return [diffop(basis, (1, (), ("z1",)))]

    monkeypatch.setattr(verify, "intertwiner_oracle", kills_the_vacuum)
    res = run_check("sl2", "oracle-r1", 4, _POINT)
    assert res.status == "fail" and res.window == 4
    assert res.witness == ("1", "0")


@pytest.mark.parametrize(
    "make", [partial(sl2_pair, 8), partial(sl3_pair, 3), partial(sl3_site, 3)]
)
def test_the_vacuum_is_alone_in_its_charge_block(make):
    """No charge-preserving operator moves the vacuum, so the oracle's
    solution has no vacuum-column entry off the vacuum to normalize."""
    charges, blocks, _ = verify._charge_structure(make())
    assert blocks[charges[0]] == [0]


def test_a_doubled_factor_fails_every_exact_comparison_with_a_fixed_operator(
    monkeypatch,
):
    """With every factor doubled, the reverse swap after the forward one is
    not the identity and the swap is not its closed form, at every point;
    the two factor orders stay equal to each other, so rfact-orders passes
    and reports the doubled vacuum coefficient 2 * 2."""
    real = verify._factor
    monkeypatch.setattr(verify, "_factor", lambda *args: op_scale(real(*args), 2))
    for alg, cap, names in (
        ("sl2", 6, ("inverse-scalar", "closed-form", "rfact-orders")),
        ("sl3", 3, ("inverse-scalar3",)),
    ):
        report = run_suite(SuiteConfig(alg, cap, trials=4, seed=0, checks=names))
        for name in names:
            ran = [
                r for r in report["checks"]
                if r["name"] == name and r["status"] != "skipped"
            ]
            assert len(ran) == 4
            if name == "rfact-orders":
                assert {(r["status"], r["scalar"]) for r in ran} == {("pass", "4")}
            else:
                assert {r["status"] for r in ran} == {"fail"}


# the relations that read words of factors off the catalog
_WORD_RELATIONS = (verify._exchange, verify._words, verify._first_orders)


def _catalog_words(fn):
    """The words of factors a catalog check builds, () for a check that
    reads none: `_exchange` takes one word, the others a tuple of them."""
    func = getattr(fn, "func", None)
    if func not in _WORD_RELATIONS:
        return ()
    words = fn.args[1]
    return (words,) if func is verify._exchange else words


def _swap_factors(alg):
    """The factors of `alg` that exchange a Lax slot between two sites."""
    return {k for a, k in verify._FACTORS if a == alg and k != "r3-single"}


def _word_errors(alg, words):
    """What is wrong with the words of one `_words` row: a factor that is
    not one of its algebra's swap factors, or a word that leaves other
    slots than the first word does. Each word runs `_factor_args` on the
    symbolic slot tuples (t1, ..., tn), (s1, ..., sn)."""
    factors = _swap_factors(alg)
    n = len(factors)
    start = tuple(f"t{i}" for i in range(1, n + 1)), tuple(
        f"s{i}" for i in range(1, n + 1)
    )
    errors, left = [], {}
    for word in words:
        if not set(word) <= factors:
            errors.append(f"{word} names a factor {alg} lacks")
            continue
        slots = start
        for k in word:
            slots = verify._factor_args(*slots, k)[1:]
        left[word] = slots
    first = next(iter(left.values()), None)
    errors += [f"{w} leaves {q}, not {first}" for w, q in left.items() if q != first]
    return errors


def test_every_catalog_word_names_its_algebras_factors_and_leaves_one_slot_pair():
    """The words of a `_words` row realise one permutation of the slots,
    the empty word the identity, and every word a check builds names only
    swap factors of its algebra; a row that breaks either is caught."""
    rows = {
        key: _catalog_words(fn) for key, (fn, _) in verify.CATALOG.items()
    }
    for (alg, name), words in rows.items():
        assert all(set(w) <= _swap_factors(alg) for w in words), name
        if getattr(verify.CATALOG[alg, name][0], "func", None) is verify._words:
            assert _word_errors(alg, words) == [], name
    orders = rows["sl3", "orders3"]
    assert orders[0] == (3, 2, 1)
    assert sorted(orders) == sorted(permutations((1, 2, 3)))
    assert _word_errors("sl2", ((2, 1), (1,))) == [
        "(1,) leaves (('s1', 't2'), ('t1', 's2')), not (('s1', 's2'), ('t1', 't2'))"
    ]
    assert _word_errors("sl2", ((2, 1), (3, 1))) == ["(3, 1) names a factor sl2 lacks"]
    assert _word_errors("sl3", ((1, 1), ())) == []


# (algebra, cap, check, tag): a check that builds words of factors, and a
# mutation that fails it at every seed-0 point it does not skip
_WORD_MUTANTS = [
    ("sl2", 4, "inverse-scalar", "r1:1"),
    ("sl3", 3, "inverse-scalar3", "r2:b"),
    ("sl3", 3, "involutions3", "r2:b"),
] + [("sl3", 3, "global3", tag) for tag in SL3_MUTATION_TAGS]


@pytest.mark.parametrize("alg, cap, name, tag", _WORD_MUTANTS)
def test_a_mutation_reaches_every_word_a_check_builds(alg, cap, name, tag):
    """A mutation reaches every factor of every word of the catalog row,
    so a swap and its reverse, a factor applied twice and each first-order
    word fail at every seed-0 point the check does not skip."""
    assert (alg, name) in verify.MUTATION_CHECKS
    mutate = parse_mutate(alg, tag)
    report = run_suite(SuiteConfig(alg, cap, trials=4, seed=0, checks=(name,),
                                   mutate=mutate))
    ran = [r for r in report["checks"] if r["status"] != "skipped"]
    assert len(ran) == 4
    assert {r["status"] for r in ran} == {"fail"}


def test_the_checks_factor_table_is_the_core_modules_tables():
    assert list(verify._FACTORS) == [("sl2", 1), ("sl2", 2)] + [
        ("sl3", k) for k in (1, 2, 3, "r3-single")
    ]
    for alg, table in (("sl2", sl2core.SL2_FACTORS), ("sl3", sl3core.SL3_FACTORS)):
        for k, entry in table.items():
            assert verify._FACTORS[alg, k] is entry


@pytest.mark.parametrize(
    "alg, cap, names, side, wrong",
    [
        ("sl3", 3, ("3F1", "oracle-r1"), 3,
         ((1, (), ("z2",)), (-1, ("x2",), ("y2",)))),
        ("sl2", 6, ("F1", "oracle-r1"), 0, ((1, ("z2",), ()),)),
    ],
    ids=["sl3-r1-side-without-x1-dy2", "sl2-r1-side-z2"],
)
def test_a_wrong_side_relation_in_the_factor_table_fails_its_factor(
    monkeypatch, alg, cap, names, side, wrong
):
    """The exchange check and the oracle of factor 1 read its side
    relations from the factor table: with one side made wrong (sl3: the
    fourth without its x1 dy2 term; sl2: z2 for z1), both fail at every
    seed-0 point."""
    stages, sides = verify._FACTORS[alg, 1]
    sides = sides[:side] + (wrong,) + sides[side + 1:]
    monkeypatch.setitem(verify._FACTORS, (alg, 1), (stages, sides))
    report = run_suite(SuiteConfig(alg, cap, trials=4, seed=0, checks=names))
    for name in names:
        ran = [
            r for r in report["checks"]
            if r["name"] == name and r["status"] != "skipped"
        ]
        assert len(ran) == 4
        assert {r["status"] for r in ran} == {"fail"}


def test_a_failing_sl3_invariance_reports_through_the_lax_zero_test(monkeypatch):
    real = verify.sl3_invariance_matrix
    monkeypatch.setattr(
        verify, "sl3_invariance_matrix", lambda a, b, c: real(a, b, 2 * c)
    )
    point = [F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(2, 3), F(1, 4)]
    res = run_check("sl3", "sl3-invariance", 3, point)
    assert res.status == "fail" and res.window == 1
    assert res.to_json()["witness"] == {
        "monomial": "z in block (1,1)",
        "value": "(-1/5)*1",
    }


def test_a_failing_ybe_residual_reports_its_row_major_first_entry(monkeypatch):
    residuals = {2: {(5, 1): F(3), (2, 6): F(1, 2), (2, 4): F(-5, 3)},
                 3: {(0, 0): F(7)}}
    monkeypatch.setattr(
        verify, "ybe_fundamental_residual", lambda u, v, d: residuals[d]
    )
    res = run_check("sl2", "ybe-fundamental", 2, [F(1, 2), F(1, 3)])
    assert res.status == "fail" and res.window == 0
    assert res.witness == ("d=2 entry (2,4)", "-5/3")
    residuals[2] = {}
    res = run_check("sl2", "ybe-fundamental", 2, [F(1, 2), F(1, 3)])
    assert res.witness == ("d=3 entry (0,0)", "7")


_SPECTRAL_POINT = [F(1, 2), F(1, 3), F(2), F(1, 5)]


def test_a_construction_error_in_the_spectral_check_is_raised(monkeypatch):
    def leaks(pair):
        raise LaurentLeak("image of z1 kept a negative exponent")

    assert run_check("sl2", "spectral", 4, _SPECTRAL_POINT).status == "pass"
    monkeypatch.setattr(verify, "pair_swap", leaks)
    with pytest.raises(LaurentLeak):
        run_check("sl2", "spectral", 4, _SPECTRAL_POINT)


def test_a_failing_spectral_recurrence_is_a_spectral_fail(monkeypatch):
    # P times (total degree + 1): each lowest-weight vector stays an
    # eigenvector, but the eigenvalue of degree n gains the factor n + 1
    real = verify.pair_swap

    def scaled(pair):
        degree_plus_one = diffop(
            pair, (1, (), ()), (1, ("z1",), ("z1",)), (1, ("z2",), ("z2",))
        )
        return compose(real(pair), degree_plus_one)

    monkeypatch.setattr(verify, "pair_swap", scaled)
    res = run_check("sl2", "spectral", 4, _SPECTRAL_POINT)
    assert res.status == "fail"
    assert res.witness[0].startswith("spectral recurrence fails at degree 0")


def test_the_spectral_check_passes_where_an_eigenvalue_vanishes():
    """At l1 + l2 + w = -4 the recurrence sends rho_5 and rho_6 to zero.
    Multiplied out it divides by no eigenvalue and still holds, and the
    full swap exists there, so the check passes rather than skipping with
    (-4)_5 = 0."""
    draws = [F(-15, 4), F(-3, 11), F(-5, 4), F(-14, 11)]
    res = run_check("sl2", "spectral", 8, draws)
    assert res.status == "pass" and res.window == 6, res
    l1, l2, u, v = draws
    pair = sl2_pair(8)
    swap = rhat("sl2", pair, sl2_slots(l1, u), sl2_slots(l2, v))
    rhos = sl2_spectral((compose(pair_swap(pair), swap),), l1, l2, u - v, 6)
    assert all(rhos[:5]) and rhos[5] == rhos[6] == 0


# ---------------------------------------------------------------------------
# Relations read products through the kernels instead of building them

def _passing_params(alg, name, cap, seed):
    """The draws of the first instance of a check that does not skip."""
    *_, first = run_one(alg, name, 0, cap, seed, None, None)
    assert first.status == "pass", first.to_json()
    return first.params


def _spectral_words(pair, t, s, n_max, mutate=None):
    """The spectral check's word, Rhat's factors up to height n_max and
    then P, and the whole product P Rhat it stands for."""
    P = pair_swap(pair)
    word, _, _ = verify._word("sl2", pair, t, s, (2, 1), mutate, n_max)
    return (*word, P), compose(P, verify._swap("sl2", pair, t, s, (2, 1), mutate)[0])


@pytest.mark.parametrize("cap", [4, 6, 8])
def test_the_spectral_word_reads_the_eigenvalues_of_the_whole_product(cap):
    """sl2_spectral on the word gives the rho list it gives on P Rhat
    composed, and under a perturbed word it fails with the same message:
    P times (degree + 1) and r1 with its exponent-2 eigenvalue doubled
    break the recurrence, P times 1 + z1 d/dz2 the eigenvectors."""
    n_max = min(6, cap - 1)
    for seed in range(5):
        l1, l2, u, v = draws = _passing_params("sl2", "spectral", cap, seed)
        _, pair, t, s = verify._point("sl2", cap, draws)
        word, whole = _spectral_words(pair, t, s, n_max)
        rhos = sl2_spectral(word, l1, l2, u - v, n_max)
        assert rhos == sl2_spectral((whole,), l1, l2, u - v, n_max)
        assert len(rhos) == n_max + 1
        perturbed = [_spectral_words(pair, t, s, n_max, parse_mutate("sl2", "r1:2"))]
        for terms in (
            ((1, (), ()), (1, ("z1",), ("z1",)), (1, ("z2",), ("z2",))),
            ((1, (), ()), (1, ("z1",), ("z2",))),
        ):
            twist = diffop(pair, *terms)
            perturbed.append(((*word, twist), compose(twist, whole)))
        messages = []
        for bad, bad_whole in perturbed:
            with pytest.raises(SpectralMismatch) as got:
                sl2_spectral(bad, l1, l2, u - v, n_max)
            with pytest.raises(SpectralMismatch) as want:
                sl2_spectral((bad_whole,), l1, l2, u - v, n_max)
            assert str(got.value) == str(want.value)
            messages.append(str(got.value).split(":")[0])
        assert messages == [
            "spectral recurrence fails at degree 1",
            "spectral recurrence fails at degree 0",
            "degree 1 kernel vector is not an eigenvector",
        ]


def test_the_spectral_word_refuses_a_column_above_a_factors_certified_height():
    pair = sl2_pair(6)
    t, s = sl2_slots(F(1, 2), F(2)), sl2_slots(F(1, 3), F(1, 5))
    word, _ = _spectral_words(pair, t, s, 3)
    with pytest.raises(linop.WindowBeyondCertified):
        sl2_spectral(word, F(1, 2), F(1, 3), F(9, 5), 4)


def _recorded_residuals(monkeypatch):
    """A list that receives every residual `_vanishes` is given, before it
    is tested."""
    got = []
    real = verify._vanishes

    def recording(label, res, window=None):
        got.append(res)
        return real(label, res, window)

    monkeypatch.setattr(verify, "_vanishes", recording)
    return got


@pytest.mark.parametrize("alg, cap, weights", [
    ("sl2", 8, (F(2, 3),)),
    ("sl3", 3, (F(2, 3), F(-1, 5))),
    ("sl3", 4, (F(-7, 4), F(3, 2))),
])
def test_a_commutator_residual_is_the_commutator_less_its_combination(
    monkeypatch, alg, cap, weights
):
    """Each fused residual g_x g_y - g_y g_x - sum c g_z equals, by value,
    shift and certified height, the difference of the commutator and the
    combination built apart; with every structure constant doubled the
    first that fails fails with the same witness."""
    a = verify._algebra(alg)
    basis = a.site(cap)
    g = generators(basis, a.table, weights)
    real = verify._structure_constants
    residuals = _recorded_residuals(monkeypatch)
    for scale in (1, 2):
        constants = [
            (x, y, tuple((z, scale * c) for z, c in terms)) for x, y, terms in real(alg)
        ]
        monkeypatch.setattr(verify, "_structure_constants", lambda alg: constants)
        want = [
            op_add(commutator(g[x], g[y]), verify._combination(basis, g, terms), -1)
            for x, y, terms in constants
        ]
        residuals.clear()
        try:
            window, _ = verify._commutators(alg, cap, list(weights), None)
        except CheckFailed as e:
            assert scale == 2
            last = want[len(residuals) - 1]
            witness = is_zero(last, last.certified)[1]
            assert (e.window, e.witness) == (last.certified, witness)
        else:
            assert scale == 1 and len(residuals) == len(want)
            assert window == min(w.certified for w in want)
        for got, w in zip(residuals, want):
            assert_same_op(got, w)


# (algebra, check, mutation tag) for every `_words` row: the tag makes the
# first residual at the row's seed-0 point nonzero
_WORD_ROWS = [
    ("sl2", "rfact-orders", "r1:1"),
    ("sl2", "inverse-scalar", "r1:1"),
    ("sl2", "involutions", "r1:1"),
    ("sl3", "rfact3-orders", "r2:b"),
    ("sl3", "inverse-scalar3", "r2:b"),
    ("sl3", "involutions3", "r2:b"),
    ("sl3", "orders3", "r2:b"),
]


def test_the_word_rows_are_every_words_row_of_the_catalog():
    rows = {
        key for key, (fn, _) in verify.CATALOG.items()
        if getattr(fn, "func", None) is verify._words
    }
    assert rows == {(alg, name) for alg, name, _ in _WORD_ROWS}


@pytest.mark.parametrize("alg, name, tag", _WORD_ROWS)
def test_a_word_residual_is_the_difference_of_the_whole_products(
    monkeypatch, alg, name, tag
):
    """Each residual of a `_words` row equals, by value, shift and
    certified height, the first word's whole product less the other
    word's (the empty word's the unit); under a mutation the first failing
    residual fails with the same window and witness."""
    cap = _WINDOW_CAPS[alg]
    words = verify.CATALOG[alg, name][0].args[1]
    draws = _passing_params(alg, name, cap, 0)
    _, pair, t, s = verify._point(alg, cap, draws)
    residuals = _recorded_residuals(monkeypatch)
    for mutate in (None, parse_mutate(alg, tag)):
        first, *others = (
            _word(alg, pair, t, s, w, mutate) if w else identity_op(pair) for w in words
        )
        want = [op_add(first, R, -1) for R in others]
        residuals.clear()
        try:
            window, scalar = verify._words(alg, words, cap, draws, mutate)
        except CheckFailed as e:
            assert mutate is not None and len(residuals) == 1
            assert (e.window, e.witness) == (cap, is_zero(want[0], cap)[1])
        else:
            assert mutate is None and len(residuals) == len(want)
            assert (window, scalar) == (cap, op_scalar_part(first))
        for got, w in zip(residuals, want):
            assert_same_op(got, w)


def _recording(calls, name, fn):
    def run(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.setdefault(name, []).append((args, kwargs, out))
        return out

    return run


def test_relations_read_products_through_the_kernels(monkeypatch):
    """spectral composes nothing and evaluates each factor up to n_max;
    commutators makes one `compose_sum` per structure constant and no
    `op_comb`; a `_words` row builds the first word's product once and no
    other word's whole product, one `compose_sum` per other word."""
    calls = {}
    for name in ("compose", "compose_sum", "op_comb", "path_op", "_factor"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, _recording(calls, name, real))

    draws = _passing_params("sl2", "spectral", 8, 0)
    calls.clear()
    assert run_check("sl2", "spectral", 8, draws).status == "pass"
    assert "compose" not in calls and "compose_sum" not in calls
    assert [kw["upto"] for _, kw, _ in calls["path_op"]] == [6, 6]
    assert pair_swap(sl2_pair(8)) is pair_swap(sl2_pair(8))

    for alg, cap in _WINDOW_CAPS.items():
        draws = _passing_params(alg, "commutators", cap, 0)
        calls.clear()
        assert run_check(alg, "commutators", cap, draws).status == "pass"
        assert len(calls["compose_sum"]) == len(verify._structure_constants(alg))
        assert "op_comb" not in calls and "compose" not in calls

    for alg, name, _ in _WORD_ROWS:
        cap = _WINDOW_CAPS[alg]
        words = verify.CATALOG[alg, name][0].args[1]
        draws = _passing_params(alg, name, cap, 0)
        calls.clear()
        assert run_check(alg, name, cap, draws).status == "pass"
        # each factor by its place in build order, each product by its factors
        letters = {id(out): (n,) for n, (*_, out) in enumerate(calls["_factor"])}
        products = []
        for (a, b), _, out in calls.get("compose", []):
            letters[id(out)] = letters[id(b)] + letters[id(a)]
            products.append(letters[id(out)])
        start = 0
        for j, w in enumerate(words):
            whole = tuple(range(start, start + len(w)))
            start += len(w)
            built = products.count(whole)
            assert built == (j == 0 and len(w) > 1), (name, w)
        assert start == len(calls["_factor"])
        assert len(calls["compose_sum"]) == len(words) - 1


# ---------------------------------------------------------------------------
# The window of a pass is the least height its zero tests covered

_WINDOW_CAPS = {"sl2": 8, "sl3": 3}

# (algebra, check) -> the window of its first passing seed-0 instance at the
# cap above; None for the checks that zero-test no operator
_PINNED_WINDOWS = {
    ("sl2", "commutators"): 7,
    ("sl2", "casimir"): 8,
    ("sl2", "lax-factor"): 6,
    ("sl2", "F1"): 6,
    ("sl2", "F2"): 6,
    ("sl2", "rfact-orders"): 8,
    ("sl2", "spectral"): None,
    ("sl2", "ybe-fundamental"): None,
    ("sl2", "closed-form"): 8,
    ("sl2", "global"): 6,
    ("sl2", "inverse-scalar"): 8,
    ("sl2", "involutions"): 8,
    ("sl2", "oracle-r1"): 8,
    ("sl2", "oracle-r2"): 8,
    ("sl3", "commutators"): 0,
    ("sl3", "casimirs"): 1,
    ("sl3", "findim"): None,
    ("sl3", "lax-factor3"): 1,
    ("sl3", "sl3-invariance"): 1,
    ("sl3", "3F1"): 1,
    ("sl3", "3F2"): 1,
    ("sl3", "3F3"): 1,
    ("sl3", "rfact3-orders"): 3,
    ("sl3", "def3"): 1,
    ("sl3", "global3"): 1,
    ("sl3", "inverse-scalar3"): 3,
    ("sl3", "orders3"): 3,
    ("sl3", "involutions3"): 3,
    ("sl3", "oracle-r1"): 3,
    ("sl3", "oracle-r2"): 3,
    ("sl3", "oracle-r3"): 3,
    ("sl3", "oracle-r3-single"): 3,
}


# (algebra, check) -> how many zero tests that instance makes: an exchange
# check tests its Lax product blocks and, for a single factor, its side
# pairs (F1/F2: 4 + 1, 3F1-3F3: 9 + 4), and a check of words tests each
# word after the first, so a check that drops a relation shows here even
# where the least height stays
_PINNED_ZERO_TESTS = {
    ("sl2", "commutators"): 3,
    ("sl2", "casimir"): 1,
    ("sl2", "lax-factor"): 8,
    ("sl2", "F1"): 5,
    ("sl2", "F2"): 5,
    ("sl2", "rfact-orders"): 1,
    ("sl2", "spectral"): 0,
    ("sl2", "ybe-fundamental"): 0,
    ("sl2", "closed-form"): 1,
    ("sl2", "global"): 4,
    ("sl2", "inverse-scalar"): 1,
    ("sl2", "involutions"): 2,
    ("sl2", "oracle-r1"): 1,
    ("sl2", "oracle-r2"): 1,
    ("sl3", "commutators"): 28,
    ("sl3", "casimirs"): 2,
    ("sl3", "findim"): 0,
    ("sl3", "lax-factor3"): 18,
    ("sl3", "sl3-invariance"): 11,
    ("sl3", "3F1"): 13,
    ("sl3", "3F2"): 13,
    ("sl3", "3F3"): 13,
    ("sl3", "rfact3-orders"): 1,
    ("sl3", "def3"): 9,
    ("sl3", "global3"): 36,
    ("sl3", "inverse-scalar3"): 1,
    ("sl3", "orders3"): 5,
    ("sl3", "involutions3"): 3,
    ("sl3", "oracle-r1"): 1,
    ("sl3", "oracle-r2"): 1,
    ("sl3", "oracle-r3"): 1,
    ("sl3", "oracle-r3-single"): 1,
}


def test_every_sl2_and_sl3_check_has_a_pinned_window():
    keys = {key for key in verify.CATALOG if key[0] in _WINDOW_CAPS}
    assert set(_PINNED_WINDOWS) == set(_PINNED_ZERO_TESTS) == keys


@pytest.mark.parametrize("alg, name", list(_PINNED_WINDOWS))
def test_a_pass_reports_the_least_height_its_zero_tests_covered(
    monkeypatch, alg, name
):
    cap = _WINDOW_CAPS[alg]
    *_, first = run_one(alg, name, 0, cap, 0, None, None)
    assert first.status == "pass"
    heights = []
    real = verify._vanishes

    def recording(label, res, window=None):
        heights.append(real(label, res, window))
        return heights[-1]

    monkeypatch.setattr(verify, "_vanishes", recording)
    res = run_check(alg, name, cap, first.params)
    assert res.status == "pass"
    assert len(heights) == _PINNED_ZERO_TESTS[alg, name]
    want = _PINNED_WINDOWS[alg, name]
    if want is None:
        assert heights == []
    else:
        assert res.window == min(heights) == want


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


def test_the_pool_never_outnumbers_the_tasks(monkeypatch):
    made = []

    class RecordingPool:
        """Stands in for the process pool; starts no process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    cfg = dict(algebra="sl2", cap=4, trials=3, seed=1, checks=("casimir",))
    seq = report_to_json(run_suite(SuiteConfig(**cfg)))
    assert report_to_json(run_suite(SuiteConfig(**cfg, jobs=64))) == seq
    assert made == [3]
    run_suite(SuiteConfig("sl3", 3, checks=("findim",), jobs=64))
    assert made == [3]  # one task runs serially


def test_explicit_params_bypass_sampling_but_not_guards():
    out = run_one("sl2", "casimir", 0, 4, 0, (F(2),), None)
    assert len(out) == 1 and out[0].params == [F(2)]
    for params in ((F(1),), (F(1),) * 5):
        with pytest.raises(ValueError, match="takes 4 parameters"):
            SuiteConfig("sl2", 4, checks=("F1",), params=params)
    # l2 = 0 makes the guard's (v1 - v2) Pochhammer vanish
    res = run_one("sl2", "F1", 0, 4, 0, (F(1), F(0), F(1, 2), F(0)), None)[0]
    assert res.status == "skipped" and res.reason == "(0)_1 = 0"


def test_zero_draw_checks_run_once():
    out = run_one("sl3", "findim", 0, 3, 0, None, None)
    assert len(out) == 1 and out[0].status == "pass"


def test_suite_config_fills_in_the_default_checks():
    assert SuiteConfig("sl3", 3).checks == SL3_DEFAULT_CHECKS
    assert SuiteConfig("sl2", 4).checks == SL2_DEFAULT_CHECKS
    assert SuiteConfig("sl2", 4, checks=("F1",)).checks == ("F1",)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(cap=1), "--cap must be at least 2"),
        (dict(trials=0), "--trials must be positive"),
        (dict(jobs=0), "--jobs must be positive"),
        (dict(params=(F(1),) * 4), "--params requires exactly one --check"),
        (dict(checks=("F1", "F2"), params=(F(1),) * 4),
         "--params requires exactly one --check"),
    ],
    ids=["cap", "trials", "jobs", "params-no-check", "params-two-checks"],
)
def test_suite_config_refuses_a_run_it_cannot_make(kwargs, message):
    """A cap below 2 leaves F1/F2 an empty zero-test window, no trial runs
    no check and reports all_passed; both are refused, as are no worker and
    explicit params without exactly one explicit check."""
    with pytest.raises(ValueError) as err:
        SuiteConfig("sl2", **{"cap": 4, **kwargs})
    assert str(err.value) == message
    ok = {**kwargs, "cap": 2, "trials": 1, "jobs": 1, "checks": ("F1",)}
    assert SuiteConfig("sl2", **ok).cap == 2


def test_suite_config_validates_check_names():
    with pytest.raises(KeyError):
        SuiteConfig("sl2", 4, checks=("no-such-check",))
    with pytest.raises(KeyError):
        SuiteConfig("ybe", 2)


# ---------------------------------------------------------------------------
# Mutation plumbing

def test_parse_mutate_accepts_the_published_tags():
    assert parse_mutate("sl2", "r1:2") == (1, 0, 2)
    assert parse_mutate("sl3", "r2:b") == (2, 1, 1)
    assert parse_mutate("sl3", "r3:c") == (3, 0, 1)
    for algebra, tags in (("sl2", SL2_MUTATION_TAGS), ("sl3", SL3_MUTATION_TAGS)):
        for tag in tags:
            k, stage, exponent = parse_mutate(algebra, tag)
            assert k in (1, 2, 3) and stage in (0, 1, 2) and exponent >= 1


@pytest.mark.parametrize(
    "algebra,tag", [("sl2", "r3:1"), ("sl2", "r1:x"), ("sl2", "r1:0"),
                    ("sl3", "r1:d"), ("sl3", "q:a"), ("sl2", "r1")]
)
def test_parse_mutate_rejects_malformed_tags(algebra, tag):
    with pytest.raises(ValueError):
        parse_mutate(algebra, tag)


def test_a_mutation_exponent_above_the_cap_is_refused():
    # no basis monomial reaches exponent 9 at cap 4, so the mutation would
    # change nothing
    with pytest.raises(ValueError, match="above cap 4"):
        SuiteConfig("sl2", 4, checks=("F1",), mutate=parse_mutate("sl2", "r1:9"))
    assert SuiteConfig("sl2", 4, checks=("F1",), mutate=parse_mutate("sl2", "r1:4"))


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
# Single-site relations from the generator tables

@pytest.mark.parametrize("alg, weights", [
    ("sl2", (F(2, 3),)),
    ("sl3", (F(2, 3), F(-1, 5))),
])
def test_each_coefficient_matrix_maps_back_to_its_generator(alg, weights):
    a = verify._algebra(alg)
    basis = a.site(4)
    g = generators(basis, a.table, weights)
    for name, (_, _, M) in a.table.items():
        terms = verify._in_generators(a.table, M)
        assert terms == ((name, 1),)
        op = verify._combination(basis, g, terms)
        ok, wit = is_zero(op_add(op, g[name], -1), g[name].certified)
        assert ok, (name, wit)


def test_the_sl2_structure_constants_are_the_defining_relations():
    assert verify._structure_constants("sl2") == [
        ("S", "Sp", (("Sp", 1),)),
        ("S", "Sm", (("Sm", -1),)),
        ("Sp", "Sm", (("S", 2),)),
    ]


def test_the_gl_triangles_are_the_traceless_units_in_the_generators():
    third = F(1, 3)
    assert verify._gl_terms("sl2") == {
        (1, 1): (("S", 1),), (2, 2): (("S", -1),),
        (1, 2): (("Sp", 1),), (2, 1): (("Sm", 1),),
    }
    assert verify._gl_terms("sl3") == {
        (1, 1): (("H1", 2 * third), ("H2", third)),
        (2, 2): (("H1", -third), ("H2", third)),
        (3, 3): (("H1", -third), ("H2", -2 * third)),
        **{(a, b): ((f"T{a}{b}", 1),) for a in (1, 2, 3) for b in (1, 2, 3) if a != b},
    }


def test_a_wrong_sl2_coefficient_table_fails_the_commutators(
    monkeypatch, fresh_lax_tables
):
    # S's defining matrix doubled: the structure constants and the gl(2)
    # triangle derived from the table are both wrong
    table = verify._algebra("sl2").table
    terms, parts, _ = table["S"]
    wrong = dict(table, S=(terms, parts, [[F(1), F(0)], [F(0), F(-1)]]))
    monkeypatch.setitem(
        verify._ALGEBRAS, "sl2", verify._algebra("sl2")._replace(table=wrong)
    )
    derived = (verify._structure_constants, verify._gl_terms)
    for cached in derived:
        cached.cache_clear()
    try:
        results = [
            run_check("sl2", "commutators", 4, [F(1, 3)]),
            run_check("sl2", "lax-factor", 4, [F(1, 3), F(2, 7)]),
            run_check("sl2", "casimir", 4, [F(1, 3)]),
        ]
    finally:
        for cached in derived:
            cached.cache_clear()
    for res in results:
        assert res.status == "fail" and res.witness is not None, res.name


# ---------------------------------------------------------------------------
# The oracle's exact solve at sl3 cap 3

_ORACLE_POINT = [F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(2, 3), F(1, 4)]


def _recorded_solves(monkeypatch):
    """(equations, unknowns, solutions, rows inserted) of every later
    oracle solve."""
    solves, inserted = [], [0]
    insert, solve = linop._echelon_insert, verify.int_echelon_nullspace

    def counting(row, echelon):
        inserted[0] += 1
        return insert(row, echelon)

    def recording(equations, unknowns):
        inserted[0] = 0
        sols = solve(equations, unknowns)
        solves.append((equations, unknowns, sols, inserted[0]))
        return sols

    monkeypatch.setattr(linop, "_echelon_insert", counting)
    monkeypatch.setattr(verify, "int_echelon_nullspace", recording)
    return solves


def _full_elimination_nullspace(equations, unknowns):
    """Every row reduced in Fractions against pivot rows with lead 1, then
    back-substituted once per free unknown."""
    pivots = {}
    for eq in sorted(equations, key=len):
        row = {k: F(v) for k, v in eq.items() if v}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = {k: v / row[lead] for k, v in row.items()}
                break
            c = row[lead]
            for k, v in pivots[lead].items():
                w = row.get(k, 0) - c * v
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
    sols = []
    for f in (u for u in unknowns if u not in pivots):
        x = {f: F(1)}
        for lead in sorted(pivots, reverse=True):
            s = sum(v * x.get(k, 0) for k, v in pivots[lead].items() if k != lead)
            if s:
                x[lead] = -s
        sols.append(x)
    return sols


@pytest.mark.parametrize(
    "alg, name, cap",
    [("sl3", name, 3)
     for name in ("oracle-r1", "oracle-r2", "oracle-r3", "oracle-r3-single")]
    + [("sl2", "oracle-r1", 8), ("sl2", "oracle-r2", 8)],
)
def test_the_oracle_solve_stops_reducing_at_a_one_line_kernel(
    monkeypatch, alg, name, cap
):
    solves = _recorded_solves(monkeypatch)
    draws = _ORACLE_POINT[: verify.CATALOG[alg, name][1]]
    assert run_check(alg, name, cap, draws).status == "pass"
    ((eqs, unknowns, sols, inserted),) = solves
    assert inserted < sum(1 for eq in eqs if any(eq.values()))
    assert sols == _full_elimination_nullspace(eqs, unknowns)


@pytest.mark.parametrize(
    "name", ["oracle-r1", "oracle-r2", "oracle-r3", "oracle-r3-single"]
)
def test_the_oracle_hands_the_solver_nonempty_rows_of_nonzero_ints(monkeypatch, name):
    solves = _recorded_solves(monkeypatch)
    assert run_check("sl3", name, 3, _ORACLE_POINT).status == "pass"
    ((eqs, *_),) = solves
    assert eqs
    for eq in eqs:
        assert eq and all(type(v) is int and v for v in eq.values())


def _oracle_r1_system(monkeypatch):
    """(pair, labelled pairs, closed form) of sl3 oracle-r1 at
    _ORACLE_POINT."""
    calls = []
    check = verify._oracle_check
    monkeypatch.setattr(
        verify, "_oracle_check", lambda *args: calls.append(args) or check(*args)
    )
    assert run_check("sl3", "oracle-r1", 3, _ORACLE_POINT).status == "pass"
    (system,) = calls
    return system


def test_a_contradictory_constraint_empties_the_oracle_nullspace_early(monkeypatch):
    pair, pairs, closed = _oracle_r1_system(monkeypatch)
    one = identity_op(pair)
    solves = _recorded_solves(monkeypatch)
    with pytest.raises(CheckFailed) as failed:
        verify._oracle_check(pair, pairs + [("2", one, op_scale(one, F(2)))], closed)
    assert failed.value.args == (3, ("nullspace", "empty"))
    ((eqs, _, sols, inserted),) = solves
    assert sols == [] and inserted < sum(1 for eq in eqs if any(eq.values()))


# ---------------------------------------------------------------------------
# Oracle checks from the catalog at frozen points

def test_catalog_oracles_rederive_the_closed_forms():
    point2 = [F(1), F(1, 2), F(1, 3), F(-1, 4)]
    for name in ("oracle-r1", "oracle-r2"):
        res = run_check("sl2", name, 4, point2)
        assert res.status == "pass" and res.scalar is not None
    point3 = [F(1, 2), F(1, 3), F(0), F(1, 5), F(1, 7), F(2, 3)]
    res = run_check("sl3", "oracle-r3-single", 3, point3)
    assert res.status == "pass" and res.window == 3


def _r3_single_constraints_reference(basis, u1, u2, u3, v3):
    """oracle-r3-single's constraint pairs tabulated from their full term
    lists."""

    def op(*terms):
        return tabulate(basis, *terms)

    dx = op((1, None, {"x": 1}))

    def raise_z(c0):
        return op((1, {"y": 1}, {"x": 1}), (1, {"z": 2}, {"z": 1}), (c0, {"z": 1}))

    cross = op(
        (1, {"x": 2}, {"x": 1}),
        (1, {"x": 1, "y": 1}, {"y": 1}),
        (-1, {"x": 1, "z": 1}, {"z": 1}),
        (-1, {"y": 1}, {"z": 1}),
        (u1 - u2 + 1, {"x": 1}),
    )

    def raise_y(cz, cy):
        return op(
            (1, {"x": 1, "y": 1}, {"x": 1}),
            (1, {"x": 1, "z": 2}, {"z": 1}),
            (cz, {"x": 1, "z": 1}),
            (1, {"y": 2}, {"y": 1}),
            (1, {"y": 1, "z": 1}, {"z": 1}),
            (cy, {"y": 1}),
        )

    return [
        (dx, dx),
        (raise_z(u2 - u3 + 1), raise_z(u2 - v3 + 1)),
        (cross, cross),
        (raise_y(u2 - u3 + 1, u1 - u3 + 2), raise_y(u2 - v3 + 1, u1 - v3 + 2)),
    ]


def test_the_r3_single_constraints_match_the_full_term_lists():
    points = [
        (F(1, 2), F(1, 3), F(2), F(-1, 5)),
        (F(-2, 3), F(1, 3), F(1, 2), F(1, 7)),  # n = -(u1 - u2 + 1) = 0
        (F(1, 5), F(1, 2), F(3, 2), F(2, 9)),  # m = -(u2 - u3 + 1) = 0
        (F(1, 5), F(3, 7), F(11, 5), F(1, 3)),  # m + n = -(u1 - u3 + 2) = 0
        (F(1, 4), F(1, 3), F(2, 5), F(4, 3)),  # u2 - v3 + 1 = 0
        (F(1, 4), F(1, 3), F(2, 5), F(9, 4)),  # u1 - v3 + 2 = 0
    ]
    basis = sl3_site(3)
    # every point is built before any is compared, so a later call that
    # changed an earlier result through the shared cache would show
    built = [(pt, verify._sl3_r3_single_constraints(basis, *pt)) for pt in points]
    for pt, got in built:
        want = _r3_single_constraints_reference(basis, *pt)
        assert len(got) == len(want)
        # the constraints are the generators T21, T23, T12, T13; the
        # reference lists are T21 and the negatives of the other three
        assert [name for name, _, _ in got] == ["T21", "T23", "T12", "T13"]
        for (name, A, B), w, sign in zip(got, want, (1, -1, -1, -1)):
            assert_same_op(op_scale(A, sign), w[0], (pt, name, "A"))
            assert_same_op(op_scale(B, sign), w[1], (pt, name, "B"))


def test_a_second_oracle_r3_single_point_tabulates_no_column(monkeypatch):
    cols = tabulated_columns(monkeypatch)
    points = (
        [F(1, 2), F(1, 3), F(0), F(1, 5), F(1, 7), F(2, 3)],
        [F(2, 3), F(1, 5), F(1, 4), F(3, 7), F(1, 2), F(-1, 3)],
    )
    first = run_check("sl3", "oracle-r3-single", 3, points[0])
    cols.clear()
    second = run_check("sl3", "oracle-r3-single", 3, points[1])
    assert first.status == second.status == "pass"
    assert sum(cols) == 0


def _build_and_drop_rows(pairs, basis):
    """Reference assembly of the oracle's equations: every row of every pair
    built, each side made whole first, the empty ones dropped. X[r, c] is
    keyed by r * n + c."""
    charges = charge_vectors(basis)
    blocks = {}
    for i, q in enumerate(charges):
        blocks.setdefault(q, []).append(i)
    n = len(basis)
    equations = []
    for _, A, B in pairs:
        A, B = whole_block(A), whole_block(B)
        top = min(A.certified, B.certified, basis.cap - max(0, A.shift))
        for m in range(n):
            if basis.heights[m] > top:
                continue
            rows = {}
            for c, a in A.cols.get(m, {}).items():
                for r in blocks[charges[c]]:
                    rows.setdefault(r, {})[r * n + c] = a * B.den
            for rp in blocks[charges[m]]:
                for r, b in B.cols.get(rp, {}).items():
                    acc = rows.setdefault(r, {})
                    k = rp * n + m
                    acc[k] = acc.get(k, 0) - b * A.den
                    if not acc[k]:
                        del acc[k]
            equations.extend(row for row in rows.values() if row)
    return equations


def _oracle_equations(monkeypatch, pairs, basis):
    """The equation list intertwiner_oracle hands its solver (not solved)."""
    handed = []
    monkeypatch.setattr(
        verify, "int_echelon_nullspace", lambda eqs, unknowns: handed.append(eqs) or []
    )
    intertwiner_oracle(pairs, basis)
    (eqs,) = handed
    return eqs


def test_vacuous_constraint_pairs_add_no_equations(monkeypatch):
    pair, pairs, _ = _oracle_r1_system(monkeypatch)
    charges = charge_vectors(pair)
    eqs = _oracle_equations(monkeypatch, pairs, pair)
    assert eqs == _build_and_drop_rows(pairs, pair)
    # the three diagonal Lax blocks of L1 + L2 and L1' + L2' say nothing
    lax_rows = [bool(_build_and_drop_rows([ab], pair)) for ab in pairs[:9]]
    assert lax_rows == [i != j for i in range(3) for j in range(3)]

    def diagonal(value):
        cols = {m: {m: value(m)} for m in range(len(pair)) if value(m)}
        return rational_op(pair, cols, 0, pair.cap)

    one = identity_op(pair)
    by_block = diagonal(lambda m: F(charges[m][0] - 3 * charges[m][1], 5))
    assert by_block.cols.keys() != set(range(len(pair)))  # a zero block too
    more = pairs + [("1", one, one), ("by block", by_block, by_block)]
    assert _oracle_equations(monkeypatch, more, pair) == eqs
    by_monomial = diagonal(lambda m: F(m + 1))
    more = pairs + [("by monomial", by_monomial, by_monomial)]
    longer = _oracle_equations(monkeypatch, more, pair)
    assert longer[: len(eqs)] == eqs and len(longer) > len(eqs)
    assert longer == _build_and_drop_rows(more, pair)
