"""sl(3): generators, Casimirs, finite modules, Lax factorization, R-operators.

Scalar frozen values (parameter triples, Casimir eigenvalues) were computed by
hand from the closed forms. Frozen operator columns are regression anchors:
each is guarded by an identity checked in the same file (weight-shift
intertwining, defining relations), so a wrong anchor cannot pass the suite.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfactor.polyspace import (
    CapTooLarge,
    VarSpec,
    comb_mul,
    comb_pow,
    enumerate_basis,
)
from rfactor.linop import (
    LaxOp,
    _echelon_insert,
    compose,
    diffop,
    generators,
    identity_op,
    int_row,
    is_zero,
    lax_from_gl,
    mat_inv,
    op_add,
    op_scalar_part,
    op_scale,
    pair_swap,
    run_pipeline,
    subst_op,
    zero_op,
)
from rfactor.sl3core import (
    _laurent_flow,
    _sl3_r1_stages,
    _sl3_r2_stages,
    _sl3_r3_stages,
    SL3_GENERATORS,
    sl3_casimirs,
    sl3_findim_dim,
    sl3_findim_module,
    sl3_invariance_matrix,
    sl3_lax,
    sl3_lax_factored,
    sl3_pair,
    sl3_shift_flows,
    sl3_site,
    sl3_slots,
    sl3_weights,
)
from rfactor import verify
from rfactor.verify import CheckFailed, _swap
from termlists import (
    apply_vec,
    assert_same_op,
    commutator,
    factor,
    lax_from_matrix,
    lax_mul,
    stage_euler,
    tabulate,
    tabulated_columns,
    whole_block,
)

# the weight (m, n) and spectral parameter u of each site
P1 = (F(1, 2), F(1, 3), F(2))
P2 = (F(1, 5), F(2, 7), F(0))


def _idx(basis, **exps):
    return basis.index[tuple(exps.get(v.name, 0) for v in basis.vars)]


def vec_series_exp(op, lam, vec, max_terms=200):
    """exp(lam*op) applied to an index-keyed vector, requiring termination."""
    acc = dict(vec)
    cur = dict(vec)
    for k in range(1, max_terms + 1):
        cur = apply_vec(op, cur)
        if not cur:
            return acc
        cur = {i: c * lam / k for i, c in cur.items()}
        for i, c in cur.items():
            w = acc.get(i, F(0)) + c
            if w:
                acc[i] = w
            else:
                acc.pop(i, None)
    raise ValueError("exponential series did not terminate")


@lru_cache(maxsize=None)
def _pair(cap):
    return sl3_pair(cap)


def _rhat(pair, p1, p2, word=(3, 2, 1), mutate=None):
    """The swap of the factors of `word`, the full swap by default."""
    return _swap("sl3", pair, sl3_slots(*p1), sl3_slots(*p2), word, mutate)[0]


@lru_cache(maxsize=None)
def _factors(cap):
    pair = _pair(cap)
    u1, u2, u3 = sl3_slots(*P1)
    v1, v2, v3 = sl3_slots(*P2)
    r1 = factor("sl3", 1, pair, u1, v1, v2, v3)
    r2 = factor("sl3", 2, pair, u1, u2, v2, v3)
    r3 = factor("sl3", 3, pair, u1, u2, u3, v3)
    return r1, r2, r3


@lru_cache(maxsize=None)
def _lax_pair_product(cap, t1, t2):
    pair = _pair(cap)
    return lax_mul(
        sl3_lax(pair, t1[0], t1[1], t1[2], "1"),
        sl3_lax(pair, t2[0], t2[1], t2[2], "2"),
    )


def _defining_residual(cap, R, t1, t2, q1, q2):
    """R . L1(t1) L2(t2) - L1(q1) L2(q2) . R on window cap - 2: (True, None),
    or (False, the block witness) where it fails."""
    P = _lax_pair_product(cap, t1, t2)
    Q = _lax_pair_product(cap, q1, q2)
    try:
        verify._intertwines(R, verify._blocks(P, Q), cap - 2)
    except CheckFailed as e:
        return False, e.witness
    return True, None


def test_parameter_triple_frozen():
    m, n, u = F(2, 3), F(1, 5), F(7, 11)
    p = sl3_slots(m, n, u)
    assert p == (F(-851, 495), F(-257, 495), F(568, 495))
    assert sum(p) == 3 * u - 3
    q = sl3_slots(F(1), F(0), F(1))
    assert q == (F(-4, 3), F(-1, 3), F(5, 3))
    # weights recovered from differences
    assert q[2] - q[1] - 1 == F(1) and q[1] - q[0] - 1 == F(0)
    assert p[2] - p[1] - 1 == m and p[1] - p[0] - 1 == n


def test_generator_actions_frozen():
    b = sl3_site(4)
    m, n = F(1, 2), F(1, 3)
    g = generators(b, SL3_GENERATORS, (m, n))
    one = _idx(b)
    assert g["T23"].col(one) == {_idx(b, z=1): m}
    assert g["T12"].col(one) == {_idx(b, x=1): n}
    assert g["T13"].col(one) == {_idx(b, y=1): m + n, _idx(b, x=1, z=1): m}
    assert g["H1"].col(one) == {one: -n}
    assert g["H2"].col(one) == {one: -m}
    assert g["T21"].col(_idx(b, x=1)) == {one: F(1)}
    assert g["T31"].col(_idx(b, y=1)) == {one: F(1)}
    assert g["T32"].col(_idx(b, y=1)) == {_idx(b, x=1): F(-1)}
    assert g["T32"].col(_idx(b, z=1)) == {one: F(1)}


_GL_POINTS = {
    "sl2": ((F(1),), (F(2, 3),), (F(-3, 4),)),
    "sl3": ((F(1), F(0)), (F(2, 3), F(1, 5)), (F(-3, 4), F(5, 2))),
}


@pytest.mark.parametrize("alg", ["sl2", "sl3"])
def test_gl_commutation_relations(alg):
    # [T_ab, T_cd] = delta_bc T_ad - delta_da T_cb for the triangle derived
    # from the generator table
    b = verify._algebra(alg).site(5)
    for weights in _GL_POINTS[alg]:
        T = verify._gl(alg, b, weights)
        rng = range(1, max(a for a, _ in T) + 1)
        for a in rng:
            for bb in rng:
                for c in rng:
                    for d in rng:
                        lhs = commutator(T[a, bb], T[c, d])
                        rhs = None
                        if bb == c:
                            rhs = T[a, d]
                        if d == a:
                            t = op_scale(T[c, bb], F(-1))
                            rhs = t if rhs is None else op_add(rhs, t)
                        res = lhs if rhs is None else op_add(lhs, rhs, -1)
                        w = res.certified
                        assert w >= 1
                        ok, wit = is_zero(res, w)
                        assert ok, ((a, bb, c, d), wit)


def test_casimirs_scalar_and_cross_cap_stable():
    m, n = F(2, 3), F(1, 5)
    for cap in (3, 4):
        b = sl3_site(cap)
        (_, C2, _), (_, C3, _) = sl3_casimirs(verify._gl("sl3", b, (m, n)), m, n)
        s2, s3 = op_scalar_part(C2), op_scalar_part(C3)
        assert s2 == F(1448, 675)
        assert s3 == F(126776, 30375)
        one = identity_op(b)
        ok, wit = is_zero(op_add(C2, op_scale(one, s2), -1), min(C2.certified, cap - 2))
        assert ok, wit
        ok, wit = is_zero(op_add(C3, op_scale(one, s3), -1), min(C3.certified, cap - 2))
        assert ok, wit


def test_quadratic_casimir_closed_form():
    # C2 . 1 = sum(lam_a^2) + 2 (m + n) with lam the diagonal weights of 1
    b = sl3_site(3)
    for m, n in ((F(1, 2), F(1, 3)), (F(-2, 7), F(3)), (F(0), F(1))):
        lam = (-(m + 2 * n) / 3, (n - m) / 3, (n + 2 * m) / 3)
        (tag, C2, expected), _ = sl3_casimirs(verify._gl("sl3", b, (m, n)), m, n)
        assert tag == "C2"
        assert op_scalar_part(C2) == expected == sum(t * t for t in lam) + 2 * (m + n)


def test_fundamental_representation_correspondence():
    # weight (1, 0): the module span {y + x z, z, 1} carries T_ab -> E_ab
    b = sl3_site(4)
    g = generators(b, SL3_GENERATORS, (F(1), F(0)))
    e = [
        {_idx(b, y=1): F(1), _idx(b, x=1, z=1): F(1)},
        {_idx(b, z=1): F(1)},
        {_idx(b): F(1)},
    ]
    mats = {name: M for name, (_, _, M) in SL3_GENERATORS.items()}
    for name in SL3_GENERATORS:
        M = mats[name]
        for j in range(3):
            got = apply_vec(g[name], e[j])
            want = {}
            for i in range(3):
                if M[i][j]:
                    for k, c in e[i].items():
                        want[k] = want.get(k, F(0)) + M[i][j] * c
            assert got == {k: c for k, c in want.items() if c}, (name, j)
    # weight (0, 1): span {1, -x, -y} carries the dual T_ab -> -E_ba
    g = generators(b, SL3_GENERATORS, (F(0), F(1)))
    e = [{_idx(b): F(1)}, {_idx(b, x=1): F(-1)}, {_idx(b, y=1): F(-1)}]
    mats = {
        name: [[-M[j][i] for j in range(3)] for i in range(3)]
        for name, (_, _, M) in SL3_GENERATORS.items()
    }
    for name in SL3_GENERATORS:
        M = mats[name]
        for j in range(3):
            got = apply_vec(g[name], e[j])
            want = {}
            for i in range(3):
                if M[i][j]:
                    for k, c in e[i].items():
                        want[k] = want.get(k, F(0)) + M[i][j] * c
            assert got == {k: c for k, c in want.items() if c}, (name, j)


def test_findim_dimensions():
    expected = {
        (1, 0): 3,
        (0, 1): 3,
        (1, 1): 8,
        (2, 0): 6,
        (0, 2): 6,
        (2, 1): 15,
    }
    for (M, N), dim in expected.items():
        basis, vectors = sl3_findim_module(M, N)
        assert sl3_findim_dim(M, N) == dim
        assert len(vectors) == dim, (M, N)
        # independent, and closed under every generator
        gens = generators(basis, SL3_GENERATORS, (F(M), F(N)))
        echelon = {}
        for v in vectors:
            _echelon_insert(int_row(v), echelon)
        assert len(echelon) == dim
        for v in vectors:
            for op in gens.values():
                _echelon_insert(int_row(apply_vec(op, v)), echelon)
                assert len(echelon) == dim, (M, N)


def test_findim_tabulates_nothing_and_grows_the_tabulated_generators_module():
    shapes = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]
    diffop.cache_clear()  # so that a tabulation shows as a miss
    before = diffop.cache_info()
    grown = {(M, N): sl3_findim_module(M, N) for M, N in shapes}
    after = diffop.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)
    # the echelon rows, in order, of growing the module with the tabulated
    # generators
    for (M, N), (basis, vectors) in grown.items():
        gens = generators(basis, SL3_GENERATORS, (F(M), F(N)))
        echelon = {0: {0: 1}}
        frontier = [{0: 1}]
        while frontier:
            new = []
            for vec in frontier:
                for op in gens.values():
                    w = apply_vec(op, vec)
                    rank = len(echelon)
                    _echelon_insert(int_row(w), echelon)
                    if len(echelon) > rank:
                        new.append(w)
            frontier = new
        assert vectors == list(echelon.values()), (M, N)


def test_findim_variable_support():
    # weight (M, 0): after y -> y - x z every module vector is x-free
    basis, vectors = sl3_findim_module(2, 0)
    names = [v.name for v in basis.vars]
    rules = {
        "y": {
            tuple(1 if nm == "y" else 0 for nm in names): F(1),
            tuple(1 if nm in ("x", "z") else 0 for nm in names): F(-1),
        }
    }
    twist = subst_op(basis, rules)
    xi = names.index("x")
    for v in vectors:
        for k in apply_vec(twist, v):
            assert basis.monomials[k][xi] == 0
    # weight (0, N): module vectors are z-free as they stand
    basis, vectors = sl3_findim_module(0, 2)
    zi = [v.name for v in basis.vars].index("z")
    for v in vectors:
        for k in v:
            assert basis.monomials[k][zi] == 0


def test_raising_flow_generating_function():
    # exp(mu T12) exp(nu T23) exp(lam T13) 1
    #   = (1 + mu x + lam y)^N (1 + nu z + (lam + mu nu)(y + x z))^M
    M, N = 2, 1
    basis = sl3_site(2 * (M + N) + 2)
    g = generators(basis, SL3_GENERATORS, (F(M), F(N)))
    mu, nu, lam = F(1, 2), F(-2, 3), F(3, 5)
    v = vec_series_exp(g["T13"], lam, {_idx(basis): F(1)})
    v = vec_series_exp(g["T23"], nu, v)
    v = vec_series_exp(g["T12"], mu, v)
    names = [vv.name for vv in basis.vars]

    def mono(**e):
        return tuple(e.get(nm, 0) for nm in names)

    b1 = {mono(): F(1), mono(x=1): mu, mono(y=1): lam}
    b2 = {
        mono(): F(1),
        mono(z=1): nu,
        mono(y=1): lam + mu * nu,
        mono(x=1, z=1): lam + mu * nu,
    }
    rhs = {
        basis.index[k]: c for k, c in comb_mul(comb_pow(b1, N), comb_pow(b2, M)).items()
    }
    assert v == rhs


def test_lax_direct_equals_casimir_form_and_factored():
    cap = 4
    b = sl3_site(cap)
    m, n, u = F(2, 3), F(1, 5), F(7, 11)
    Ld = sl3_lax(b, *sl3_slots(m, n, u))
    Lc = lax_from_gl(verify._gl("sl3", b, (m, n)), u)
    assert verify._equal(verify._blocks(Ld, Lc), cap - 2) == cap - 2
    # the factorization as a formula, L = M U M^-1, each factor tabulated
    # from its full term list; the builder's factors satisfy L M = M U
    M_left, U, M_right = _factors_reference(b, *sl3_slots(m, n, u))
    # associated as M (U M^-1), every block is certified to cap - 2 (the
    # other association loses two more heights on block (2,0))
    Lf = lax_mul(M_left, lax_mul(U, M_right))
    assert verify._equal(verify._blocks(Ld, Lf), cap - 2) == cap - 2
    M, U = sl3_lax_factored(b, *sl3_slots(m, n, u))
    LM, MU = lax_mul(Ld, M), lax_mul(M, U)
    assert verify._equal(verify._blocks(LM, MU), cap - 2) == cap - 2


def test_lax_band_structure():
    b = sl3_site(4)
    L = sl3_lax(b, F(1, 2), F(1, 3), F(1, 5))
    shift = [[whole_block(blk).shift for blk in row] for row in L.blocks]
    assert shift[0][1] == -1  # d/dx
    assert shift[0][2] == -2  # d/dy
    assert shift[1][0] == 1
    assert shift[2][0] == 2
    for i in range(3):
        assert shift[i][i] <= 0


def _lax_reference(basis, u1, u2, u3, suffix=""):
    """The nine direct Lax blocks tabulated from their full term lists."""
    x, y, z = "x" + suffix, "y" + suffix, "z" + suffix

    def op(*terms):
        return tabulate(basis, *terms)

    return [
        [
            op((1, {x: 1}, {x: 1}), (1, {y: 1}, {y: 1}), (u1 + 2,)),
            op((1, None, {x: 1})),
            op((1, None, {y: 1})),
        ],
        [
            op(
                (-1, {x: 2}, {x: 1}),
                (-1, {x: 1, y: 1}, {y: 1}),
                (1, {x: 1, z: 1}, {z: 1}),
                (1, {y: 1}, {z: 1}),
                (u2 - u1 - 1, {x: 1}),
            ),
            op((-1, {x: 1}, {x: 1}), (1, {z: 1}, {z: 1}), (u2 + 1,)),
            op((1, None, {z: 1}), (-1, {x: 1}, {y: 1})),
        ],
        [
            op(
                (-1, {x: 1, y: 1}, {x: 1}),
                (-1, {y: 2}, {y: 1}),
                (-1, {x: 1, z: 2}, {z: 1}),
                (-1, {y: 1, z: 1}, {z: 1}),
                (u3 - u2 - 1, {x: 1, z: 1}),
                (u3 - u1 - 2, {y: 1}),
            ),
            op((-1, {y: 1}, {x: 1}), (-1, {z: 2}, {z: 1}), (u3 - u2 - 1, {z: 1})),
            op((-1, {y: 1}, {y: 1}), (-1, {z: 1}, {z: 1}), (u3,)),
        ],
    ]


def _generators_reference(basis, m, n):
    """The eight generators tabulated from their full term lists."""
    x, y, z = "x", "y", "z"

    def op(*terms):
        return tabulate(basis, *terms)

    return {
        "T21": op((1, None, {x: 1})),
        "T31": op((1, None, {y: 1})),
        "T32": op((1, None, {z: 1}), (-1, {x: 1}, {y: 1})),
        "T12": op(
            (-1, {x: 2}, {x: 1}),
            (-1, {x: 1, y: 1}, {y: 1}),
            (1, {x: 1, z: 1}, {z: 1}),
            (1, {y: 1}, {z: 1}),
            (n, {x: 1}),
        ),
        "T23": op((-1, {z: 2}, {z: 1}), (-1, {y: 1}, {x: 1}), (m, {z: 1})),
        "T13": op(
            (-1, {y: 2}, {y: 1}),
            (-1, {x: 1, y: 1}, {x: 1}),
            (-1, {y: 1, z: 1}, {z: 1}),
            (-1, {x: 1, z: 2}, {z: 1}),
            (m + n, {y: 1}),
            (m, {x: 1, z: 1}),
        ),
        "H1": op((2, {x: 1}, {x: 1}), (1, {y: 1}, {y: 1}), (-1, {z: 1}, {z: 1}), (-n,)),
        "H2": op((2, {z: 1}, {z: 1}), (1, {y: 1}, {y: 1}), (-1, {x: 1}, {x: 1}), (-m,)),
    }


def _factors_reference(basis, u1, u2, u3):
    """The triangular factors M, U and M^-1 of L = M U M^-1, every block
    tabulated from its full term list."""
    x, y, z = "x", "y", "z"

    def op(*terms):
        return tabulate(basis, *terms)

    one, zero = op((1,)), zero_op(basis)
    M_left = LaxOp(
        [
            [one, zero, zero],
            [op((-1, {x: 1})), one, zero],
            [op((-1, {y: 1})), op((-1, {z: 1})), one],
        ]
    )
    U = LaxOp(
        [
            [
                op((u1,)),
                op((1, None, {x: 1}), (-1, {z: 1}, {y: 1})),
                op((1, None, {y: 1})),
            ],
            [zero, op((u2,)), op((1, None, {z: 1}))],
            [zero, zero, op((u3,))],
        ]
    )
    M_right = LaxOp(
        [
            [one, zero, zero],
            [op((1, {x: 1})), one, zero],
            [op((1, {y: 1}), (1, {x: 1, z: 1})), op((1, {z: 1})), one],
        ]
    )
    return M_left, U, M_right


def test_lax_matches_the_full_term_lists_at_every_point():
    points = [
        sl3_slots(*P1),
        sl3_slots(F(1, 2), F(0), F(1, 3)),  # n = u2 - u1 - 1 = 0
        sl3_slots(F(0), F(1, 5), F(2, 7)),  # m = u3 - u2 - 1 = 0
        sl3_slots(F(2, 5), F(-2, 5), F(1, 3)),  # m + n = 0
        (F(-2), F(1, 3), F(0)),  # u1 + 2 = 0 and u3 = 0
        (F(0), F(-1), F(2)),  # u2 + 1 = 0, u3 - u1 - 2 = 0 and u1 = 0
        (F(1, 4), F(0), F(3, 5)),  # u2 = 0
    ]
    site, pair = sl3_site(4), sl3_pair(3)
    cases = [(site, ""), (pair, "1"), (pair, "2")]
    # every point is built before any is compared, so a later call that
    # changed an earlier result through the shared cache would show; the
    # factored Lax matrix takes no site label and is built on the one-site
    # basis only
    built = []
    for basis, sfx in cases:
        for pt in points:
            m, n = pt[2] - pt[1] - 1, pt[1] - pt[0] - 1
            built.append(
                (
                    basis, sfx, pt, (m, n),
                    sl3_lax(basis, *pt, sfx),
                    generators(basis, SL3_GENERATORS, (m, n)) if not sfx else None,
                )
            )
    factored = [(pt, sl3_lax_factored(site, *pt)) for pt in points]
    for basis, sfx, pt, weights, L, g in built:
        for i, row in enumerate(_lax_reference(basis, *pt, sfx)):
            for j, want in enumerate(row):
                assert_same_op(whole_block(L.blocks[i][j]), want, (sfx, pt, i, j))
        if g is None:  # the generators are compared on the one-site basis
            continue
        for name, want in _generators_reference(basis, *weights).items():
            assert_same_op(g[name], want, (name, sfx, pt))
    for pt, factors in factored:
        for tag, got, ref in zip("MU", factors, _factors_reference(site, *pt)):
            for i, row in enumerate(ref.blocks):
                for j, want in enumerate(row):
                    got_ij = whole_block(got.blocks[i][j])
                    assert_same_op(got_ij, want, ("factored", tag, pt, i, j))


def test_second_lax_on_a_basis_tabulates_nothing(monkeypatch):
    # nor do the factored Lax matrix, the generators, the gl triangle and
    # the Casimirs: every term list they need was tabulated at the first
    tabulated = tabulated_columns(monkeypatch)
    # a basis not yet seen by any cache
    basis = enumerate_basis([VarSpec("x", 1), VarSpec("y", 2), VarSpec("z", 1)], 4)

    def build(p):
        m, n, _ = p
        sl3_lax(basis, *sl3_slots(*p))
        sl3_lax_factored(basis, *sl3_slots(*p))
        generators(basis, SL3_GENERATORS, (m, n))
        verify._gl("sl3", basis, (m, n))
        sl3_casimirs(verify._gl("sl3", basis, (m, n)), m, n)

    build(P1)
    assert sum(tabulated) > 0
    tabulated.clear()
    build(P2)
    assert sum(tabulated) == 0


def test_shift_flow_inverse_and_lax_invariance():
    cap = 4
    b = sl3_site(cap)
    a_, b_, c_ = F(1, 2), F(-2, 5), F(3, 4)
    S, Sinv = sl3_shift_flows(b, a_, b_, c_)
    w = min(S.certified, Sinv.certified)
    ok, wit = is_zero(op_add(compose(S, Sinv), identity_op(b), -1), w)
    assert ok, wit
    ok, wit = is_zero(op_add(compose(Sinv, S), identity_op(b), -1), w)
    assert ok, wit
    L = sl3_lax(b, *sl3_slots(F(2, 3), F(1, 5), F(7, 11)))
    M = sl3_invariance_matrix(a_, b_, c_)
    lhs = lax_mul(lax_from_matrix(b, mat_inv(M)), lax_mul(L, lax_from_matrix(b, M)))
    # lhs = Sinv L S on the module side, that is S lhs = L S
    verify._intertwines(S, verify._blocks(lhs, L), cap - 2)


@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize(
    "stages", [_sl3_r1_stages, _sl3_r2_stages, _sl3_r3_stages], ids=["s1", "s2", "s3"]
)
def test_each_frame_change_is_undone_by_its_inverse(stages, cap):
    pair = sl3_pair(cap)
    # every stage list opens with its translation and closes with the inverse
    fwd, *_, inv = stages(pair)
    for first, second in ((fwd, inv), (inv, fwd)):
        op = run_pipeline(pair, [first, second])
        ok, wit = is_zero(op_add(op, identity_op(pair), -1), pair.cap)
        assert ok, wit


_RATS = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(_RATS, _RATS, _RATS)
def test_the_weight_map_inverts_the_parameter_triple(m, n, u):
    assert sl3_weights(*sl3_slots(m, n, u)) == (m, n)


def test_r_factors_fix_vacuum_and_frozen_columns():
    pair = _pair(3)
    r1, r2, r3 = _factors(3)
    vac = _idx(pair)
    for r in (r1, r2, r3):
        assert r.col(vac) == {vac: F(1)}
        assert r.shift == 0
    assert r1.col(_idx(pair, x2=1)) == {
        _idx(pair, x2=1): F(-997, 180),
        _idx(pair, x1=1): F(1177, 180),
    }
    assert r1.col(_idx(pair, y2=1)) == {
        _idx(pair, x2=1, z2=1): F(8239, 9360),
        _idx(pair, y2=1): F(-969, 208),
        _idx(pair, x1=1, z2=1): F(-8239, 9360),
        _idx(pair, y1=1): F(1177, 208),
    }
    assert r2.col(_idx(pair, y1=1)) == {
        _idx(pair, z1=1, x2=1): F(-1207, 210),
        _idx(pair, x1=1, z1=1): F(1207, 210),
        _idx(pair, y1=1): F(1),
    }
    assert r3.col(_idx(pair, y1=1)) == {
        _idx(pair, x2=1, z2=1): F(1396, 1155),
        _idx(pair, y2=1): F(1396, 1155),
        _idx(pair, x1=1, z2=1): F(-1396, 1155),
        _idx(pair, y1=1): F(-241, 1155),
    }


def test_defining_relation_each_factor():
    cap = 3
    u1, u2, u3 = sl3_slots(*P1)
    v1, v2, v3 = sl3_slots(*P2)
    r1, r2, r3 = _factors(cap)
    t, q = (u1, u2, u3), (v1, v2, v3)
    ok, wit = _defining_residual(cap, r1, t, q, (v1, u2, u3), (u1, v2, v3))
    assert ok, wit
    ok, wit = _defining_residual(cap, r2, t, q, (u1, v2, u3), (v1, u2, v3))
    assert ok, wit
    ok, wit = _defining_residual(cap, r3, t, q, (u1, u2, v3), (v1, v2, u3))
    assert ok, wit


def test_factor_side_relations():
    pair = _pair(3)
    r1, r2, r3 = _factors(3)

    def commutes(R, op):
        res = commutator(R, op)
        w = min(res.certified, 3 - max(0, op.shift))
        return is_zero(res, w)

    # first factor: site-1 multiplications and one mixed derivative
    for terms in ([(1, {"x1": 1})], [(1, {"y1": 1})], [(1, {"z1": 1})]):
        ok, wit = commutes(r1, tabulate(pair, *terms))
        assert ok, wit
    side = tabulate(
        pair,
        (1, None, {"z2": 1}),
        (-1, {"x2": 1}, {"y2": 1}),
        (1, {"x1": 1}, {"y2": 1}),
    )
    ok, wit = commutes(r1, side)
    assert ok, wit
    # second factor
    for terms in (
        [(1, {"y1": 1}), (1, {"x1": 1, "z1": 1})],
        [(1, {"z1": 1})],
        [(1, {"x2": 1})],
        [(1, {"y2": 1})],
    ):
        ok, wit = commutes(r2, tabulate(pair, *terms))
        assert ok, wit
    # third factor
    for terms in ([(1, {"x2": 1})], [(1, {"y2": 1})], [(1, {"z2": 1})]):
        ok, wit = commutes(r3, tabulate(pair, *terms))
        assert ok, wit
    side = tabulate(pair, (1, None, {"x1": 1}), (-1, {"z2": 1}, {"y1": 1}))
    ok, wit = commutes(r3, side)
    assert ok, wit


def test_factorization_order_independence():
    pair = _pair(3)
    A1 = _rhat(pair, P1, P2)
    A2 = _rhat(pair, P1, P2, (1, 2, 3))
    w = min(A1.certified, A2.certified)
    assert w == 3
    ok, wit = is_zero(op_add(A1, A2, -1), w)
    assert ok, wit


def test_full_defining_relation_and_permuted_form():
    cap = 3
    pair = _pair(cap)
    t, q = sl3_slots(*P1), sl3_slots(*P2)
    A = _rhat(pair, P1, P2)
    ok, wit = _defining_residual(cap, A, t, q, q, t)
    assert ok, wit
    # R = P . Rhat intertwines with the site-swapped product
    R = compose(pair_swap(pair), _rhat(pair, P1, P2))
    Pd = _lax_pair_product(cap, t, q)
    Qd = lax_mul(
        sl3_lax(pair, q[0], q[1], q[2], "2"),
        sl3_lax(pair, t[0], t[1], t[2], "1"),
    )
    verify._intertwines(R, verify._blocks(Pd, Qd), cap - 2)


def _total_generators(pair, t1, t2):
    """{name: generator on site 1 at the weights of t1 plus the same on site 2
    at those of t2}, from the generator table with its variables renamed to
    each site's."""

    def on_site(sfx):
        def named(vs):
            return tuple(v + sfx for v in vs)

        return {
            name: (
                tuple((c, named(mu), named(de)) for c, mu, de in free),
                tuple((c, named(mu)) for c, mu in parts),
                M,
            )
            for name, (free, parts, M) in SL3_GENERATORS.items()
        }

    g1 = generators(pair, on_site("1"), sl3_weights(*t1))
    g2 = generators(pair, on_site("2"), sl3_weights(*t2))
    return {k: op_add(g1[k], g2[k]) for k in SL3_GENERATORS}


def test_weight_shift_intertwining():
    pair = _pair(3)
    r1, r2, r3 = _factors(3)
    t, q = sl3_slots(*P1), sl3_slots(*P2)
    (u1, u2, u3), (v1, v2, v3) = t, q
    told = _total_generators(pair, t, q)
    # each factor carries the total generators of the weights of the slot
    # tuples it leaves on the two sites; the full swap exchanges the two site
    # weights
    for R, q1, q2 in (
        (r1, (v1, u2, u3), (u1, v2, v3)),
        (r2, (u1, v2, u3), (v1, u2, v3)),
        (r3, (u1, u2, v3), (v1, v2, u3)),
        (_rhat(pair, P1, P2), q, t),
    ):
        tnew = _total_generators(pair, q1, q2)
        pairs = [(k, told[k], tnew[k]) for k in SL3_GENERATORS]
        # a generator raising the height by 2 is exact up to cap - 2 only
        assert verify._intertwines(R, pairs) == 1


def test_inverse_is_identity():
    pair = _pair(3)
    A = _rhat(pair, P1, P2)
    B = _rhat(pair, P2, P1)
    ok, wit = is_zero(
        op_add(compose(B, A), identity_op(pair), -1), min(A.certified, B.certified)
    )
    assert ok, wit


def test_single_site_third_factor_reduction():
    site = sl3_site(3)
    u1, u2, u3 = sl3_slots(*P1)
    v3 = sl3_slots(*P2)[2]
    single = factor("sl3", "r3-single", site, u1, u2, u3, v3)
    z, y, x = map(site.var_index, "zyx")
    core = run_pipeline(
        site,
        [
            stage_euler(site, z, 1, u2 - u3 + 1),
            _laurent_flow(site, -1, num=y, den=z, target=x),
            stage_euler(site, y, u1 - v3 + 1, u1 - u3 + 1),
            _laurent_flow(site, 1, num=y, den=z, target=x),
            stage_euler(site, z, u2 - v3 + 1, 1),
        ],
    )
    w = min(single.certified, core.certified)
    ok, wit = is_zero(op_add(single, core, -1), w)
    assert ok, wit


def test_mutation_breaks_defining_relation():
    cap = 3
    pair = _pair(cap)
    u1, u2, u3 = sl3_slots(*P1)
    v1, v2, v3 = sl3_slots(*P2)
    bad = factor("sl3", 3, pair, u1, u2, u3, v3, mutate=(1, 1))
    ok, wit = _defining_residual(
        cap, bad, (u1, u2, u3), (v1, v2, v3), (u1, u2, v3), (v1, v2, u3)
    )
    assert not ok
    assert wit is not None and isinstance(wit[1], str)
    # mutating one factor inside the full swap also breaks order agreement
    A1 = _rhat(pair, P1, P2, mutate=(2, 2, 1))
    A2 = _rhat(pair, P1, P2, (1, 2, 3))
    ok, wit = is_zero(op_add(A1, A2, -1), min(A1.certified, A2.certified))
    assert not ok and wit is not None


def test_cached_bases_are_held_to_a_later_size_limit(monkeypatch):
    pair, site = sl3_pair(3), sl3_site(3, "1")  # 45 and 13 monomials
    monkeypatch.setenv("RFACTOR_SIZE_LIMIT", "44")
    with pytest.raises(CapTooLarge):
        sl3_pair(3)
    assert sl3_site(3, "1") is site
    monkeypatch.setenv("RFACTOR_SIZE_LIMIT", "12")
    with pytest.raises(CapTooLarge):
        sl3_site(3, "1")
    monkeypatch.delenv("RFACTOR_SIZE_LIMIT")
    assert sl3_pair(3) is pair
