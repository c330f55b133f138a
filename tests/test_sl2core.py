"""sl(2): generators, Casimir, Lax factorization, R-operators, spectrum.

Frozen values (Casimir scalars, raising coefficients, diagonal R-eigenvalues,
spectral ratios) were computed by hand from the defining formulas before the
implementation was written.
"""

from fractions import Fraction as F
from math import comb

import pytest

from rfactor.linop import (
    LaxOp,
    compose,
    diffop,
    generators,
    identity_op,
    int_echelon_nullspace,
    is_zero,
    lax_from_gl,
    lax_from_matrix,
    lax_mul,
    kron,
    mat_add,
    mat_eye,
    mat_mul,
    mat_sub,
    op_add,
    op_scale,
    pair_swap,
    subst_op,
    zero_op,
)
from rfactor.polyspace import CapTooLarge, VarSpec, enumerate_basis
from rfactor.sl2core import (
    SL2_GENERATORS,
    sl2_casimirs,
    sl2_lax,
    sl2_lax_factored,
    sl2_pair,
    sl2_rhat_closed,
    sl2_site,
    sl2_slots,
    sl2_spectral,
    ybe_fundamental_residual,
)
from rfactor import verify
from rfactor.verify import CheckFailed, _swap
from termlists import (
    apply_vec,
    assert_same_op,
    commutator,
    factor,
    pochhammer,
    same_op,
    tabulate,
    tabulated_columns,
    whole_block,
)

L1, L2, U, V = F(1, 3), F(2, 5), F(7, 11), F(1, 7)


def test_generator_actions_frozen():
    b = sl2_site(6)
    g = generators(b, SL2_GENERATORS, (F(1, 2),))
    # (z d/dz + 1/2) z^2 = 5/2 z^2
    assert g["S"].col(2) == {2: F(5, 2)}
    assert g["Sm"].col(3) == {2: F(-3)}
    # S+ z = z^2 dz(z) + 2*(1/2) z * z = 2 z^2
    assert g["Sp"].col(1) == {2: F(2)}
    assert g["Sm"].col(0) == {}


def test_commutation_relations():
    b = sl2_site(7)
    for ell in (F(1), F(-3, 4), F(5, 2)):
        g = generators(b, SL2_GENERATORS, (ell,))
        ok, wit = is_zero(
            op_add(commutator(g["S"], g["Sp"]), g["Sp"], -1), g["Sp"].certified
        )
        assert ok, wit
        ok, wit = is_zero(
            op_add(commutator(g["S"], g["Sm"]), op_scale(g["Sm"], F(-1)), -1), 6
        )
        assert ok, wit
        ok, wit = is_zero(
            op_add(commutator(g["Sp"], g["Sm"]), op_scale(g["S"], F(2)), -1), 6
        )
        assert ok, wit


def test_casimir_scalar_frozen():
    b = sl2_site(6)
    for ell, expected in ((F(2), F(2)), (F(1, 2), F(-1, 4)), (F(-1, 3), F(4, 9))):
        ((tag, C, s),) = sl2_casimirs(verify._gl("sl2", b, (ell,)), ell)
        assert tag == "C" and s == expected == ell * (ell - 1)
        ok, wit = is_zero(op_add(C, op_scale(identity_op(b), s), -1), C.certified)
        assert ok, wit


def _translation(basis, c):
    """The substitution z -> z + c as an operator."""
    return subst_op(basis, {"z": {(1,): F(1), (0,): F(c)}})


def test_raising_profile_generic_and_finite():
    b = sl2_site(6)
    # S+^k 1 = (2 ell)_k z^k ; at 2 ell = -2 the module truncates after z^2
    for ell in (F(1), F(-1)):
        sp = generators(b, SL2_GENERATORS, (ell,))["Sp"]
        vec = {0: F(1)}
        for k in range(7):
            c = pochhammer(2 * ell, k)
            assert vec == ({b.index[(k,)]: c} if c else {}), (ell, k)
            vec = apply_vec(sp, vec)
    assert pochhammer(F(2), 2) == 6  # the z^2 coefficient at ell = 1


def test_lowering_flow_is_substitution():
    # exp(lam S-) = exp(-lam d/dz), summed until S- kills every column
    b = sl2_site(6)
    sm = generators(b, SL2_GENERATORS, (F(1, 3),))["Sm"]
    lam = F(2, 7)
    flow = power = identity_op(b)
    for k in range(1, 7):
        power = op_scale(compose(sm, power), lam / k)
        flow = op_add(flow, power)
    assert not compose(sm, power).cols
    ok, wit = is_zero(op_add(flow, _translation(b, -lam), -1), 6)
    assert ok, wit


def test_lax_direct_equals_generator_form_and_factorization():
    b = sl2_site(6)
    ell, u = F(2, 3), F(5, 7)
    Ld = sl2_lax(b, u + ell, u - ell)
    Lg = lax_from_gl(verify._gl("sl2", b, (ell,)), u)
    # each block vanishes on its own certified window
    verify._equal(verify._blocks(Ld, Lg))
    Lf = sl2_lax_factored(b, u + ell, u - ell)
    verify._equal(verify._blocks(Ld, Lf))


def _lax_reference(basis, u1, u2, var="z"):
    """The direct Lax blocks tabulated from their full term lists."""
    z1 = {var: 1}
    return [
        [
            tabulate(basis, (u1,), (1, z1, z1)),
            tabulate(basis, (-1, None, z1)),
        ],
        [
            tabulate(basis, (1, {var: 2}, z1), (u1 - u2, z1, None)),
            tabulate(basis, (u2,), (-1, z1, z1)),
        ],
    ]


def _factored_reference(basis, u1, u2):
    """The triangular product with every factor block tabulated from its
    full term list."""
    z1 = {"z": 1}
    one, zero = tabulate(basis, (1,)), zero_op(basis)
    M_plus = LaxOp([[one, zero], [tabulate(basis, (1, z1, None)), one]])
    D = LaxOp(
        [
            [tabulate(basis, (u1 - 1,)), tabulate(basis, (-1, None, z1))],
            [zero, tabulate(basis, (u2,))],
        ]
    )
    M_minus = LaxOp([[one, zero], [tabulate(basis, (-1, z1, None)), one]])
    return lax_mul(lax_mul(M_plus, D), M_minus)


def _generators_reference(basis, ell):
    z1 = {"z": 1}
    return {
        "S": tabulate(basis, (ell,), (1, z1, z1)),
        "Sp": tabulate(basis, (1, {"z": 2}, z1), (2 * ell, z1, None)),
        "Sm": tabulate(basis, (-1, None, z1)),
    }


def test_lax_matches_the_full_term_lists_at_every_point():
    # ell = 0 (u1 = u2) makes the z coefficient u1 - u2 and the generators'
    # ell terms vanish; u1 = 0 and u2 = 0 the direct diagonal ones, u1 = 1
    # and u2 = 0 the factored ones
    points = [
        (U + L1, U - L1), (F(1, 2), F(1, 2)), (F(0), F(-3)), (F(2), F(0)),
        (F(1), F(2, 3)),
    ]
    site, pair = sl2_site(6), sl2_pair(4)
    cases = [(site, ""), (pair, "1"), (pair, "2")]
    # every point is built before any is compared, so a later call that
    # changed an earlier result through the shared cache would show; the
    # factored Lax matrix and the generators take no site label and are
    # built on the one-site basis only
    built = [
        (basis, suffix, pt, sl2_lax(basis, *pt, suffix))
        for basis, suffix in cases
        for pt in points
    ]
    one_site = [
        (
            pt,
            sl2_lax_factored(site, *pt),
            generators(site, SL2_GENERATORS, ((pt[0] - pt[1]) / 2,)),
        )
        for pt in points
    ]
    for basis, suffix, pt, L in built:
        for i, row in enumerate(_lax_reference(basis, *pt, "z" + suffix)):
            for j, want in enumerate(row):
                assert_same_op(whole_block(L.blocks[i][j]), want, (suffix, pt, i, j))
    for pt, Lf, g in one_site:
        want = _factored_reference(site, *pt)
        for i, row in enumerate(want.blocks):
            for j, w in enumerate(row):
                got = whole_block(Lf.blocks[i][j])
                assert_same_op(got, whole_block(w), ("factored", pt, i, j))
        ell = (pt[0] - pt[1]) / 2
        for name, w in _generators_reference(site, ell).items():
            assert_same_op(g[name], w, (name, pt))


def test_second_lax_on_a_basis_tabulates_nothing(monkeypatch):
    # nor do the factored Lax matrix, the generators, the gl triangle and
    # the Casimirs: every term list they need was tabulated at the first
    tabulated = tabulated_columns(monkeypatch)
    basis = enumerate_basis([VarSpec("z")], 6)  # not yet seen by any cache

    def build(u1, u2):
        ell = (u1 - u2) / 2
        sl2_lax(basis, u1, u2)
        sl2_lax_factored(basis, u1, u2)
        generators(basis, SL2_GENERATORS, (ell,))
        verify._gl("sl2", basis, (ell,))
        sl2_casimirs(verify._gl("sl2", basis, (ell,)), ell)

    build(U + L1, U - L1)
    assert sum(tabulated) > 0
    tabulated.clear()
    build(F(-1), F(4, 7))
    assert sum(tabulated) == 0


def test_lax_invariance_under_lowering_conjugation():
    b = sl2_site(6)
    ell, u, lam = F(-1, 4), F(3, 8), F(3, 5)
    L = sl2_lax(b, u + ell, u - ell)
    Mm = [[F(1), F(0)], [-lam, F(1)]]
    Mp = [[F(1), F(0)], [lam, F(1)]]
    lhs = lax_mul(lax_from_matrix(b, Mm), lax_mul(L, lax_from_matrix(b, Mp)))
    # lhs = T(-lam) L T(lam) on the module side, T(-lam) being T(lam)'s
    # inverse: T(lam) lhs = L T(lam), on every certified column
    verify._intertwines(_translation(b, lam), verify._blocks(lhs, L))


def _pair_setup(cap):
    pair = sl2_pair(cap)
    return pair, sl2_slots(L1, U), sl2_slots(L2, V)


def _rhat(pair, p1, p2, word=(2, 1)):
    """The swap of the factors of `word`, the full swap by default."""
    return _swap("sl2", pair, p1, p2, word)[0]


def _spectral(cap, l1, l2, u, v, n_max):
    """The ratios rho_{n+1} / rho_n of the eigenvalues sl2_spectral finds for
    P . Rhat at weights l1, l2 and spectral parameters u, v, and rho_0."""
    pair = sl2_pair(cap)
    R = compose(pair_swap(pair), _rhat(pair, sl2_slots(l1, u), sl2_slots(l2, v)))
    rhos = sl2_spectral((R,), l1, l2, u - v, n_max)
    return rhos[0], [b / a for a, b in zip(rhos, rhos[1:])]


def test_r1_fixes_vacuum_and_diagonal_eigenvalue():
    pair, p1, p2 = _pair_setup(4)
    (u1, _), (v1, v2) = p1, p2
    R1 = factor("sl2", 1, pair, u1, v1, v2)
    assert R1.col(0) == {0: F(1)}
    vec = {pair.index[(0, 1)]: F(1), pair.index[(1, 0)]: F(-1)}
    out = apply_vec(R1, vec)
    ratio = (u1 - v2) / (v1 - v2)
    assert out == {k: ratio * c for k, c in vec.items()}


@pytest.mark.parametrize("cap", [4, 8])
def test_the_two_factors_are_one_stage_list_with_the_sites_swapped(cap):
    """P r1(u1, v1, v2) P = r2(u1, u1 - v1 + v2, v2), entry for entry: both
    are the diagonal (u1 - v2, v1 - v2) on powers of the moved site's
    variable minus the fixed one's, and the swap P exchanges the sites."""
    pair = sl2_pair(cap)
    P = pair_swap(pair)
    points = [
        (L1 + U, L2 + V, V - L2, None),
        (F(7, 3), F(-2, 5), F(1, 4), None),
        (F(-5, 6), F(9, 4), F(-1, 3), (0, 2)),
    ]
    for u1, v1, v2, mutate in points:
        r1 = factor("sl2", 1, pair, u1, v1, v2, mutate=mutate)
        r2 = factor("sl2", 2, pair, u1, u1 - v1 + v2, v2, mutate=mutate)
        swapped = compose(P, compose(r1, P))
        assert_same_op(swapped, r2, (u1, v1, v2))
        if mutate is not None:
            plain = factor("sl2", 2, pair, u1, u1 - v1 + v2, v2)
            assert not same_op(plain, r2)


def test_defining_relation_first_factor():
    cap = 5
    pair, p1, p2 = _pair_setup(cap)
    (u1, u2), (v1, v2) = p1, p2
    R1 = factor("sl2", 1, pair, u1, v1, v2)
    P = lax_mul(sl2_lax(pair, u1, u2, "1"), sl2_lax(pair, v1, v2, "2"))
    Q = lax_mul(sl2_lax(pair, v1, u2, "1"), sl2_lax(pair, u1, v2, "2"))
    verify._intertwines(R1, verify._blocks(P, Q), cap - 2)
    # side relation: R1 commutes with multiplication by z1
    z1 = diffop(pair, (1, ("z1",), ()))
    c = commutator(R1, z1)
    ok, wit = is_zero(c, c.certified)
    assert ok, wit


def test_defining_relation_second_factor():
    cap = 5
    pair, p1, p2 = _pair_setup(cap)
    (u1, u2), (v1, v2) = p1, p2
    R2 = factor("sl2", 2, pair, u1, u2, v2)
    P = lax_mul(sl2_lax(pair, u1, u2, "1"), sl2_lax(pair, v1, v2, "2"))
    Q = lax_mul(sl2_lax(pair, u1, v2, "1"), sl2_lax(pair, v1, u2, "2"))
    verify._intertwines(R2, verify._blocks(P, Q), cap - 2)
    z2 = diffop(pair, (1, ("z2",), ()))
    c = commutator(R2, z2)
    ok, wit = is_zero(c, c.certified)
    assert ok, wit


def test_factorization_orders_agree_exactly():
    pair, p1, p2 = _pair_setup(5)
    A = _rhat(pair, p1, p2)
    B = _rhat(pair, p1, p2, (1, 2))
    assert A.col(0) == {0: F(1)} and B.col(0) == {0: F(1)}
    ok, wit = is_zero(op_add(A, B, -1), min(A.certified, B.certified))
    assert ok, wit


def test_full_defining_relation():
    cap = 5
    pair, p1, p2 = _pair_setup(cap)
    (u1, u2), (v1, v2) = p1, p2
    Rhat = _rhat(pair, p1, p2)
    P = lax_mul(sl2_lax(pair, u1, u2, "1"), sl2_lax(pair, v1, v2, "2"))
    Q = lax_mul(sl2_lax(pair, v1, v2, "1"), sl2_lax(pair, u1, u2, "2"))
    verify._intertwines(Rhat, verify._blocks(P, Q), cap - 2)


def test_rll_form_with_permutation():
    cap = 5
    pair, p1, p2 = _pair_setup(cap)
    (u1, u2), (v1, v2) = p1, p2
    R = compose(pair_swap(pair), _rhat(pair, p1, p2))
    P = lax_mul(sl2_lax(pair, u1, u2, "1"), sl2_lax(pair, v1, v2, "2"))
    Q = lax_mul(sl2_lax(pair, v1, v2, "2"), sl2_lax(pair, u1, u2, "1"))
    verify._intertwines(R, verify._blocks(P, Q), cap - 2)


def test_closed_form_two_factor_product():
    pair, p1, p2 = _pair_setup(5)
    A = _rhat(pair, p1, p2)
    CF = sl2_rhat_closed(pair, L1, L2, U - V)
    ok, wit = is_zero(op_add(A, CF, -1), min(A.certified, CF.certified))
    assert ok, wit


def test_rhat_preserves_total_degree():
    pair, p1, p2 = _pair_setup(4)
    A = _rhat(pair, p1, p2)
    deg = diffop(pair, (1, ("z1",), ("z1",)), (1, ("z2",), ("z2",)))
    ok, wit = is_zero(commutator(A, deg), A.certified)
    assert ok, wit
    z1 = diffop(pair, (1, ("z1",), ()))
    ok, _ = is_zero(commutator(A, z1), 3)
    assert not ok


def test_inverse_is_scalar():
    # after the swap, site 1 carries the (L2, V) parameters and site 2 the
    # (L1, U) ones; the reverse swap composed with the forward one is the
    # identity because both fix the vacuum
    pair, p1, p2 = _pair_setup(4)
    A = _rhat(pair, p1, p2)
    B = _rhat(pair, p2, p1)
    Q = compose(B, A)
    ok, wit = is_zero(op_add(Q, identity_op(pair), -1), Q.certified)
    assert ok, wit


def test_z1_minus_z2_to_the_n_spans_the_lowest_weight_line_of_degree_n():
    # sl2_spectral writes its eigenvectors (z1 - z2)^n down instead of
    # solving for them: each is killed by the total lowering operator, whose
    # degree-n kernel is one-dimensional
    pair = sl2_pair(8)
    lower = diffop(pair, (-1, (), ("z1",)), (-1, (), ("z2",)))
    for n in range(9):
        omega = {
            pair.index[pair.mono({"z1": k, "z2": n - k})]:
                (-1) ** (n - k) * comb(n, k)
            for k in range(n + 1)
        }
        assert apply_vec(lower, omega) == {}, n
        cols = [i for i, h in enumerate(pair.heights) if h == n]
        eqs = {}
        for i in cols:
            for r, c in lower.cols.get(i, {}).items():
                eqs.setdefault(r, {})[i] = c
        assert len(int_echelon_nullspace(list(eqs.values()), cols)) == 1, n


def test_spectral_frozen_ratio():
    rho0, ratios = _spectral(6, F(1), F(1), F(1, 2), F(0), 4)
    assert rho0 == 1
    assert ratios[0] == F(-5, 3)
    assert ratios == [F(-5, 3), F(-7, 5), F(-9, 7), F(-11, 9)]


def test_spectral_generic_parameters():
    _, ratios = _spectral(5, F(2, 3), F(3, 4), F(5, 7), F(1, 5), 3)
    w = F(5, 7) - F(1, 5)
    s = F(2, 3) + F(3, 4)
    for n, r in enumerate(ratios):
        assert r == -(w + s + n) / (-w + s + n)


def test_spectral_shifted_by_second_parameter():
    # only u - v matters
    _, r1 = _spectral(4, F(1, 2), F(1, 3), F(3, 7), F(0), 2)
    _, r2 = _spectral(4, F(1, 2), F(1, 3), F(3, 7) + F(2, 9), F(2, 9), 2)
    assert r1 == r2


def test_fundamental_ybe_residual_vanishes():
    for d in (2, 3):
        assert ybe_fundamental_residual(F(3, 7), F(-2, 5), d) == {}
        assert ybe_fundamental_residual(F(0), F(5, 3), d) == {}


def _dense_ybe_residual(u, v, d):
    """The residual as products of dense (C^d)^3 matrices: P12 and P23 by
    Kronecker products, P13 = P12 P23 P12."""
    swap = [[F(int(r == (c % d) * d + c // d)) for c in range(d * d)]
            for r in range(d * d)]
    eye = mat_eye(d)
    p12, p23 = kron(swap, eye), kron(eye, swap)
    p13 = mat_mul(mat_mul(p12, p23), p12)

    def r(w, p):
        return mat_add(p, mat_eye(d ** 3), F(w))

    r12, r13, r23 = r(u - v, p12), r(u, p13), r(v, p23)
    lhs = mat_mul(mat_mul(r12, r13), r23)
    rhs = mat_mul(mat_mul(r23, r13), r12)
    return mat_sub(lhs, rhs)


@pytest.mark.parametrize("u, v", [
    (F(3, 7), F(-2, 5)), (F(2, 9), F(2, 9)), (F(0), F(5, 3)), (F(0), F(0)),
    (F(10**15 + 37, 10**12 + 39), F(-(10**13) - 1, 999_983)),
])
@pytest.mark.parametrize("d", [2, 3])
def test_the_triple_residual_is_the_dense_product(u, v, d):
    dense = _dense_ybe_residual(u, v, d)
    assert ybe_fundamental_residual(u, v, d) == {
        (i, j): x for i, row in enumerate(dense) for j, x in enumerate(row) if x
    }


def test_mutated_eigenvalue_breaks_defining_relation():
    cap = 4
    pair, p1, p2 = _pair_setup(cap)
    (u1, u2), (v1, v2) = p1, p2
    R1 = factor("sl2", 1, pair, u1, v1, v2, mutate=(0, 1))
    P = lax_mul(sl2_lax(pair, u1, u2, "1"), sl2_lax(pair, v1, v2, "2"))
    Q = lax_mul(sl2_lax(pair, v1, u2, "1"), sl2_lax(pair, u1, v2, "2"))
    with pytest.raises(CheckFailed) as err:
        verify._intertwines(R1, verify._blocks(P, Q), cap - 2)
    assert err.value.witness[0].startswith("block (")


def test_site_embedding_consistency_with_pair_swap():
    """The raising operator S+ = z^2 d + 2 ell z of one site, tabulated on
    the pair basis, is carried to the other site's by the swap."""
    pair, p1, p2 = _pair_setup(3)
    P = pair_swap(pair)

    def raising(z, ell):
        return op_add(
            diffop(pair, (1, (z, z), (z,))), diffop(pair, (1, (z,), ())), 2 * ell
        )

    e1, e2 = raising("z1", F(1, 2)), raising("z2", F(1, 2))
    conj = compose(P, compose(e1, P))
    ok, wit = is_zero(op_add(conj, e2, -1), conj.certified)
    assert ok, wit


def test_cached_bases_are_held_to_a_later_size_limit(monkeypatch):
    pair = sl2_pair(8)  # 45 monomials, now cached
    monkeypatch.setenv("RFACTOR_SIZE_LIMIT", "10")
    with pytest.raises(CapTooLarge):
        sl2_pair(8)
    assert len(sl2_site(8, "1")) == 9  # within the limit, still served
    monkeypatch.setenv("RFACTOR_SIZE_LIMIT", "8")
    with pytest.raises(CapTooLarge):
        sl2_site(8, "1")
    monkeypatch.delenv("RFACTOR_SIZE_LIMIT")
    assert sl2_pair(8) is pair
