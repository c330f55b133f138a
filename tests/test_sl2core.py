"""sl(2): generators, Casimir, Lax factorization, R-operators, spectrum.

Frozen values (Casimir scalars, raising coefficients, diagonal R-eigenvalues,
spectral ratios) were computed by hand from the defining formulas before the
implementation was written.
"""

from fractions import Fraction as F

from rfactor.exactnum import pochhammer
from rfactor.linop import (
    commutator,
    compose,
    identity_op,
    is_zero,
    lax_compose_scalar,
    lax_is_zero,
    lax_mat_mul,
    lax_mul,
    lax_mul_mat,
    lax_sub,
    mat_is_zero,
    op_add,
    op_equal,
    op_scale,
    op_sub,
    pair_swap,
    site_embed,
    subst_op,
)
from rfactor.sl2core import (
    Sl2Params,
    sl2_casimir,
    sl2_generators,
    sl2_lax,
    sl2_lax_factored,
    sl2_lax_generator_form,
    sl2_pair,
    sl2_r1,
    sl2_r2,
    sl2_rhat,
    sl2_rhat_closed,
    sl2_rmatrix,
    sl2_site,
    sl2_spectral,
    yang_r,
    ybe_fundamental_residual,
)

L1, L2, U, V = F(1, 3), F(2, 5), F(7, 11), F(1, 7)


def lax_min_cert(*laxes):
    return min(b.certified for L in laxes for row in L.blocks for b in row)


def test_generator_actions_frozen():
    b = sl2_site(6)
    g = sl2_generators(b, F(1, 2))
    # (z d/dz + 1/2) z^2 = 5/2 z^2
    assert g["S"].col(2) == {2: F(5, 2)}
    assert g["Sm"].col(3) == {2: F(-3)}
    # S+ z = z^2 dz(z) + 2*(1/2) z * z = 2 z^2
    assert g["Sp"].col(1) == {2: F(2)}
    assert g["Sm"].col(0) == {}


def test_commutation_relations():
    b = sl2_site(7)
    for ell in (F(1), F(-3, 4), F(5, 2)):
        g = sl2_generators(b, ell)
        ok, wit = op_equal(
            commutator(g["S"], g["Sp"]), g["Sp"], g["Sp"].certified
        )
        assert ok, wit
        ok, wit = op_equal(
            commutator(g["S"], g["Sm"]), op_scale(g["Sm"], F(-1)), 6
        )
        assert ok, wit
        ok, wit = op_equal(
            commutator(g["Sp"], g["Sm"]), op_scale(g["S"], F(2)), 6
        )
        assert ok, wit


def test_casimir_scalar_frozen():
    b = sl2_site(6)
    for ell, expected in ((F(2), F(2)), (F(1, 2), F(-1, 4)), (F(-1, 3), F(4, 9))):
        C, s = sl2_casimir(b, ell)
        assert s == expected == ell * (ell - 1)
        ok, wit = is_zero(op_sub(C, op_scale(identity_op(b), s)), C.certified)
        assert ok, wit


def _translation(basis, c):
    """The substitution z -> z + c as an operator."""
    return subst_op(basis, {"z": {(1,): F(1), (0,): F(c)}}, homogeneous=False)


def test_raising_profile_generic_and_finite():
    b = sl2_site(6)
    # S+^k 1 = (2 ell)_k z^k ; at 2 ell = -2 the module truncates after z^2
    for ell in (F(1), F(-1)):
        sp = sl2_generators(b, ell)["Sp"]
        vec = {0: F(1)}
        for k in range(7):
            c = pochhammer(2 * ell, k)
            assert vec == ({b.index[(k,)]: c} if c else {}), (ell, k)
            vec = sp.apply_vec(vec)
    assert pochhammer(F(2), 2) == 6  # the z^2 coefficient at ell = 1


def test_lowering_flow_is_substitution():
    # exp(lam S-) = exp(-lam d/dz), summed until S- kills every column
    b = sl2_site(6)
    sm = sl2_generators(b, F(1, 3))["Sm"]
    lam = F(2, 7)
    flow = power = identity_op(b)
    for k in range(1, 7):
        power = op_scale(compose(sm, power), lam / k)
        flow = op_add(flow, power)
    assert not compose(sm, power).cols
    ok, wit = op_equal(flow, _translation(b, -lam), 6)
    assert ok, wit


def test_lax_direct_equals_generator_form_and_factorization():
    b = sl2_site(6)
    ell, u = F(2, 3), F(5, 7)
    Ld = sl2_lax(b, u + ell, u - ell)
    Lg = sl2_lax_generator_form(b, ell, u)
    D = lax_sub(Ld, Lg)
    ok, wit = lax_is_zero(D, lax_min_cert(D))
    assert ok, wit
    Lf = sl2_lax_factored(b, u + ell, u - ell)
    D2 = lax_sub(Ld, Lf)
    ok, wit = lax_is_zero(D2, lax_min_cert(D2))
    assert ok, wit


def test_lax_invariance_under_lowering_conjugation():
    b = sl2_site(6)
    ell, u, lam = F(-1, 4), F(3, 8), F(3, 5)
    L = sl2_lax(b, u + ell, u - ell)
    Mm = [[F(1), F(0)], [-lam, F(1)]]
    Mp = [[F(1), F(0)], [lam, F(1)]]
    lhs = lax_mat_mul(Mm, lax_mul_mat(L, Mp))
    rhs = lax_compose_scalar(
        _translation(b, -lam),
        lax_compose_scalar(_translation(b, lam), L, "right"),
        "left",
    )
    D = lax_sub(lhs, rhs)
    ok, wit = lax_is_zero(D, lax_min_cert(D))
    assert ok, wit


def _pair_setup(cap):
    pair = sl2_pair(cap)
    p1, p2 = Sl2Params(L1, U), Sl2Params(L2, V)
    return pair, p1, p2


def test_r1_fixes_vacuum_and_diagonal_eigenvalue():
    pair, p1, p2 = _pair_setup(4)
    u1, v1, v2 = p1.u1, p2.u1, p2.u2
    R1 = sl2_r1(pair, u1, v1, v2)
    assert R1.col(0) == {0: F(1)}
    vec = {pair.index[(0, 1)]: F(1), pair.index[(1, 0)]: F(-1)}
    out = R1.apply_vec(vec)
    ratio = (u1 - v2) / (v1 - v2)
    assert out == {k: ratio * c for k, c in vec.items()}


def test_defining_relation_first_factor():
    cap = 5
    pair, p1, p2 = _pair_setup(cap)
    u1, u2, v1, v2 = p1.u1, p1.u2, p2.u1, p2.u2
    R1 = sl2_r1(pair, u1, v1, v2)
    P = lax_mul(sl2_lax(pair, u1, u2, "z1"), sl2_lax(pair, v1, v2, "z2"))
    Q = lax_mul(sl2_lax(pair, v1, u2, "z1"), sl2_lax(pair, u1, v2, "z2"))
    D = lax_sub(
        lax_compose_scalar(R1, P, "left"), lax_compose_scalar(R1, Q, "right")
    )
    ok, wit = lax_is_zero(D, cap - 2)
    assert ok, wit
    # side relation: R1 commutes with multiplication by z1
    from rfactor.linop import diffop_to_op, term

    z1 = diffop_to_op(pair, [term(pair, 1, {"z1": 1}, None)])
    c = commutator(R1, z1)
    ok, wit = is_zero(c, c.certified)
    assert ok, wit


def test_defining_relation_second_factor():
    cap = 5
    pair, p1, p2 = _pair_setup(cap)
    u1, u2, v1, v2 = p1.u1, p1.u2, p2.u1, p2.u2
    R2 = sl2_r2(pair, u1, u2, v2)
    P = lax_mul(sl2_lax(pair, u1, u2, "z1"), sl2_lax(pair, v1, v2, "z2"))
    Q = lax_mul(sl2_lax(pair, u1, v2, "z1"), sl2_lax(pair, v1, u2, "z2"))
    D = lax_sub(
        lax_compose_scalar(R2, P, "left"), lax_compose_scalar(R2, Q, "right")
    )
    ok, wit = lax_is_zero(D, cap - 2)
    assert ok, wit
    from rfactor.linop import diffop_to_op, term

    z2 = diffop_to_op(pair, [term(pair, 1, {"z2": 1}, None)])
    c = commutator(R2, z2)
    ok, wit = is_zero(c, c.certified)
    assert ok, wit


def test_factorization_orders_agree_exactly():
    pair, p1, p2 = _pair_setup(5)
    A = sl2_rhat(pair, p1, p2, order=1)
    B = sl2_rhat(pair, p1, p2, order=2)
    assert A.col(0) == {0: F(1)} and B.col(0) == {0: F(1)}
    ok, wit = op_equal(A, B, min(A.certified, B.certified))
    assert ok, wit


def test_full_defining_relation():
    cap = 5
    pair, p1, p2 = _pair_setup(cap)
    u1, u2, v1, v2 = p1.u1, p1.u2, p2.u1, p2.u2
    Rhat = sl2_rhat(pair, p1, p2)
    P = lax_mul(sl2_lax(pair, u1, u2, "z1"), sl2_lax(pair, v1, v2, "z2"))
    Q = lax_mul(sl2_lax(pair, v1, v2, "z1"), sl2_lax(pair, u1, u2, "z2"))
    D = lax_sub(
        lax_compose_scalar(Rhat, P, "left"),
        lax_compose_scalar(Rhat, Q, "right"),
    )
    ok, wit = lax_is_zero(D, cap - 2)
    assert ok, wit


def test_rll_form_with_permutation():
    cap = 5
    pair, p1, p2 = _pair_setup(cap)
    u1, u2, v1, v2 = p1.u1, p1.u2, p2.u1, p2.u2
    R = sl2_rmatrix(pair, p1, p2)
    P = lax_mul(sl2_lax(pair, u1, u2, "z1"), sl2_lax(pair, v1, v2, "z2"))
    Q = lax_mul(sl2_lax(pair, v1, v2, "z2"), sl2_lax(pair, u1, u2, "z1"))
    D = lax_sub(
        lax_compose_scalar(R, P, "left"), lax_compose_scalar(R, Q, "right")
    )
    ok, wit = lax_is_zero(D, cap - 2)
    assert ok, wit


def test_closed_form_two_factor_product():
    pair, p1, p2 = _pair_setup(5)
    A = sl2_rhat(pair, p1, p2)
    CF = sl2_rhat_closed(pair, L1, L2, U - V)
    ok, wit = op_equal(A, CF, min(A.certified, CF.certified))
    assert ok, wit


def test_rhat_preserves_total_degree():
    pair, p1, p2 = _pair_setup(4)
    A = sl2_rhat(pair, p1, p2)
    from rfactor.linop import diffop_to_op, term

    deg = diffop_to_op(
        pair,
        [term(pair, 1, {"z1": 1}, {"z1": 1}), term(pair, 1, {"z2": 1}, {"z2": 1})],
    )
    ok, wit = is_zero(commutator(A, deg), A.certified)
    assert ok, wit
    z1 = diffop_to_op(pair, [term(pair, 1, {"z1": 1}, None)])
    ok, _ = is_zero(commutator(A, z1), 3)
    assert not ok


def test_inverse_is_scalar():
    # after the swap, site 1 carries the (L2, V) parameters and site 2 the
    # (L1, U) ones; the reverse swap composed with the forward one is the
    # identity because both fix the vacuum
    pair, p1, p2 = _pair_setup(4)
    A = sl2_rhat(pair, p1, p2)
    B = sl2_rhat(pair, Sl2Params(L2, V), Sl2Params(L1, U))
    Q = compose(B, A)
    ok, wit = op_equal(Q, identity_op(pair), Q.certified)
    assert ok, wit


def test_spectral_frozen_ratio():
    rhos, ratios = sl2_spectral(6, F(1), F(1), F(1, 2), F(0), 4)
    assert rhos[0] == 1
    assert ratios[0] == F(-5, 3)
    assert ratios == [F(-5, 3), F(-7, 5), F(-9, 7), F(-11, 9)]


def test_spectral_generic_parameters():
    rhos, ratios = sl2_spectral(5, F(2, 3), F(3, 4), F(5, 7), F(1, 5), 3)
    w = F(5, 7) - F(1, 5)
    s = F(2, 3) + F(3, 4)
    for n, r in enumerate(ratios):
        assert r == -(w + s + n) / (-w + s + n)


def test_spectral_shifted_by_second_parameter():
    # only u - v matters
    _, r1 = sl2_spectral(4, F(1, 2), F(1, 3), F(3, 7), F(0), 2)
    _, r2 = sl2_spectral(4, F(1, 2), F(1, 3), F(3, 7) + F(2, 9), F(2, 9), 2)
    assert r1 == r2


def test_yang_r_and_fundamental_ybe():
    R = yang_r(F(2), 2)
    assert R[0][0] == 3 and R[1][2] == 1 and R[1][1] == 2
    for d in (2, 3):
        assert mat_is_zero(ybe_fundamental_residual(F(3, 7), F(-2, 5), d))
        assert mat_is_zero(ybe_fundamental_residual(F(0), F(5, 3), d))


def test_mutated_eigenvalue_breaks_defining_relation():
    cap = 4
    pair, p1, p2 = _pair_setup(cap)
    u1, u2, v1, v2 = p1.u1, p1.u2, p2.u1, p2.u2
    R1 = sl2_r1(pair, u1, v1, v2, mutate=(1, F(2)))
    P = lax_mul(sl2_lax(pair, u1, u2, "z1"), sl2_lax(pair, v1, v2, "z2"))
    Q = lax_mul(sl2_lax(pair, v1, u2, "z1"), sl2_lax(pair, u1, v2, "z2"))
    D = lax_sub(
        lax_compose_scalar(R1, P, "left"), lax_compose_scalar(R1, Q, "right")
    )
    ok, wit = lax_is_zero(D, cap - 2)
    assert not ok and wit is not None


def test_site_embedding_consistency_with_pair_swap():
    pair, p1, p2 = _pair_setup(3)
    P = pair_swap(pair)
    b1, b2 = pair.factors
    g1 = sl2_generators(b1, F(1, 2), "z1")
    g2 = sl2_generators(b2, F(1, 2), "z2")
    e1 = site_embed(g1["Sp"], 1, pair)
    e2 = site_embed(g2["Sp"], 2, pair)
    conj = compose(P, compose(e1, P))
    ok, wit = op_equal(conj, e2, conj.certified)
    assert ok, wit
