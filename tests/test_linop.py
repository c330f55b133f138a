"""Sparse operators: certification windows, composition, embeddings.

Dense oracles: small operators are tabulated as dense matrices with explicit
loops and compared entry by entry on certified windows.
"""

from fractions import Fraction as F

import pytest

from rfactor.exactnum import PoleAtParameter
from rfactor.linop import (
    BasisMismatch,
    FloorViolation,
    LaurentLeak,
    LaxOp,
    ShiftViolation,
    SparseOp,
    WindowBeyondCertified,
    commutator,
    compose,
    diffop_apply,
    diffop_to_op,
    identity_op,
    int_echelon_nullspace,
    is_zero,
    kron,
    lax_is_zero,
    lax_mul,
    lax_sub,
    mat_eye,
    mat_inv,
    mat_is_zero,
    mat_mul,
    mat_sub,
    op_add,
    op_equal,
    op_from_action,
    op_scale,
    op_sub,
    pair_swap,
    run_pipeline,
    site_embed,
    stage_euler,
    stage_laurent,
    stage_subst,
    term,
    zero_op,
)
from rfactor.polyspace import VarSpec, enumerate_basis, tensor_basis


def zbasis(cap, name="z"):
    return enumerate_basis([VarSpec(name)], cap)


def test_identity_and_scalar():
    b = zbasis(4)
    I = identity_op(b)
    ok, _ = is_zero(op_sub(op_scale(I, F(2)), op_add(I, I)), 4)
    assert ok
    assert I.certified == 4


def test_diffop_d_and_z():
    b = zbasis(5)
    d = diffop_to_op(b, [term(b, 1, None, {"z": 1})])
    z = diffop_to_op(b, [term(b, 1, {"z": 1}, None)])
    assert d.shift == -1 and d.certified == 5
    assert z.shift == 1 and z.certified == 4
    # [d, z] = 1 on the certified window
    c = commutator(d, z)
    ok, wit = is_zero(op_sub(c, identity_op(b)), 4)
    assert ok, wit


def test_shift_violation_detected():
    b = zbasis(4)
    with pytest.raises(ShiftViolation):
        op_from_action(b, lambda m: {(m[0] + 1,): F(1)}, 0)


def test_beyond_window_truncation_is_silent():
    b = zbasis(4)
    z = op_from_action(b, lambda m: {(m[0] + 1,): F(1)}, 1)
    assert z.certified == 3
    # the top column is simply dropped
    assert 4 not in z.cols or not z.cols[4]


def test_is_zero_refuses_uncertified_window():
    b = zbasis(4)
    z = diffop_to_op(b, [term(b, 1, {"z": 1}, None)])
    with pytest.raises(WindowBeyondCertified):
        is_zero(z, 4)


def test_is_zero_witness_is_first_failing_monomial():
    b = zbasis(4)
    d = diffop_to_op(b, [term(b, 1, None, {"z": 1})])
    ok, wit = is_zero(d, 4)
    assert not ok
    assert wit == ("z", "(1)*1")


def test_compose_certification_formula():
    b = zbasis(6)
    z = diffop_to_op(b, [term(b, 1, {"z": 1}, None)])  # shift +1, cert 5
    d = diffop_to_op(b, [term(b, 1, None, {"z": 1})])  # shift -1, cert 6
    zd = compose(z, d)
    # d lowers height, so z only needs certification up to h - 1: full window
    assert zd.certified == min(6, 5 - (-1))
    dz = compose(d, z)
    assert dz.certified == min(5, 6 - 1)
    euler = diffop_to_op(b, [term(b, 1, {"z": 1}, {"z": 1})])
    ok, wit = op_equal(zd, euler, 6)
    assert ok, wit
    ok, wit = op_equal(dz, op_add(euler, identity_op(b)), 5)
    assert ok, wit


def test_compose_against_larger_cap_oracle():
    # composition tabulated at cap 5 must agree with the same composition
    # done at cap 9 wherever the small one is certified
    terms = lambda b: [
        term(b, F(2, 3), {"z": 2}, {"z": 1}),
        term(b, -1, None, {"z": 1}),
        term(b, F(1, 5), {"z": 1}, None),
    ]
    small, big = zbasis(5), zbasis(9)
    a_s = diffop_to_op(small, terms(small))
    a_b = diffop_to_op(big, terms(big))
    c_s = compose(a_s, a_s)
    c_b = compose(a_b, a_b)
    for i in range(len(small)):
        if small.heights[i] <= c_s.certified:
            assert c_s.col(i) == {
                small.index[big.monomials[r]]: v
                for r, v in c_b.col(i).items()
                if big.monomials[r] in small.index
            }


def test_add_and_scale():
    b = zbasis(4)
    z = diffop_to_op(b, [term(b, 1, {"z": 1}, None)])
    s = op_add(z, z)
    ok, _ = op_equal(s, op_scale(z, F(2)), 3)
    assert ok
    assert not op_scale(z, F(0)).cols


def test_basis_mismatch():
    with pytest.raises(BasisMismatch):
        compose(identity_op(zbasis(3)), identity_op(zbasis(4)))


def test_site_embed_matches_kron_oracle():
    b1, b2 = zbasis(2, "z1"), zbasis(2, "z2")
    pair = tensor_basis(b1, b2)
    n1, n2 = len(b1), len(b2)
    # kron indexes the full box: entry i1 * n2 + i2 is m1*m2
    box = [m1 + m2 for m1 in b1.monomials for m2 in b2.monomials]

    def check(emb, expect):
        checked = 0
        for c, mc in enumerate(box):
            j = pair.index.get(mc)
            if j is None or pair.heights[j] > emb.certified:
                continue
            checked += 1
            for r, mr in enumerate(box):
                i = pair.index.get(mr)
                if i is None:
                    assert not expect[r][c], (mc, mr)
                else:
                    assert emb.entry(i, j) == expect[r][c], (mc, mr)
        return checked

    # d/dz is certified on all 6 pair columns, z on the 3 of height <= 1
    for kind, cols in (("der", 6), ("mult", 3)):
        d1 = diffop_to_op(b1, [term(b1, 1, **{kind: {"z1": 1}})])
        dense1 = [[d1.entry(r, c) for c in range(n1)] for r in range(n1)]
        assert check(site_embed(d1, 1, pair), kron(dense1, mat_eye(n2))) == cols
        d2 = diffop_to_op(b2, [term(b2, 1, **{kind: {"z2": 1}})])
        dense2 = [[d2.entry(r, c) for c in range(n2)] for r in range(n2)]
        assert check(site_embed(d2, 2, pair), kron(mat_eye(n1), dense2)) == cols


def test_pair_swap_involution_and_conjugation():
    b1, b2 = zbasis(3, "z1"), zbasis(3, "z2")
    pair = tensor_basis(b1, b2)
    P = pair_swap(pair)
    ok, _ = op_equal(compose(P, P), identity_op(pair), pair.cap)
    assert ok
    d1 = site_embed(diffop_to_op(b1, [term(b1, 1, None, {"z1": 1})]), 1, pair)
    d2 = site_embed(diffop_to_op(b2, [term(b2, 1, None, {"z2": 1})]), 2, pair)
    ok, wit = op_equal(compose(P, compose(d1, P)), d2, pair.cap)
    assert ok, wit


def test_diffop_apply_falling_factorials():
    # d^2/dz^2 on z^5 = 20 z^3; on z gives 0
    out = diffop_apply([(F(1), (0,), (2,))], (5,))
    assert out == {(3,): F(20)}
    assert diffop_apply([(F(1), (0,), (2,))], (1,)) == {}


def test_stage_subst_shift_and_inverse():
    b = enumerate_basis([VarSpec("x"), VarSpec("y", 2)], 4)
    fwd = stage_subst(b, {0: {(1, 0): F(1), (0, 0): F(3)}})   # x -> x + 3
    bwd = stage_subst(b, {0: {(1, 0): F(1), (0, 0): F(-3)}})  # x -> x - 3
    comb = {(2, 1): F(1)}
    assert bwd(fwd(comb)) == comb
    assert fwd(comb) == {(2, 1): F(1), (1, 1): F(6), (0, 1): F(9)}


def test_stage_subst_rejects_negative_exponents():
    b = enumerate_basis([VarSpec("x", floor=-1)], 2)
    st = stage_subst(b, {0: {(1,): F(1), (0,): F(1)}})
    with pytest.raises(LaurentLeak):
        st({(-1,): F(1)})


def test_stage_euler_diagonal_and_pole():
    b = zbasis(3)
    st = stage_euler(b, 0, F(3, 2), F(1, 2))
    assert st({(2,): F(1)}) == {(2,): F(5)}
    stp = stage_euler(b, 0, F(1), F(-2))
    with pytest.raises(PoleAtParameter):
        stp({(3,): F(1)})


def test_stage_laurent_flow():
    # exp(+(y/z) d/dx) on x: x + y/z ; terminates on x-degree
    b = enumerate_basis(
        [VarSpec("x"), VarSpec("y", 2), VarSpec("z", floor=-2)], 3
    )
    st = stage_laurent(b, 1, num=1, den=2, target=0)
    out = st({(1, 0, 0): F(1)})
    assert out == {(1, 0, 0): F(1), (0, 1, -1): F(1)}
    # binomial coefficients on x^2
    out2 = st({(2, 0, 0): F(1)})
    assert out2 == {(2, 0, 0): F(1), (1, 1, -1): F(2), (0, 2, -2): F(1)}


def test_run_pipeline_roundtrip_is_identity():
    b = enumerate_basis([VarSpec("x"), VarSpec("y", 2), VarSpec("z")], 3)
    fwd = stage_subst(b, {0: {(1, 0, 0): F(1), (0, 0, 1): F(1)}})
    bwd = stage_subst(b, {0: {(1, 0, 0): F(1), (0, 0, 1): F(-1)}})
    op = run_pipeline(b, [fwd, bwd])
    ok, wit = op_equal(op, identity_op(b), b.cap)
    assert ok, wit


def test_run_pipeline_detects_laurent_leak():
    b = enumerate_basis([VarSpec("x"), VarSpec("y", 2), VarSpec("z", floor=-3)], 3)
    st = stage_laurent(b, 1, num=1, den=2, target=0)
    with pytest.raises(LaurentLeak):
        run_pipeline(b, [st])


def test_laxop_shift_band_enforced():
    b = zbasis(3)
    z = diffop_to_op(b, [term(b, 1, {"z": 1}, None)])
    with pytest.raises(ShiftViolation):
        LaxOp([[z, z], [z, z]])
    L = LaxOp([[identity_op(b), zero_op(b)], [z, identity_op(b)]])
    ok, _ = lax_is_zero(lax_sub(L, L), 2)
    assert ok


def test_lax_mul_blockwise():
    b = zbasis(4)
    one, zero = identity_op(b), zero_op(b)
    z = diffop_to_op(b, [term(b, 1, {"z": 1}, None)])
    A = LaxOp([[one, zero], [z, one]])
    B = LaxOp([[one, zero], [op_scale(z, F(-1)), one]])
    P = lax_mul(A, B)
    ok, wit = lax_is_zero(lax_sub(P, LaxOp([[one, zero], [zero, one]])), 3)
    assert ok, wit


def test_dense_helpers_and_inverse():
    M = [[F(1), F(2)], [F(3), F(5)]]
    Minv = mat_inv(M)
    assert mat_is_zero(mat_sub(mat_mul(M, Minv), mat_eye(2)))
    with pytest.raises(ZeroDivisionError):
        mat_inv([[F(1), F(2)], [F(2), F(4)]])


def test_int_echelon_nullspace_small():
    # x + y - z = 0 ; y + z = 0  ->  one-dimensional: (2, -1, 1) direction
    eqs = [{0: F(1), 1: F(1), 2: F(-1)}, {1: F(1), 2: F(1)}]
    sols = int_echelon_nullspace(eqs, [0, 1, 2])
    assert len(sols) == 1
    s = sols[0]
    assert s[0] + s[1] - s[2] == 0 and s[1] + s[2] == 0
    # full-rank system: empty nullspace
    eqs2 = eqs + [{0: F(1)}]
    assert int_echelon_nullspace(eqs2, [0, 1, 2]) == []
    # no equations: everything free
    assert len(int_echelon_nullspace([], [0, 1])) == 2


def test_floor_violation_detected():
    b = zbasis(3)
    with pytest.raises(FloorViolation):
        op_from_action(b, lambda m: {(m[0] - 1,): F(1)}, 0)
