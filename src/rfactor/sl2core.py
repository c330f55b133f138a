"""sl(2) on truncated polynomial modules C[z].

A module is spanned by z^k, k <= cap, with lowest-weight vector 1 and weight
parameter ell. The Lax matrix mixes a two-dimensional auxiliary space with
differential operators on the module; the R-operators are built as exact
substitution/diagonal pipelines and every defining relation is checked to
literal zero on certified windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Rat
from .polyspace import GradedBasis, VarSpec, enumerate_basis, tensor_basis
from .linop import (
    DegenerateDecomposition,
    LaxOp,
    compose,
    diffop_to_op,
    identity_op,
    int_echelon_nullspace,
    kron,
    lax_mul,
    mat_eye,
    mat_mul,
    mat_sub,
    op_add,
    op_from_action,
    op_scale,
    op_sub,
    pair_swap,
    run_pipeline,
    site_embed,
    stage_euler,
    stage_subst,
    term,
    zero_op,
)


@dataclass(frozen=True)
class Sl2Params:
    """Weight ell and spectral parameter u; the Lax parameter pair is
    (u1, u2) = (u + ell, u - ell)."""

    ell: Rat
    u: Rat

    @property
    def u1(self) -> Rat:
        return self.u + self.ell

    @property
    def u2(self) -> Rat:
        return self.u - self.ell


def sl2_site(cap: int, name: str = "z") -> GradedBasis:
    return enumerate_basis([VarSpec(name)], cap)


def sl2_pair(cap: int) -> GradedBasis:
    return tensor_basis(sl2_site(cap, "z1"), sl2_site(cap, "z2"))


def sl2_generators(basis, ell, var="z"):
    """S = ell + z d/dz, S- = -d/dz, S+ = z^2 d/dz + 2 ell z."""
    z1 = {var: 1}
    S = diffop_to_op(basis, [term(basis, ell), term(basis, 1, z1, z1)])
    Sm = diffop_to_op(basis, [term(basis, -1, None, z1)])
    Sp = diffop_to_op(
        basis, [term(basis, 1, {var: 2}, z1), term(basis, 2 * ell, z1, None)]
    )
    return {"S": S, "Sp": Sp, "Sm": Sm}


def sl2_casimir(basis, ell, var="z"):
    """S^2 - S + S+ S-, equal to ell(ell-1) on the module."""
    g = sl2_generators(basis, ell, var)
    C = op_add(
        op_sub(compose(g["S"], g["S"]), g["S"]), compose(g["Sp"], g["Sm"])
    )
    return C, ell * (ell - 1)


def sl2_lax(basis, u1, u2, var="z"):
    """Direct Lax matrix [[u1 + z d, -d], [z^2 d + (u1-u2) z, u2 - z d]]."""
    z1 = {var: 1}
    b00 = diffop_to_op(basis, [term(basis, u1), term(basis, 1, z1, z1)])
    b01 = diffop_to_op(basis, [term(basis, -1, None, z1)])
    b10 = diffop_to_op(
        basis, [term(basis, 1, {var: 2}, z1), term(basis, u1 - u2, z1, None)]
    )
    b11 = diffop_to_op(basis, [term(basis, u2), term(basis, -1, z1, z1)])
    return LaxOp([[b00, b01], [b10, b11]], params=(u1, u2))


def sl2_lax_generator_form(basis, ell, u, var="z"):
    """[[u + S, S-], [S+, u - S]] assembled from the generator operators."""
    g = sl2_generators(basis, ell, var)
    uid = op_from_action(basis, lambda m: {m: Fraction(u)} if u else {}, 0)
    return LaxOp(
        [
            [op_add(uid, g["S"]), g["Sm"]],
            [g["Sp"], op_sub(uid, g["S"])],
        ],
        params=(u + ell, u - ell),
    )


def sl2_lax_factored(basis, u1, u2, var="z"):
    """[[1,0],[z,1]] . [[u1-1, -d],[0, u2]] . [[1,0],[-z,1]]."""
    one = identity_op(basis)
    z1 = {var: 1}
    zmul = diffop_to_op(basis, [term(basis, 1, z1, None)])
    dz = diffop_to_op(basis, [term(basis, -1, None, z1)])
    zero = zero_op(basis)
    M_plus = LaxOp([[one, zero], [zmul, one]])
    M_minus = LaxOp([[one, zero], [op_scale(zmul, Fraction(-1)), one]])
    D = LaxOp(
        [
            [op_scale(one, u1 - 1), dz],
            [zero, op_scale(one, u2)],
        ]
    )
    return lax_mul(lax_mul(M_plus, D), M_minus)


# ---------------------------------------------------------------------------
# R-operators

def sl2_r1(pair, u1, v1, v2, mutate=None):
    """Swap of the first parameter pair: diagonal (u1-v2, v1-v2) Pochhammer
    ratios on powers of (z2 - z1), conjugated back to the monomial basis."""
    z1, z2 = pair.var_index("z1"), pair.var_index("z2")
    e1, e2 = pair.mono({"z1": 1}), pair.mono({"z2": 1})
    plus = stage_subst(pair, {z2: {e2: Fraction(1), e1: Fraction(1)}})
    diag = stage_euler(pair, z2, u1 - v2, v1 - v2, mutate=mutate)
    minus = stage_subst(pair, {z2: {e2: Fraction(1), e1: Fraction(-1)}})
    return run_pipeline(pair, [plus, diag, minus])


def sl2_r2(pair, u1, u2, v2, mutate=None):
    """Swap of the second parameter pair: diagonal (u1-v2, u1-u2) ratios on
    powers of (z1 - z2)."""
    z1, z2 = pair.var_index("z1"), pair.var_index("z2")
    e1, e2 = pair.mono({"z1": 1}), pair.mono({"z2": 1})
    plus = stage_subst(pair, {z1: {e1: Fraction(1), e2: Fraction(1)}})
    diag = stage_euler(pair, z1, u1 - v2, u1 - u2, mutate=mutate)
    minus = stage_subst(pair, {z1: {e1: Fraction(1), e2: Fraction(-1)}})
    return run_pipeline(pair, [plus, diag, minus])


def sl2_r1_pairs(u1, v1, v2, cap=None):
    """Degeneracy-guard Pochhammer pairs of the r1 pipeline.  `cap` gives
    the sl2 and sl3 guards one signature; no sl2 pole depends on it."""
    return [(u1 - v2, v1 - v2)]


def sl2_r2_pairs(u1, u2, v2, cap=None):
    return [(u1 - v2, u1 - u2)]


def sl2_rhat(pair, p1: Sl2Params, p2: Sl2Params, order=1, mutate=None):
    """Full parameter swap as a product of the two elementary factors.

    order=1: R1(u1 | v1, u2) after R2(u1, u2 | v2);
    order=2: R2(v1, u2 | v2) after R1(u1 | v1, v2).
    """
    u1, u2, v1, v2 = p1.u1, p1.u2, p2.u1, p2.u2
    mut1 = mutate[1] if mutate and mutate[0] == "r1" else None
    mut2 = mutate[1] if mutate and mutate[0] == "r2" else None
    if order == 1:
        return compose(
            sl2_r1(pair, u1, v1, u2, mutate=mut1),
            sl2_r2(pair, u1, u2, v2, mutate=mut2),
        )
    if order == 2:
        return compose(
            sl2_r2(pair, v1, u2, v2, mutate=mut2),
            sl2_r1(pair, u1, v1, v2, mutate=mut1),
        )
    raise ValueError(f"order must be 1 or 2, not {order}")


def sl2_rhat_pairs(p1, p2, order=1, cap=None):
    u1, u2, v1, v2 = p1.u1, p1.u2, p2.u1, p2.u2
    if order == 1:
        return sl2_r1_pairs(u1, v1, u2) + sl2_r2_pairs(u1, u2, v2)
    return sl2_r1_pairs(u1, v1, v2) + sl2_r2_pairs(v1, u2, v2)


def sl2_rmatrix(pair, p1, p2, order=1):
    """P . Rhat: the operator entering the RLL relation."""
    return compose(pair_swap(pair), sl2_rhat(pair, p1, p2, order))


def sl2_rhat_closed(pair, l1, l2, w):
    """Independent closed form of Rhat as two Gamma-ratio conjugations with
    parameters written directly through the weights: eigenvalues
    (2 l1, l1+l2-w) on powers of (z2-z1), then (l1+l2+w, 2 l1) on powers of
    (z1-z2), where w is the spectral parameter difference."""
    z1, z2 = pair.var_index("z1"), pair.var_index("z2")
    e1, e2 = pair.mono({"z1": 1}), pair.mono({"z2": 1})
    f1 = run_pipeline(
        pair,
        [
            stage_subst(pair, {z2: {e2: Fraction(1), e1: Fraction(1)}}),
            stage_euler(pair, z2, 2 * l1, l1 + l2 - w),
            stage_subst(pair, {z2: {e2: Fraction(1), e1: Fraction(-1)}}),
        ],
    )
    f2 = run_pipeline(
        pair,
        [
            stage_subst(pair, {z1: {e1: Fraction(1), e2: Fraction(1)}}),
            stage_euler(pair, z1, l1 + l2 + w, 2 * l1),
            stage_subst(pair, {z1: {e1: Fraction(1), e2: Fraction(-1)}}),
        ],
    )
    return compose(f1, f2)


# ---------------------------------------------------------------------------
# Spectral decomposition

def sl2_spectral(cap, l1, l2, u, v, n_max):
    """Eigenvalues of P.Rhat on lowest-weight vectors per degree.

    Returns (rhos, ratios): rho_n is the eigenvalue on the degree-n kernel
    vector of the total lowering operator; the recurrence
    rho_{n+1}/rho_n = -(w + l1 + l2 + n)/(-w + l1 + l2 + n), w = u - v,
    is asserted exactly. Raises DegenerateDecomposition if a kernel is not
    one-dimensional and ValueError on eigen-equation failure.
    """
    pair = sl2_pair(cap)
    p1, p2 = Sl2Params(l1, u), Sl2Params(l2, v)
    R = sl2_rmatrix(pair, p1, p2)
    sm_tot = op_add(
        site_embed(diffop_to_op(b1 := pair.factors[0],
                                [term(b1, -1, None, {"z1": 1})]), 1, pair),
        site_embed(diffop_to_op(b2 := pair.factors[1],
                                [term(b2, -1, None, {"z2": 1})]), 2, pair),
    )
    rhos = []
    w = u - v
    for n in range(n_max + 1):
        cols = [i for i, h in enumerate(pair.heights) if h == n]
        eqs = {}
        for i in cols:
            for r, c in sm_tot.col(i).items():
                eqs.setdefault(r, {})[i] = c
        sols = int_echelon_nullspace(list(eqs.values()), cols)
        if len(sols) != 1:
            raise DegenerateDecomposition(
                f"degree {n} lowest-weight space has dimension {len(sols)}"
            )
        omega = sols[0]
        image = R.apply_vec(omega)
        pivot = min(omega)
        rho = image.get(pivot, Fraction(0)) / omega[pivot]
        diff = {
            k: image.get(k, Fraction(0)) - rho * omega.get(k, Fraction(0))
            for k in set(omega) | set(image)
        }
        if any(diff.values()):
            raise ValueError(
                f"degree {n} kernel vector is not an eigenvector: "
                f"{pair.comb_str({k: v2 for k, v2 in diff.items() if v2})}"
            )
        rhos.append(rho)
    ratios = []
    for n in range(n_max):
        den = -w + l1 + l2 + n
        expected = -(w + l1 + l2 + n) / den
        got = rhos[n + 1] / rhos[n]
        if got != expected:
            raise ValueError(
                f"spectral recurrence fails at degree {n}: {got} != {expected}"
            )
        ratios.append(got)
    return rhos, ratios


def sl2_spectral_pairs(l1, l2, w, n_max):
    """Degeneracy-guard pairs for the spectral check."""
    return [
        (Fraction(1), 2 * l1),
        (Fraction(1), 2 * l2),
        (Fraction(1), l1 + l2 + w),
        (Fraction(1), l1 + l2 - w),
    ]


# ---------------------------------------------------------------------------
# Fundamental (dense) Yangian R-matrix

def yang_r(u, d):
    """u * Id + P on C^d tensor C^d."""
    n = d * d
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(d):
        for j in range(d):
            out[i * d + j][i * d + j] += Fraction(u)
            out[i * d + j][j * d + i] += 1
    return out


def dense_embed_pair(R, d, pos):
    """Embed a two-site dense matrix into three tensor factors C^d."""
    eye = mat_eye(d)
    if pos == (0, 1):
        return kron(R, eye)
    if pos == (1, 2):
        return kron(eye, R)
    if pos == (0, 2):
        n = d * d * d
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    row = (i * d + j) * d + k
                    for i2 in range(d):
                        for k2 in range(d):
                            c = R[i * d + k][i2 * d + k2]
                            if c:
                                out[row][(i2 * d + j) * d + k2] = c
        return out
    raise ValueError(f"bad pair position {pos}")


def ybe_fundamental_residual(u, v, d):
    """R12(u-v) R13(u) R23(v) - R23(v) R13(u) R12(u-v) on (C^d)^3."""
    r12 = dense_embed_pair(yang_r(u - v, d), d, (0, 1))
    r13 = dense_embed_pair(yang_r(u, d), d, (0, 2))
    r23 = dense_embed_pair(yang_r(v, d), d, (1, 2))
    lhs = mat_mul(mat_mul(r12, r13), r23)
    rhs = mat_mul(mat_mul(r23, r13), r12)
    return mat_sub(lhs, rhs)
