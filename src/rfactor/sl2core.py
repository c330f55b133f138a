"""sl(2) on truncated polynomial modules C[z].

A module is spanned by z^k, k <= cap, with lowest-weight vector 1 and weight
parameter ell. The Lax matrix mixes a two-dimensional auxiliary space with
differential operators on the module; the two elementary R-operators are
compiled stage lists of substitutions and Gamma-ratio diagonals. Their
product, the full swap Rhat, is assembled from the factor table in
`rfactor.verify`, which checks every defining relation to literal zero on
certified windows.

Cached per process: the site and pair bases (`sl2_site`, `sl2_pair`); every
parameter-free term list, once per basis (`linop.diffop`), so the
generators and the direct and factored Lax matrices at a point are cached
parts plus parameter times the unit operators 1 and z; and per pair basis
the path table of each elementary R-operator (`sl2_r1`, `sl2_r2`), so a
factor at a point costs one Gamma ratio per exponent plus integer sums.
Each form keeps its own term lists, so `lax-factor` still compares three
formulas. The closed form (`sl2_rhat_closed`) runs its own pipelines at
every call, so `closed-form` still compares two constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Rat
from .polyspace import (
    GradedBasis,
    VarSpec,
    enumerate_basis,
    size_checked_cache,
    tensor_basis,
)
from .linop import (
    DegenerateDecomposition,
    Euler,
    LaxOp,
    compose,
    diffop,
    int_echelon_nullspace,
    kron,
    lax_mul,
    mat_eye,
    mat_mul,
    mat_sub,
    op_add,
    op_scale,
    op_sub,
    path_op,
    path_table,
    run_pipeline,
    stage_euler,
    stage_subst,
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


@size_checked_cache(maxsize=16)
def sl2_site(cap: int, name: str = "z") -> GradedBasis:
    """The one-variable module basis at `cap`, built once per process and
    held to the size limit in force at every call."""
    return enumerate_basis([VarSpec(name)], cap)


@size_checked_cache(maxsize=4)
def sl2_pair(cap: int) -> GradedBasis:
    return tensor_basis(sl2_site(cap, "z1"), sl2_site(cap, "z2"))


def sl2_generators(basis, ell):
    """S = ell + z d/dz, S- = -d/dz, S+ = z^2 d/dz + 2 ell z."""
    z = ("z",)
    return {
        "S": op_add(diffop(basis, (1, z, z)), diffop(basis, (1, (), ())), ell),
        "Sp": op_add(
            diffop(basis, (1, ("z", "z"), z)), diffop(basis, (1, z, ())), 2 * ell
        ),
        "Sm": diffop(basis, (-1, (), z)),
    }


# generator -> its 2x2 coefficient matrix in the defining representation
SL2_GEN_COEFF_MATRICES = {
    "S": [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(-1, 2)]],
    "Sp": [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]],
    "Sm": [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]],
}


def sl2_gl_ops(basis, ell):
    """The gl(2) triangle T[a, b], 1-indexed: T11 = S, T22 = -S, T12 = S+,
    T21 = S-."""
    g = sl2_generators(basis, ell)
    return {
        (1, 1): g["S"], (2, 2): op_scale(g["S"], -1),
        (1, 2): g["Sp"], (2, 1): g["Sm"],
    }


def sl2_casimirs(basis, ell):
    """[(tag, operator, expected scalar)]: S^2 - S + S+ S-, equal to
    ell(ell-1) on the module."""
    g = sl2_generators(basis, ell)
    C = op_add(
        op_sub(compose(g["S"], g["S"]), g["S"]), compose(g["Sp"], g["Sm"])
    )
    return [("C", C, ell * (ell - 1))]


def sl2_lax(basis, u1, u2, var="z"):
    """Direct Lax matrix [[u1 + z d, -d], [z^2 d + (u1-u2) z, u2 - z d]]."""
    z = (var,)
    one, zm = diffop(basis, (1, (), ())), diffop(basis, (1, z, ()))
    return LaxOp(
        [
            [op_add(diffop(basis, (1, z, z)), one, u1), diffop(basis, (-1, (), z))],
            [
                op_add(diffop(basis, (1, (var, var), z)), zm, u1 - u2),
                op_add(diffop(basis, (-1, z, z)), one, u2),
            ],
        ]
    )


def sl2_lax_factored(basis, u1, u2):
    """[[1,0],[z,1]] . [[u1-1, -d],[0, u2]] . [[1,0],[-z,1]]."""
    z = ("z",)
    one = diffop(basis, (1, (), ()))
    zero = zero_op(basis)
    M_plus = LaxOp([[one, zero], [diffop(basis, (1, z, ())), one]])
    M_minus = LaxOp([[one, zero], [diffop(basis, (-1, z, ())), one]])
    D = LaxOp(
        [
            [op_scale(one, u1 - 1), diffop(basis, (-1, (), z))],
            [zero, op_scale(one, u2)],
        ]
    )
    return lax_mul(lax_mul(M_plus, D), M_minus)


# ---------------------------------------------------------------------------
# R-operators

def _sl2_r1_stages(pair):
    z2 = pair.var_index("z2")
    e1, e2 = pair.mono({"z1": 1}), pair.mono({"z2": 1})
    return (
        stage_subst(pair, {z2: {e2: Fraction(1), e1: Fraction(1)}}),
        Euler(z2, lambda u1, v1, v2: u1 - v2, lambda u1, v1, v2: v1 - v2),
        stage_subst(pair, {z2: {e2: Fraction(1), e1: Fraction(-1)}}),
    )


def _sl2_r2_stages(pair):
    z1 = pair.var_index("z1")
    e1, e2 = pair.mono({"z1": 1}), pair.mono({"z2": 1})
    return (
        stage_subst(pair, {z1: {e1: Fraction(1), e2: Fraction(1)}}),
        Euler(z1, lambda u1, u2, v2: u1 - v2, lambda u1, u2, v2: u1 - u2),
        stage_subst(pair, {z1: {e1: Fraction(1), e2: Fraction(-1)}}),
    )


def sl2_r1(pair, u1, v1, v2, mutate=None):
    """Swap of the first parameter pair: diagonal (u1-v2, v1-v2) Pochhammer
    ratios on powers of (z2 - z1), conjugated back to the monomial basis.
    mutate=(0, k) doubles the diagonal eigenvalue at exponent k."""
    return path_op(path_table(pair, _sl2_r1_stages), (u1, v1, v2), mutate)


def sl2_r2(pair, u1, u2, v2, mutate=None):
    """Swap of the second parameter pair: diagonal (u1-v2, u1-u2) ratios on
    powers of (z1 - z2)."""
    return path_op(path_table(pair, _sl2_r2_stages), (u1, u2, v2), mutate)


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

class SpectralMismatch(ValueError):
    """A lowest-weight vector is not an eigenvector of P.Rhat, or the
    eigenvalues break the spectral recurrence."""


def sl2_spectral(R, l1, l2, w, n_max):
    """Eigenvalues of R = P.Rhat on lowest-weight vectors per degree, where
    the sites carry weights l1, l2 and w is the spectral parameter
    difference.

    Returns (rhos, ratios): rho_n is the eigenvalue on the degree-n kernel
    vector of the total lowering operator; the recurrence
    rho_{n+1}/rho_n = -(w + l1 + l2 + n)/(-w + l1 + l2 + n) is asserted
    exactly. Raises DegenerateDecomposition if a kernel is not
    one-dimensional and SpectralMismatch where either equation fails.
    """
    pair = R.domain
    sm_tot = diffop(pair, (-1, (), ("z1",)), (-1, (), ("z2",)))
    rhos = []
    for n in range(n_max + 1):
        cols = [i for i, h in enumerate(pair.heights) if h == n]
        eqs = {}
        for i in cols:
            # the equations are homogeneous: numerators over sm_tot.den will do
            for r, c in sm_tot.cols.get(i, {}).items():
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
            raise SpectralMismatch(
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
            raise SpectralMismatch(
                f"spectral recurrence fails at degree {n}: {got} != {expected}"
            )
        ratios.append(got)
    return rhos, ratios


def sl2_spectral_bases(l1, l2, w):
    """Degeneracy-guard Pochhammer bases of the spectral check."""
    return [2 * l1, 2 * l2, l1 + l2 + w, l1 + l2 - w]


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
