"""sl(2) on truncated polynomial modules C[z].

A module is spanned by z^k, k <= cap, with lowest-weight vector 1 and weight
parameter ell; a site of weight ell at spectral parameter u carries the Lax
slots (u + ell, u - ell) (`sl2_slots`). The Lax matrix mixes a
two-dimensional auxiliary space with differential operators on the module;
the two elementary R-operators are compiled stage lists of substitutions and
Gamma-ratio diagonals. The factor table `SL2_FACTORS` states each factor
once: its stage list and its side relations, the term lists of the
operators it commutes with. `rfactor.verify` reads the table, assembles the
full swap Rhat as the factors' product and checks every defining relation
to literal zero on certified windows.

A site is labelled by a suffix: `sl2_site(cap, "1")` is C[z1], and the pair
basis joins sites "1" and "2". Both elementary R-operators, and both
conjugations of the closed form, are one stage list (`_sl2_swap_stages`)
with the sites' roles swapped and Euler parameters of their own.

Cached per process: the site and pair bases (`sl2_site`, `sl2_pair`); every
parameter-free term list, once per basis (`linop.diffop`), so the
generators and the direct Lax matrix at a point are cached parts plus
parameter times the unit operators 1 and z; the zero operator, once per
basis (`linop.zero_op`); every product of two such parts that a product of
Lax matrices takes, once per height limit (`linop._part_product`), so the
factored Lax matrix at a point is cached part products times products of
coefficients; per pair basis the exchange checks' Lax product L1(t) L2(s)
on window cap - 2 (`verify._lax_table`), compiled from `sl2_lax` at the
first exchange check, so both products of a check cost one integer dot
product per block entry; and per pair basis the path table of each elementary R-operator and of the closed form's two
conjugations (`linop.path_table`), so a factor at a point costs one Gamma
ratio per exponent plus integer sums.
Each form keeps its own term lists, so `lax-factor` still compares three
formulas. The closed form (`sl2_rhat_closed`) has stage lists of its own,
with parameters written through the weights rather than the Lax slots, so
`closed-form` still compares two formulas. The
generators are stated once, in the table `SL2_GENERATORS` of term lists,
weight parts and defining matrices: `linop.generators` tabulates them, and
`rfactor.verify` derives the structure constants and the gl(2) triangle
from the matrices.

The spectral check reads the eigenvalues of P.Rhat on the lowest-weight
vectors (z1 - z2)^n, written down in closed form (`sl2_spectral`): it
applies the factors of Rhat and then P to each vector, in integers, and
builds no product.

The fundamental check applies Yang's R = u + P on (C^d)^3 to basis triples
in integers (`ybe_fundamental_residual`); no matrix is formed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, prod

from .polyspace import (
    GradedBasis,
    VarSpec,
    enumerate_basis,
    size_checked_cache,
    tensor_basis,
)
from .linop import (
    Euler,
    LaxOp,
    WindowBeyondCertified,
    compose,
    compose_sum,
    diffop,
    identity_op,
    lax_mul,
    path_op,
    path_table,
    scaled_block,
    stage_subst,
    zero_op,
)


HALF = Fraction(1, 2)


def sl2_slots(ell, u):
    """The Lax parameter pair (u1, u2) = (u + ell, u - ell) of weight ell
    and spectral parameter u."""
    return u + ell, u - ell


@size_checked_cache(maxsize=16)
def sl2_site(cap: int, suffix: str = "") -> GradedBasis:
    """The module basis in z + suffix at `cap`, built once per process and
    held to the size limit in force at every call."""
    return enumerate_basis([VarSpec("z" + suffix)], cap)


@size_checked_cache(maxsize=4)
def sl2_pair(cap: int) -> GradedBasis:
    return tensor_basis(sl2_site(cap, "1"), sl2_site(cap, "2"))


# generator -> (parameter-free term list, weight parts (c, mult): c ell times
# the variables named in mult, 2x2 matrix in the defining representation):
# S = ell + z d/dz, S+ = z^2 d/dz + 2 ell z, S- = -d/dz
SL2_GENERATORS = {
    "S": (((1, ("z",), ("z",)),), (((1,), ()),), [[HALF, 0], [0, -HALF]]),
    "Sp": (((1, ("z", "z"), ("z",)),), (((2,), ("z",)),), [[0, 1], [0, 0]]),
    "Sm": (((-1, (), ("z",)),), (), [[0, 0], [1, 0]]),
}


def sl2_casimirs(T, ell):
    """[(tag, operator, expected scalar)] from the gl(2) triangle T:
    T11^2 - T11 + T12 T21, that is S^2 - S + S+ S-, equal to ell(ell-1) on
    the module."""
    S, one = T[1, 1], identity_op(T[1, 1].domain)
    C = compose_sum(((S, S, 1), (S, one, -1), (T[1, 2], T[2, 1], 1)))
    return [("C", C, ell * (ell - 1))]


def sl2_lax(basis, u1, u2, suffix=""):
    """Direct Lax matrix [[u1 + z d, -d], [z^2 d + (u1-u2) z, u2 - z d]] in
    the variable z + suffix."""
    z = ("z" + suffix,)
    one, zm = identity_op(basis), diffop(basis, (1, z, ()))
    return LaxOp(
        [
            [((diffop(basis, (1, z, z)), 1), (one, u1)), diffop(basis, (-1, (), z))],
            [
                ((diffop(basis, (1, z + z, z)), 1), (zm, u1 - u2)),
                ((diffop(basis, (-1, z, z)), 1), (one, u2)),
            ],
        ]
    )


def sl2_lax_factored(basis, u1, u2):
    """[[1,0],[z,1]] . [[u1-1, -d],[0, u2]] . [[1,0],[-z,1]]."""
    z = ("z",)
    one = identity_op(basis)
    zero = zero_op(basis)
    M_plus = LaxOp([[one, zero], [diffop(basis, (1, z, ())), one]])
    M_minus = LaxOp([[one, zero], [diffop(basis, (-1, z, ())), one]])
    D = LaxOp(
        [
            [scaled_block(one, u1 - 1), diffop(basis, (-1, (), z))],
            [zero, scaled_block(one, u2)],
        ]
    )
    return lax_mul(lax_mul(M_plus, D), M_minus)


# ---------------------------------------------------------------------------
# R-operators

def _sl2_swap_stages(moved, fixed, a, b, pair):
    """Swap of one parameter pair: diagonal (a, b) Pochhammer ratios, each a
    function of the factor's arguments, on powers of z_moved - z_fixed for
    the site labels `moved`, `fixed`, conjugated back to the monomial basis.
    mutate=(0, k) doubles the diagonal eigenvalue at exponent k."""
    z = pair.var_index("z" + moved)
    em, ef = pair.mono({"z" + moved: 1}), pair.mono({"z" + fixed: 1})
    return (
        stage_subst(pair, {z: {em: 1, ef: 1}}),
        Euler(z, a, b),
        stage_subst(pair, {z: {em: 1, ef: -1}}),
    )


# r1 swaps the first parameter pair at (u1, v1, v2): diagonal (u1 - v2, v1 - v2)
# on powers of z2 - z1. r2 swaps the second at (u1, u2, v2): diagonal
# (u1 - v2, u1 - u2) on powers of z1 - z2.
_sl2_r1_stages = partial(
    _sl2_swap_stages, "2", "1", lambda u1, _, v2: u1 - v2, lambda u1, v1, v2: v1 - v2
)
_sl2_r2_stages = partial(
    _sl2_swap_stages, "1", "2", lambda u1, _, v2: u1 - v2, lambda u1, u2, v2: u1 - u2
)

# factor k -> (stage list, side relations): each side is the term list
# (`linop.diffop`) of an operator the factor commutes with. Factor k leaves
# site k in place, so it commutes with multiplication by z_k.
SL2_FACTORS = {
    1: (_sl2_r1_stages, (((1, ("z1",), ()),),)),
    2: (_sl2_r2_stages, (((1, ("z2",), ()),),)),
}

# The closed form at (l1, l2, w), its parameters written through the weights:
# diagonal (2 l1, l1+l2-w) on powers of z2 - z1, then (l1+l2+w, 2 l1) on
# powers of z1 - z2.
_SL2_CLOSED_STAGES = (
    partial(
        _sl2_swap_stages, "2", "1",
        lambda l1, l2, w: 2 * l1, lambda l1, l2, w: l1 + l2 - w,
    ),
    partial(
        _sl2_swap_stages, "1", "2",
        lambda l1, l2, w: l1 + l2 + w, lambda l1, l2, w: 2 * l1,
    ),
)


def sl2_rhat_closed(pair, l1, l2, w):
    """Independent closed form of Rhat as two Gamma-ratio conjugations with
    parameters written directly through the weights (`_SL2_CLOSED_STAGES`),
    where w is the spectral parameter difference: the first conjugation
    applied after the second, each evaluated from its path table."""
    f1, f2 = (path_op(path_table(pair, st), (l1, l2, w)) for st in _SL2_CLOSED_STAGES)
    return compose(f1, f2)


# ---------------------------------------------------------------------------
# Spectral decomposition

class SpectralMismatch(ValueError):
    """A lowest-weight vector is not an eigenvector of P.Rhat, or the
    eigenvalues break the spectral recurrence."""


def _apply(op, vec):
    """The integer numerators, over op.den, of `op` applied to the integer
    vector {col: int}; refuses a column above op's certified height."""
    heights = op.domain.heights
    out = {}
    for i, c in vec.items():
        if heights[i] > op.certified:
            raise WindowBeyondCertified(
                f"column of height {heights[i]} exceeds certified height "
                f"{op.certified}"
            )
        for r, v in op.cols.get(i, {}).items():
            x = out.get(r, 0) + c * v
            if x:
                out[r] = x
            else:
                del out[r]
    return out


def sl2_spectral(word, l1, l2, w, n_max):
    """Eigenvalues of R = P.Rhat on lowest-weight vectors per degree, where
    the sites carry weights l1, l2 and w is the spectral parameter
    difference, and R is the product of the operators of `word` in the
    order they apply (Rhat's factors, then P).

    Returns rhos: rho_n is the eigenvalue on (z1 - z2)^n, which spans the
    degree-n kernel of the total lowering operator -d/dz1 - d/dz2. The word
    is applied to each such vector in integers, over the product of its
    operators' denominators, and never to a column above an operator's
    certified height; the eigenvector equation is tested multiplied out, and
    only rho_n and a failure's message are Fractions. The recurrence is
    asserted multiplied out too,
    rho_{n+1} (l1 + l2 - w + n) = -(l1 + l2 + w + n) rho_n, so it divides by
    nothing and holds wherever R exists. Raises SpectralMismatch where either
    equation fails.
    """
    pair = word[0].domain
    den = prod(op.den for op in word)
    rhos = []
    for n in range(n_max + 1):
        omega = {
            pair.index[pair.mono({"z1": k, "z2": n - k})]:
                (-1) ** (n - k) * comb(n, k)
            for k in range(n + 1)
        }
        image = omega
        for op in word:
            image = _apply(op, image)
        pivot = min(omega)
        p, q = image.get(pivot, 0), omega[pivot]
        rho = Fraction(p, den * q)
        support = omega.keys() | image.keys()
        if any(image.get(k, 0) * q != p * omega.get(k, 0) for k in support):
            diff = {
                k: Fraction(image.get(k, 0), den) - rho * omega.get(k, 0)
                for k in support
            }
            raise SpectralMismatch(
                f"degree {n} kernel vector is not an eigenvector: "
                f"{pair.comb_str({k: v2 for k, v2 in diff.items() if v2})}"
            )
        rhos.append(rho)
    for n in range(n_max):
        lhs = rhos[n + 1] * (l1 + l2 - w + n)
        rhs = -(l1 + l2 + w + n) * rhos[n]
        if lhs != rhs:
            raise SpectralMismatch(
                f"spectral recurrence fails at degree {n}: {lhs} != {rhs}"
            )
    return rhos


# ---------------------------------------------------------------------------
# Fundamental Yangian R-matrix on index triples

def ybe_fundamental_residual(u, v, d):
    """R12(u-v) R13(u) R23(v) - R23(v) R13(u) R12(u-v) on (C^d)^3 as
    {(row, col): value} over its nonzero entries, triple (i, j, k) at index
    (i d + j) d + k. R_ab(w) = w + P_ab, P_ab swapping slots a and b, acts
    on basis triples as the integer operator p + q P_ab for w = p/q, so both
    sides carry the factor q = den(u - v) den(u) den(v)."""
    w12, w13, w23 = Fraction(u - v), Fraction(u), Fraction(v)
    q = w12.denominator * w13.denominator * w23.denominator
    triples = list(product(range(d), repeat=3))
    index = {t: n for n, t in enumerate(triples)}
    p12, p13, p23 = (
        [index[tuple(t[{a: b, b: a}.get(i, i)] for i in range(3))] for t in triples]
        for a, b in ((0, 1), (0, 2), (1, 2))
    )

    def apply(w, perm, vec):
        out = {}
        for n, c in vec.items():
            out[n] = out.get(n, 0) + w.numerator * c
            out[perm[n]] = out.get(perm[n], 0) + w.denominator * c
        return out

    res = {}
    for col in range(len(triples)):
        lhs = apply(w12, p12, apply(w13, p13, apply(w23, p23, {col: 1})))
        rhs = apply(w23, p23, apply(w13, p13, apply(w12, p12, {col: 1})))
        for row in lhs.keys() | rhs.keys():
            x = lhs.get(row, 0) - rhs.get(row, 0)
            if x:
                res[row, col] = Fraction(x, q)
    return res
