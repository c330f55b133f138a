"""sl(3) on truncated polynomial modules C[x, y, z].

The module is spanned by monomials x^a y^b z^c with height a + 2b + c <= cap;
1 is the lowest-weight vector of weight (m, n). A site of weight (m, n) at
spectral parameter u carries the Lax parameter triple `sl3_slots(m, n, u)`,
and `sl3_weights` reads the weight back off a triple. The Lax matrix has a
three-dimensional auxiliary space; the full parameter swap Rhat factorizes
into three elementary R-operators, each a stage list of Gamma-ratio
diagonals and Laurent flows conjugated into the difference frame by one
translation g(a, b, c) = exp(c (dz - x dy)) exp(b dy) exp(a dx) of one
site's variables by the other's (`sl3_translation`, which also gives the
numeric shift flows).
Every stage but the diagonals is a substitution: a Laurent flow
exp(+-(y/x) dz) is the translation z -> z +- y/x (`_laurent_flow`).
Intermediate terms may carry negative exponents, but the output is
certified polynomial. The factor table `SL3_FACTORS` states each factor
once: its stage list and its side relations, the term lists of the
operators it commutes with. Rhat itself, like any product of factors, is
assembled from that table by `rfactor.verify`'s one swap builder, for sl2
and sl3 alike.

Cached per process: the site and pair bases (`sl3_site`, `sl3_pair`); every
parameter-free term list, once per basis (`linop.diffop`), so the
generators and the direct and factored Lax matrices at a point are cached
parts plus parameters times the unit operators 1, x, y, z and xz, while
each form keeps its own term lists and `lax-factor3` still compares three
formulas; per pair basis the path table of each elementary R-operator
(`linop.path_table`), and per site basis that of the third swap reduced to
one site (`_sl3_r3_single_stages`, the core of r3's stage list), so a factor
at a point costs one Gamma ratio per stage and exponent plus integer sums.
The generators are stated once, in the table `SL3_GENERATORS` of term lists,
weight parts and defining matrices: `linop.generators` tabulates them,
`rfactor.verify` derives the structure constants and the gl(3) triangle
from the matrices, and the finite-dimensional modules apply the term lists
to monomials and tabulate nothing.
"""

from __future__ import annotations

from fractions import Fraction

from .polyspace import (
    GradedBasis,
    VarSpec,
    comb_add_into,
    comb_mul,
    enumerate_basis,
    size_checked_cache,
    tensor_basis,
)
from .linop import (
    Euler,
    LaxOp,
    _echelon_insert,
    compose_sum,
    diffop,
    diffop_apply,
    diffop_terms,
    identity_op,
    lax_mul,
    op_comb,
    scaled_block,
    stage_subst,
    subst_op,
    zero_op,
)

THIRD = Fraction(1, 3)


def sl3_slots(m, n, u):
    """The Lax parameter triple of weight (m, n) and spectral parameter u,
      u1 = u - 2 - (m + 2n)/3, u2 = u - 1 + (n - m)/3, u3 = u + (n + 2m)/3,
    which `sl3_weights` inverts."""
    return (
        u - 2 - (m + 2 * n) * THIRD,
        u - 1 + (n - m) * THIRD,
        u + (n + 2 * m) * THIRD,
    )


def sl3_weights(u1, u2, u3):
    """The weight (m, n) of the Lax parameter triple (u1, u2, u3)."""
    return u3 - u2 - 1, u2 - u1 - 1


@size_checked_cache(maxsize=16)
def sl3_site(cap: int, suffix: str = "") -> GradedBasis:
    """The x, y, z module basis at `cap`, built once per process and held to
    the size limit in force at every call."""
    return enumerate_basis(
        [VarSpec("x" + suffix, 1), VarSpec("y" + suffix, 2), VarSpec("z" + suffix, 1)],
        cap,
    )


@size_checked_cache(maxsize=4)
def sl3_pair(cap: int) -> GradedBasis:
    return tensor_basis(sl3_site(cap, "1"), sl3_site(cap, "2"))


def _ematrix(i, j):
    M = [[Fraction(0)] * 3 for _ in range(3)]
    M[i - 1][j - 1] = Fraction(1)
    return M


# The eight generators acting on C[x, y, z] with lowest weight (m, n): each
# is its parameter-free term list (coef, mult, der), its weight parts
# ((i, j), mult): i m + j n times the variables named in mult, and its 3x3
# matrix in the defining representation.
SL3_GENERATORS = {
    "T12": (
        (
            (-1, ("x", "x"), ("x",)),
            (-1, ("x", "y"), ("y",)),
            (1, ("x", "z"), ("z",)),
            (1, ("y",), ("z",)),
        ),
        (((0, 1), ("x",)),),
        _ematrix(1, 2),
    ),
    "T13": (
        (
            (-1, ("y", "y"), ("y",)),
            (-1, ("x", "y"), ("x",)),
            (-1, ("y", "z"), ("z",)),
            (-1, ("x", "z", "z"), ("z",)),
        ),
        (((1, 1), ("y",)), ((1, 0), ("x", "z"))),
        _ematrix(1, 3),
    ),
    "T23": (
        ((-1, ("z", "z"), ("z",)), (-1, ("y",), ("x",))),
        (((1, 0), ("z",)),),
        _ematrix(2, 3),
    ),
    "T21": (((1, (), ("x",)),), (), _ematrix(2, 1)),
    "T31": (((1, (), ("y",)),), (), _ematrix(3, 1)),
    "T32": (((1, (), ("z",)), (-1, ("x",), ("y",))), (), _ematrix(3, 2)),
    "H1": (
        ((2, ("x",), ("x",)), (1, ("y",), ("y",)), (-1, ("z",), ("z",))),
        (((0, -1), ()),),
        [[Fraction(1), 0, 0], [0, Fraction(-1), 0], [0, 0, Fraction(0)]],
    ),
    "H2": (
        ((2, ("z",), ("z",)), (1, ("y",), ("y",)), (-1, ("x",), ("x",))),
        (((-1, 0), ()),),
        [[Fraction(0), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(-1)]],
    ),
}


def sl3_casimirs(T, m, n):
    """[(tag, operator, expected scalar or None)] from the gl(3) triangle T
    at weight (m, n): C2 = sum T_ab T_ba and C3 = sum T_ab T_bc T_ca, both
    scalar on the module. C2's scalar is sum(lam_a^2) + 2(m + n), with lam
    the diagonal weights of 1."""
    rng = (1, 2, 3)
    # TT[b, a] = sum_c T_bc T_ca: C2 is its trace and C3 = sum T_ab TT[b, a]
    TT = {
        (b, a): compose_sum((T[b, c], T[c, a], 1) for c in rng)
        for b in rng for a in rng
    }
    C2 = op_comb((TT[a, a], 1) for a in rng)
    C3 = compose_sum((T[a, b], TT[b, a], 1) for a in rng for b in rng)
    lam = (-(m + 2 * n) / 3, (n - m) / 3, (n + 2 * m) / 3)
    return [("C2", C2, sum(a * a for a in lam) + 2 * (m + n)), ("C3", C3, None)]


# ---------------------------------------------------------------------------
# Finite-dimensional submodules

def sl3_findim_module(M, N):
    """Grow the submodule generated by 1 for integer weight (M, N).

    Returns (basis, span vectors): the integer echelon rows of the span, one
    per dimension. Each generator's term list is applied to the monomials of
    the vectors in integers, so no operator is tabulated; the internal cap
    2(M+N)+2 holds every image of a module vector (top height 2(M+N)).
    """
    if M < 0 or N < 0 or M != int(M) or N != int(N):
        raise ValueError("finite-dimensional weights must be nonnegative integers")
    M, N = int(M), int(N)
    basis = sl3_site(2 * (M + N) + 2)
    gens = [
        diffop_terms(basis, free + tuple((i * M + j * N, mu, ()) for (i, j), mu in ws))
        for free, ws, _ in SL3_GENERATORS.values()
    ]
    monos, index = basis.monomials, basis.index
    echelon = {0: {0: 1}}
    frontier = [{0: 1}]
    while frontier:
        new = []
        for vec in frontier:
            for terms in gens:
                w = {}
                for k, c in vec.items():
                    for m, v in diffop_apply(terms, monos[k]).items():
                        j = index[m]
                        s = w.get(j, 0) + c * v
                        if s:
                            w[j] = s
                        else:
                            del w[j]
                rank = len(echelon)
                _echelon_insert(dict(w), echelon)
                if len(echelon) > rank:
                    new.append(w)
        frontier = new
    return basis, list(echelon.values())


def sl3_findim_dim(M, N):
    return (M + 1) * (N + 1) * (M + N + 2) // 2


# ---------------------------------------------------------------------------
# Lax matrices

def sl3_lax(basis, u1, u2, u3, suffix=""):
    """Direct Lax matrix in the parameter triple (u1, u2, u3)."""
    x, y, z = "x" + suffix, "y" + suffix, "z" + suffix
    m, n = sl3_weights(u1, u2, u3)

    def op(*terms):
        return diffop(basis, *terms)

    one = identity_op(basis)
    b10 = op(
        (-1, (x, x), (x,)),
        (-1, (x, y), (y,)),
        (1, (x, z), (z,)),
        (1, (y,), (z,)),
    )
    b20 = op(
        (-1, (x, y), (x,)),
        (-1, (y, y), (y,)),
        (-1, (x, z, z), (z,)),
        (-1, (y, z), (z,)),
    )
    b21 = op((-1, (y,), (x,)), (-1, (z, z), (z,)))
    # a block with parameters is its terms (cached part, coefficient)
    return LaxOp(
        [
            [
                ((op((1, (x,), (x,)), (1, (y,), (y,))), 1), (one, u1 + 2)),
                op((1, (), (x,))),
                op((1, (), (y,))),
            ],
            [
                ((b10, 1), (op((1, (x,), ())), n)),
                ((op((-1, (x,), (x,)), (1, (z,), (z,))), 1), (one, u2 + 1)),
                op((1, (), (z,)), (-1, (x,), (y,))),
            ],
            [
                ((b20, 1), (op((1, (x, z), ())), m), (op((1, (y,), ())), m + n)),
                ((b21, 1), (op((1, (z,), ())), m)),
                ((op((-1, (y,), (y,)), (-1, (z,), (z,))), 1), (one, u3)),
            ],
        ]
    )


def sl3_lax_factored(basis, u1, u2, u3):
    """Lower-triangular . upper-triangular . lower-triangular factorization."""

    def op(*terms):
        return diffop(basis, *terms)

    one = identity_op(basis)
    zero = zero_op(basis)
    M_left = LaxOp(
        [
            [one, zero, zero],
            [op((-1, ("x",), ())), one, zero],
            [op((-1, ("y",), ())), op((-1, ("z",), ())), one],
        ]
    )
    U = LaxOp(
        [
            [
                scaled_block(one, u1),
                op((1, (), ("x",)), (-1, ("z",), ("y",))),
                op((1, (), ("y",))),
            ],
            [zero, scaled_block(one, u2), op((1, (), ("z",)))],
            [zero, zero, scaled_block(one, u3)],
        ]
    )
    M_right = LaxOp(
        [
            [one, zero, zero],
            [op((1, ("x",), ())), one, zero],
            [op((1, ("y",), ()), (1, ("x", "z"), ())), op((1, ("z",), ())), one],
        ]
    )
    # associate as M_left . (U . M_right): keeps every block certified to
    # cap - 2 (the other association loses two more heights on block (2,0))
    return lax_mul(M_left, lax_mul(U, M_right))


def sl3_translation(basis, names, a, b, c):
    """The substitution rules {variable name: combination} of the group
    element g(a, b, c) = exp(c (dz - x dy)) exp(b dy) exp(a dx) on the
    variables `names` = (x, y, z) of `basis`,
        x -> x + a,  y -> y + b - c x,  z -> z + c,
    and those of its inverse g(-a, -b - c a, -c). a, b and c are
    combinations {monomial: coefficient} free of x, y and z."""
    x, y, z = ({basis.mono({v: 1}): 1} for v in names)

    def rules(a, b, c):
        return {
            names[0]: comb_add_into(dict(x), a),
            names[1]: comb_add_into(comb_add_into(dict(y), b), comb_mul(c, x), -1),
            names[2]: comb_add_into(dict(z), c),
        }

    def neg(comb):
        return comb_add_into({}, comb, -1)

    ca = comb_mul(c, a)
    return rules(a, b, c), rules(neg(a), neg(comb_add_into(dict(b), ca)), neg(c))


def sl3_shift_flows(basis, a, b, c):
    """The translation g(a, b, c) by numbers as an exact substitution
    operator on the x, y, z site `basis`, and its inverse."""
    one = basis.mono({})
    consts = ({one: Fraction(v)} for v in (a, b, c))
    both = sl3_translation(basis, ("x", "y", "z"), *consts)
    return tuple(subst_op(basis, rules) for rules in both)


def sl3_invariance_matrix(a, b, c):
    """The numeric auxiliary-space matrix paired with the shift flows."""
    return [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(-a), Fraction(1), Fraction(0)],
        [Fraction(-b), Fraction(-c), Fraction(1)],
    ]


# ---------------------------------------------------------------------------
# Elementary R-operators
#
# Pair variables: site 1 = (x1, y1, z1), site 2 = (x2, y2, z2). Each stage
# list opens with the translation g of three variables of one site by three
# of the other (`_sl3_frame`), the change into the difference frame, and
# closes with its inverse. All stages preserve total height; intermediate
# monomials may carry negative exponents, the output may not. A mutation
# (s, k) of a factor doubles the eigenvalue of its Euler stage s at exponent
# k; the stages s = 0, 1, 2 are those the mutation tags call c, b, a.

def _sl3_frame(pair, names, by):
    """The stages of the translation g(a, b, c) of the pair variables
    `names` = (x, y, z) by the variables `by` = (a, b, c), and of its
    inverse."""
    a, b, c = ({pair.mono({v: 1}): 1} for v in by)
    return tuple(
        stage_subst(pair, {pair.var_index(v): r for v, r in rules.items()})
        for rules in sl3_translation(pair, names, a, b, c)
    )


def _laurent_flow(basis, sign, num, den, target):
    """The Laurent flow exp(sign (num/den) d/d target), variables given by
    index, as the translation target -> target + sign num/den: a
    substitution stage, whose images carry negative powers of den that the
    whole stage list cancels."""
    unit = [0] * len(basis.vars)
    ratio = list(unit)
    unit[target] = ratio[num] = 1
    ratio[den] = -1
    return stage_subst(basis, {target: {tuple(unit): 1, tuple(ratio): sign}})


def _sl3_r1_stages(pair):
    """First-slot swap u1 <-> v1, at arguments (u1, v1, v2, v3).

    Conjugated by the shift to the difference frame and by the frame change
    y -> y + x z on site 2; the core is Gamma-ratio diagonals in the x2 and
    y2 exponents around Laurent flows exp(+-(y2/x2) dz2)."""
    x2, y2, z2 = map(pair.var_index, ("x2", "y2", "z2"))
    s1, s1_inv = _sl3_frame(pair, ("x2", "y2", "z2"), ("x1", "y1", "z1"))
    xz2 = pair.mono({"x2": 1, "z2": 1})
    w_fwd = stage_subst(pair, {y2: {pair.mono({"y2": 1}): 1, xz2: 1}})
    w_bwd = stage_subst(pair, {y2: {pair.mono({"y2": 1}): 1, xz2: -1}})
    return (
        s1,
        w_bwd,
        Euler(x2, 1, lambda u1, v1, v2, v3: v1 - v2 + 1),
        _laurent_flow(pair, 1, num=y2, den=x2, target=z2),
        Euler(y2, lambda u1, v1, v2, v3: u1 - v3 + 1,
              lambda u1, v1, v2, v3: v1 - v3 + 1),
        _laurent_flow(pair, -1, num=y2, den=x2, target=z2),
        Euler(x2, lambda u1, v1, v2, v3: u1 - v2 + 1, 1),
        w_fwd,
        s1_inv,
    )


def _sl3_r2_stages(pair):
    """Second-slot swap u2 <-> v2, at arguments (u1, u2, v2, v3)."""
    x1, y1, z2 = map(pair.var_index, ("x1", "y1", "z2"))
    s2, s2_inv = _sl3_frame(pair, ("x1", "y1", "z2"), ("x2", "y2", "z1"))
    return (
        s2,
        Euler(z2, 1, lambda u1, u2, v2, v3: v2 - v3 + 1),
        _laurent_flow(pair, -1, num=y1, den=z2, target=x1),
        Euler(x1, lambda u1, u2, v2, v3: u1 - v2 + 1,
              lambda u1, u2, v2, v3: u1 - u2 + 1),
        _laurent_flow(pair, 1, num=y1, den=z2, target=x1),
        Euler(z2, lambda u1, u2, v2, v3: u2 - v3 + 1, 1),
        s2_inv,
    )


def _sl3_r3_single_stages(basis, suffix=""):
    """The third swap reduced to one site (oracle-r3-single), at r3's
    arguments: Gamma-ratio diagonals in the z and y exponents around Laurent
    flows exp(-+(y/z) dx), on the variables x, y, z + suffix of `basis`. On
    site 1 of the pair it is r3 between its frame changes."""
    x, y, z = (basis.var_index(v + suffix) for v in "xyz")
    return (
        Euler(z, 1, lambda u1, u2, u3, v3: u2 - u3 + 1),
        _laurent_flow(basis, -1, num=y, den=z, target=x),
        Euler(y, lambda u1, u2, u3, v3: u1 - v3 + 1,
              lambda u1, u2, u3, v3: u1 - u3 + 1),
        _laurent_flow(basis, 1, num=y, den=z, target=x),
        Euler(z, lambda u1, u2, u3, v3: u2 - v3 + 1, 1),
    )


def _sl3_r3_stages(pair):
    """Third-slot swap u3 <-> v3, at arguments (u1, u2, u3, v3)."""
    s3, s3_inv = _sl3_frame(pair, ("x1", "y1", "z1"), ("x2", "y2", "z2"))
    return (s3, *_sl3_r3_single_stages(pair, "1"), s3_inv)


# factor -> (stage list, side relations): each side is the term list
# (`linop.diffop`) of an operator the factor commutes with; with the
# first-order exchange pairs they pin the factor down. "r3-single", the
# third swap reduced to one site, has none.
SL3_FACTORS = {
    1: (
        _sl3_r1_stages,
        (
            ((1, ("x1",), ()),),
            ((1, ("y1",), ()),),
            ((1, ("z1",), ()),),
            ((1, (), ("z2",)), (-1, ("x2",), ("y2",)), (1, ("x1",), ("y2",))),
        ),
    ),
    2: (
        _sl3_r2_stages,
        (
            ((1, ("y1",), ()), (1, ("x1", "z1"), ())),
            ((1, ("z1",), ()),),
            ((1, ("x2",), ()),),
            ((1, ("y2",), ()),),
        ),
    ),
    3: (
        _sl3_r3_stages,
        (
            ((1, ("x2",), ()),),
            ((1, ("y2",), ()),),
            ((1, ("z2",), ()),),
            ((1, (), ("x1",)), (-1, ("z2",), ("y1",))),
        ),
    ),
    "r3-single": (_sl3_r3_single_stages, ()),
}
