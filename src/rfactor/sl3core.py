"""sl(3) on truncated polynomial modules C[x, y, z].

The module is spanned by monomials x^a y^b z^c with height a + 2b + c <= cap;
1 is the lowest-weight vector of weight (m, n). The Lax matrix has a
three-dimensional auxiliary space; the full parameter swap factorizes into
three elementary R-operators, each an exact substitution / Gamma-ratio /
Laurent-flow pipeline whose intermediate terms may carry negative exponents
but whose output is certified polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Rat
from .polyspace import GradedBasis, VarSpec, enumerate_basis, tensor_basis
from .linop import (
    LaxOp,
    compose,
    diffop_to_op,
    identity_op,
    lax_mul,
    op_add,
    op_scale,
    run_pipeline,
    stage_euler,
    stage_laurent,
    stage_subst,
    subst_op,
    term,
    zero_op,
)

THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class Sl3Params:
    """Weight (m, n) and spectral parameter u.

    The Lax parameter triple is
      u1 = u - 2 - (m + 2n)/3, u2 = u - 1 + (n - m)/3, u3 = u + (n + 2m)/3,
    so that m = u3 - u2 - 1 and n = u2 - u1 - 1.
    """

    m: Rat
    n: Rat
    u: Rat

    @property
    def u1(self) -> Rat:
        return self.u - 2 - (self.m + 2 * self.n) * THIRD

    @property
    def u2(self) -> Rat:
        return self.u - 1 + (self.n - self.m) * THIRD

    @property
    def u3(self) -> Rat:
        return self.u + (self.n + 2 * self.m) * THIRD

    @property
    def triple(self):
        return (self.u1, self.u2, self.u3)


SL3_WEIGHTS = {"x": 1, "y": 2, "z": 1}


def sl3_site(cap: int, suffix: str = "") -> GradedBasis:
    return enumerate_basis(
        [VarSpec("x" + suffix, 1), VarSpec("y" + suffix, 2), VarSpec("z" + suffix, 1)],
        cap,
    )


def sl3_pair(cap: int) -> GradedBasis:
    return tensor_basis(sl3_site(cap, "1"), sl3_site(cap, "2"))


def sl3_generators(basis, m, n, suffix=""):
    """The eight generators acting on C[x, y, z] with lowest weight (m, n)."""
    x, y, z = "x" + suffix, "y" + suffix, "z" + suffix

    def t(c, mu=None, de=None):
        return term(basis, c, mu, de)

    return {
        "T21": diffop_to_op(basis, [t(1, None, {x: 1})]),
        "T31": diffop_to_op(basis, [t(1, None, {y: 1})]),
        "T32": diffop_to_op(basis, [t(1, None, {z: 1}), t(-1, {x: 1}, {y: 1})]),
        "T12": diffop_to_op(
            basis,
            [
                t(-1, {x: 2}, {x: 1}),
                t(-1, {x: 1, y: 1}, {y: 1}),
                t(1, {x: 1, z: 1}, {z: 1}),
                t(1, {y: 1}, {z: 1}),
                t(n, {x: 1}),
            ],
        ),
        "T23": diffop_to_op(
            basis,
            [t(-1, {z: 2}, {z: 1}), t(-1, {y: 1}, {x: 1}), t(m, {z: 1})],
        ),
        "T13": diffop_to_op(
            basis,
            [
                t(-1, {y: 2}, {y: 1}),
                t(-1, {x: 1, y: 1}, {x: 1}),
                t(-1, {y: 1, z: 1}, {z: 1}),
                t(-1, {x: 1, z: 2}, {z: 1}),
                t(m + n, {y: 1}),
                t(m, {x: 1, z: 1}),
            ],
        ),
        "H1": diffop_to_op(
            basis,
            [t(2, {x: 1}, {x: 1}), t(1, {y: 1}, {y: 1}), t(-1, {z: 1}, {z: 1}), t(-n)],
        ),
        "H2": diffop_to_op(
            basis,
            [t(2, {z: 1}, {z: 1}), t(1, {y: 1}, {y: 1}), t(-1, {x: 1}, {x: 1}), t(-m)],
        ),
    }


GEN_NAMES = ("T12", "T13", "T23", "T21", "T31", "T32", "H1", "H2")


def _ematrix(i, j):
    M = [[Fraction(0)] * 3 for _ in range(3)]
    M[i - 1][j - 1] = Fraction(1)
    return M


GEN_COEFF_MATRICES = {
    "T12": _ematrix(1, 2),
    "T13": _ematrix(1, 3),
    "T23": _ematrix(2, 3),
    "T21": _ematrix(2, 1),
    "T31": _ematrix(3, 1),
    "T32": _ematrix(3, 2),
    "H1": [[Fraction(1), 0, 0], [0, Fraction(-1), 0], [0, 0, Fraction(0)]],
    "H2": [[Fraction(0), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(-1)]],
}


def coeffs_to_op(C, gens, basis):
    """Map a traceless 3x3 coefficient matrix to the operator
    sum_{a != b} C[a][b] T_ab + C[0][0] H1 - C[2][2] H2."""
    labels = {
        (0, 1): "T12", (0, 2): "T13", (1, 2): "T23",
        (1, 0): "T21", (2, 0): "T31", (2, 1): "T32",
    }
    acc = zero_op(basis)
    for (a, b), name in labels.items():
        if C[a][b]:
            acc = op_add(acc, op_scale(gens[name], C[a][b]))
    if C[0][0]:
        acc = op_add(acc, op_scale(gens["H1"], C[0][0]))
    if C[2][2]:
        acc = op_add(acc, op_scale(gens["H2"], -C[2][2]))
    return acc


def sl3_gl_ops(basis, m, n, suffix=""):
    """Full gl(3) triangle: T[a][b] for 1 <= a, b <= 3 (1-indexed dict)."""
    g = sl3_generators(basis, m, n, suffix)
    T11 = op_add(op_scale(g["H1"], 2 * THIRD), op_scale(g["H2"], THIRD))
    T22 = op_add(op_scale(g["H2"], THIRD), op_scale(g["H1"], -THIRD))
    T33 = op_add(op_scale(g["H1"], -THIRD), op_scale(g["H2"], -2 * THIRD))
    return {
        (1, 1): T11, (2, 2): T22, (3, 3): T33,
        (1, 2): g["T12"], (1, 3): g["T13"], (2, 3): g["T23"],
        (2, 1): g["T21"], (3, 1): g["T31"], (3, 2): g["T32"],
    }


def sl3_casimirs(basis, m, n, suffix=""):
    """(C2, C3) = (sum T_ab T_ba, sum T_ab T_bc T_ca); both scalar on the
    module. Returns the operators; scalarity is asserted by callers."""
    T = sl3_gl_ops(basis, m, n, suffix)
    rng = (1, 2, 3)
    C2 = None
    for a in rng:
        for b in rng:
            t = compose(T[a, b], T[b, a])
            C2 = t if C2 is None else op_add(C2, t)
    C3 = None
    for a in rng:
        for b in rng:
            for c in rng:
                t = compose(T[a, b], compose(T[b, c], T[c, a]))
                C3 = t if C3 is None else op_add(C3, t)
    return C2, C3


def op_scalar_part(op):
    """The coefficient on the lowest-weight vector 1 (basis index 0)."""
    return op.col(0).get(0, Fraction(0))


# ---------------------------------------------------------------------------
# Finite-dimensional submodules

class _Span:
    """Row-reduced exact span with pivot bookkeeping."""

    def __init__(self):
        self.rows = {}

    def insert(self, vec):
        vec = dict(vec)
        while vec:
            p = min(vec)
            row = self.rows.get(p)
            if row is None:
                c = vec[p]
                self.rows[p] = {k: v / c for k, v in vec.items()}
                return True
            c = vec[p]
            for k, v in row.items():
                w = vec.get(k, Fraction(0)) - c * v
                if w:
                    vec[k] = w
                else:
                    vec.pop(k, None)
        return False

    def __len__(self):
        return len(self.rows)


def sl3_findim_module(M, N):
    """Grow the submodule generated by 1 for integer weight (M, N).

    Returns (basis, span vectors). The internal cap 2(M+N)+2 keeps every
    generator application certified on module vectors (top height 2(M+N)).
    """
    if M < 0 or N < 0 or M != int(M) or N != int(N):
        raise ValueError("finite-dimensional weights must be nonnegative integers")
    cap = 2 * (int(M) + int(N)) + 2
    basis = sl3_site(cap)
    gens = sl3_generators(basis, Fraction(M), Fraction(N))
    span = _Span()
    span.insert({0: Fraction(1)})
    frontier = [{0: Fraction(1)}]
    while frontier:
        new = []
        for vec in frontier:
            for op in gens.values():
                w = op.apply_vec(vec)
                if w and span.insert(dict(w)):
                    new.append(w)
        frontier = new
    vectors = [dict(r) for r in span.rows.values()]
    return basis, vectors


def sl3_findim_dim(M, N):
    return (M + 1) * (N + 1) * (M + N + 2) // 2


# ---------------------------------------------------------------------------
# Lax matrices

def sl3_lax(basis, u1, u2, u3, suffix=""):
    """Direct Lax matrix in the parameter triple (u1, u2, u3)."""
    x, y, z = "x" + suffix, "y" + suffix, "z" + suffix

    def t(c, mu=None, de=None):
        return term(basis, c, mu, de)

    b00 = diffop_to_op(
        basis, [t(1, {x: 1}, {x: 1}), t(1, {y: 1}, {y: 1}), t(u1 + 2)]
    )
    b01 = diffop_to_op(basis, [t(1, None, {x: 1})])
    b02 = diffop_to_op(basis, [t(1, None, {y: 1})])
    b10 = diffop_to_op(
        basis,
        [
            t(-1, {x: 2}, {x: 1}),
            t(-1, {x: 1, y: 1}, {y: 1}),
            t(1, {x: 1, z: 1}, {z: 1}),
            t(1, {y: 1}, {z: 1}),
            t(u2 - u1 - 1, {x: 1}),
        ],
    )
    b11 = diffop_to_op(
        basis, [t(-1, {x: 1}, {x: 1}), t(1, {z: 1}, {z: 1}), t(u2 + 1)]
    )
    b12 = diffop_to_op(basis, [t(1, None, {z: 1}), t(-1, {x: 1}, {y: 1})])
    b20 = diffop_to_op(
        basis,
        [
            t(-1, {x: 1, y: 1}, {x: 1}),
            t(-1, {y: 2}, {y: 1}),
            t(-1, {x: 1, z: 2}, {z: 1}),
            t(-1, {y: 1, z: 1}, {z: 1}),
            t(u3 - u2 - 1, {x: 1, z: 1}),
            t(u3 - u1 - 2, {y: 1}),
        ],
    )
    b21 = diffop_to_op(
        basis,
        [t(-1, {y: 1}, {x: 1}), t(-1, {z: 2}, {z: 1}), t(u3 - u2 - 1, {z: 1})],
    )
    b22 = diffop_to_op(
        basis, [t(-1, {y: 1}, {y: 1}), t(-1, {z: 1}, {z: 1}), t(u3)]
    )
    return LaxOp(
        [[b00, b01, b02], [b10, b11, b12], [b20, b21, b22]],
        params=(u1, u2, u3),
    )


def sl3_lax_casimir_form(basis, m, n, u, suffix=""):
    """[[T11+u, T21, T31], [T12, T22+u, T32], [T13, T23, T33+u]]."""
    T = sl3_gl_ops(basis, m, n, suffix)
    uop = op_scale(identity_op(basis), Fraction(u)) if u else zero_op(basis)
    return LaxOp(
        [
            [op_add(T[1, 1], uop), T[2, 1], T[3, 1]],
            [T[1, 2], op_add(T[2, 2], uop), T[3, 2]],
            [T[1, 3], T[2, 3], op_add(T[3, 3], uop)],
        ]
    )


def sl3_lax_factored(basis, u1, u2, u3, suffix=""):
    """Lower-triangular . upper-triangular . lower-triangular factorization."""
    x, y, z = "x" + suffix, "y" + suffix, "z" + suffix

    def t(c, mu=None, de=None):
        return term(basis, c, mu, de)

    def mul(terms):
        return diffop_to_op(basis, [t(c, mu) for c, mu in terms])

    one = identity_op(basis)
    zero = zero_op(basis)
    xm = mul([(1, {x: 1})])
    zm = mul([(1, {z: 1})])
    ym = mul([(1, {y: 1})])
    yxz = mul([(1, {y: 1}), (1, {x: 1, z: 1})])
    M_left = LaxOp(
        [
            [one, zero, zero],
            [op_scale(xm, Fraction(-1)), one, zero],
            [op_scale(ym, Fraction(-1)), op_scale(zm, Fraction(-1)), one],
        ]
    )
    dxzy = diffop_to_op(basis, [t(1, None, {x: 1}), t(-1, {z: 1}, {y: 1})])
    dy = diffop_to_op(basis, [t(1, None, {y: 1})])
    dz = diffop_to_op(basis, [t(1, None, {z: 1})])
    U = LaxOp(
        [
            [op_scale(one, u1), dxzy, dy],
            [zero, op_scale(one, u2), dz],
            [zero, zero, op_scale(one, u3)],
        ]
    )
    M_right = LaxOp(
        [
            [one, zero, zero],
            [xm, one, zero],
            [yxz, zm, one],
        ]
    )
    # associate as M_left . (U . M_right): keeps every block certified to
    # cap - 2 (the other association loses two more heights on block (2,0))
    return lax_mul(M_left, lax_mul(U, M_right))


def sl3_shift_flows(basis, a, b, c, suffix=""):
    """The group element exp(c (dz - x dy)) exp(b dy) exp(a dx) as an exact
    substitution operator, and its inverse."""
    x, y, z = "x" + suffix, "y" + suffix, "z" + suffix
    fwd = subst_op(
        basis,
        {
            x: {basis.mono({x: 1}): Fraction(1), basis.mono({}): Fraction(a)},
            y: {
                basis.mono({y: 1}): Fraction(1),
                basis.mono({x: 1}): Fraction(-c),
                basis.mono({}): Fraction(b),
            },
            z: {basis.mono({z: 1}): Fraction(1), basis.mono({}): Fraction(c)},
        },
        homogeneous=False,
    )
    inv = subst_op(
        basis,
        {
            x: {basis.mono({x: 1}): Fraction(1), basis.mono({}): Fraction(-a)},
            y: {
                basis.mono({y: 1}): Fraction(1),
                basis.mono({x: 1}): Fraction(c),
                basis.mono({}): Fraction(-b - c * a)},
            z: {basis.mono({z: 1}): Fraction(1), basis.mono({}): Fraction(-c)},
        },
        homogeneous=False,
    )
    return fwd, inv


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
# Pair variables: site 1 = (x1, y1, z1), site 2 = (x2, y2, z2). All stages
# below preserve total height; intermediate monomials may carry negative
# exponents, the output may not.

def _mut(mutate, tag):
    if mutate is not None and mutate[0] == tag:
        return (mutate[1], Fraction(2))
    return None


def sl3_r1(pair, u1, v1, v2, v3, mutate=None):
    """First-slot swap u1 <-> v1.

    Conjugated by the shift to the difference frame and by the frame change
    y -> y + x z on site 2; the core is Gamma-ratio diagonals in the x2 and
    y2 exponents around Laurent flows exp(+-(y2/x2) dz2)."""
    x1, y1, z1 = map(pair.var_index, ("x1", "y1", "z1"))
    x2, y2, z2 = map(pair.var_index, ("x2", "y2", "z2"))
    one = Fraction(1)
    s1 = stage_subst(
        pair,
        {
            x2: {pair.mono({"x2": 1}): one, pair.mono({"x1": 1}): one},
            z2: {pair.mono({"z2": 1}): one, pair.mono({"z1": 1}): one},
            y2: {
                pair.mono({"y2": 1}): one,
                pair.mono({"y1": 1}): one,
                pair.mono({"z1": 1, "x2": 1}): -one,
            },
        },
    )
    s1_inv = stage_subst(
        pair,
        {
            x2: {pair.mono({"x2": 1}): one, pair.mono({"x1": 1}): -one},
            z2: {pair.mono({"z2": 1}): one, pair.mono({"z1": 1}): -one},
            y2: {
                pair.mono({"y2": 1}): one,
                pair.mono({"y1": 1}): -one,
                pair.mono({"z1": 1, "x2": 1}): one,
                pair.mono({"z1": 1, "x1": 1}): -one,
            },
        },
    )
    xz2 = pair.mono({"x2": 1, "z2": 1})
    w_fwd = stage_subst(pair, {y2: {pair.mono({"y2": 1}): one, xz2: one}})
    w_bwd = stage_subst(pair, {y2: {pair.mono({"y2": 1}): one, xz2: -one}})
    stages = [
        s1,
        w_bwd,
        stage_euler(pair, x2, 1, v1 - v2 + 1, mutate=_mut(mutate, "c")),
        stage_laurent(pair, 1, num=y2, den=x2, target=z2),
        stage_euler(
            pair, y2, u1 - v3 + 1, v1 - v3 + 1, mutate=_mut(mutate, "b")
        ),
        stage_laurent(pair, -1, num=y2, den=x2, target=z2),
        stage_euler(pair, x2, u1 - v2 + 1, 1, mutate=_mut(mutate, "a")),
        w_fwd,
        s1_inv,
    ]
    return run_pipeline(pair, stages)


def sl3_r2(pair, u1, u2, v2, v3, mutate=None):
    """Second-slot swap u2 <-> v2."""
    x1, y1, z1 = map(pair.var_index, ("x1", "y1", "z1"))
    x2, y2, z2 = map(pair.var_index, ("x2", "y2", "z2"))
    one = Fraction(1)
    s2 = stage_subst(
        pair,
        {
            x1: {pair.mono({"x1": 1}): one, pair.mono({"x2": 1}): one},
            z2: {pair.mono({"z2": 1}): one, pair.mono({"z1": 1}): one},
            y1: {
                pair.mono({"y1": 1}): one,
                pair.mono({"y2": 1}): one,
                pair.mono({"x1": 1, "z1": 1}): -one,
            },
        },
    )
    s2_inv = stage_subst(
        pair,
        {
            x1: {pair.mono({"x1": 1}): one, pair.mono({"x2": 1}): -one},
            z2: {pair.mono({"z2": 1}): one, pair.mono({"z1": 1}): -one},
            y1: {
                pair.mono({"y1": 1}): one,
                pair.mono({"y2": 1}): -one,
                pair.mono({"x1": 1, "z1": 1}): one,
                pair.mono({"x2": 1, "z1": 1}): -one,
            },
        },
    )
    stages = [
        s2,
        stage_euler(pair, z2, 1, v2 - v3 + 1, mutate=_mut(mutate, "c")),
        stage_laurent(pair, -1, num=y1, den=z2, target=x1),
        stage_euler(
            pair, x1, u1 - v2 + 1, u1 - u2 + 1, mutate=_mut(mutate, "b")
        ),
        stage_laurent(pair, 1, num=y1, den=z2, target=x1),
        stage_euler(pair, z2, u2 - v3 + 1, 1, mutate=_mut(mutate, "a")),
        s2_inv,
    ]
    return run_pipeline(pair, stages)


def sl3_r3(pair, u1, u2, u3, v3, mutate=None):
    """Third-slot swap u3 <-> v3."""
    x1, y1, z1 = map(pair.var_index, ("x1", "y1", "z1"))
    x2, y2, z2 = map(pair.var_index, ("x2", "y2", "z2"))
    one = Fraction(1)
    s3 = stage_subst(
        pair,
        {
            x1: {pair.mono({"x1": 1}): one, pair.mono({"x2": 1}): one},
            z1: {pair.mono({"z1": 1}): one, pair.mono({"z2": 1}): one},
            y1: {
                pair.mono({"y1": 1}): one,
                pair.mono({"y2": 1}): one,
                pair.mono({"x1": 1, "z2": 1}): -one,
            },
        },
    )
    s3_inv = stage_subst(
        pair,
        {
            x1: {pair.mono({"x1": 1}): one, pair.mono({"x2": 1}): -one},
            z1: {pair.mono({"z1": 1}): one, pair.mono({"z2": 1}): -one},
            y1: {
                pair.mono({"y1": 1}): one,
                pair.mono({"y2": 1}): -one,
                pair.mono({"x1": 1, "z2": 1}): one,
                pair.mono({"x2": 1, "z2": 1}): -one,
            },
        },
    )
    stages = [
        s3,
        stage_euler(pair, z1, 1, u2 - u3 + 1, mutate=_mut(mutate, "c")),
        stage_laurent(pair, -1, num=y1, den=z1, target=x1),
        stage_euler(
            pair, y1, u1 - v3 + 1, u1 - u3 + 1, mutate=_mut(mutate, "b")
        ),
        stage_laurent(pair, 1, num=y1, den=z1, target=x1),
        stage_euler(pair, z1, u2 - v3 + 1, 1, mutate=_mut(mutate, "a")),
        s3_inv,
    ]
    return run_pipeline(pair, stages)


def sl3_r1_pairs(u1, v1, v2, v3, cap):
    """Degeneracy-guard Pochhammer pairs for the r1 pipeline at a given cap:
    denominators of the two normalized diagonals plus the negative-exponent
    window of the leftmost diagonal."""
    return [
        (Fraction(1), v1 - v2 + 1),
        (u1 - v3 + 1, v1 - v3 + 1),
        (Fraction(1), u1 - v2 + 1 - cap),
    ]


def sl3_r2_pairs(u1, u2, v2, v3, cap):
    return [
        (Fraction(1), v2 - v3 + 1),
        (u1 - v2 + 1, u1 - u2 + 1),
        (Fraction(1), u2 - v3 + 1 - cap),
    ]


def sl3_r3_pairs(u1, u2, u3, v3, cap):
    return [
        (Fraction(1), u2 - u3 + 1),
        (u1 - v3 + 1, u1 - u3 + 1),
        (Fraction(1), u2 - v3 + 1 - cap),
    ]


def sl3_rhat(pair, p1: Sl3Params, p2: Sl3Params, order=1, mutate=None):
    """Full parameter swap as a product of the three elementary factors.

    order=1: R1(u1 | v1 u2 u3) . R2(u1 u2 | v2 u3) . R3(u1 u2 u3 | v3);
    order=2: R3(v1 v2 u3 | v3) . R2(v1 u2 | v2 v3) . R1(u1 | v1 v2 v3).
    (Composition right to left.)
    """
    u1, u2, u3 = p1.triple
    v1, v2, v3 = p2.triple
    m1 = mutate[1] if mutate and mutate[0] == "r1" else None
    m2 = mutate[1] if mutate and mutate[0] == "r2" else None
    m3 = mutate[1] if mutate and mutate[0] == "r3" else None
    if order == 1:
        r3 = sl3_r3(pair, u1, u2, u3, v3, mutate=m3)
        r2 = sl3_r2(pair, u1, u2, v2, u3, mutate=m2)
        r1 = sl3_r1(pair, u1, v1, u2, u3, mutate=m1)
        return compose(r1, compose(r2, r3))
    if order == 2:
        r1 = sl3_r1(pair, u1, v1, v2, v3, mutate=m1)
        r2 = sl3_r2(pair, v1, u2, v2, v3, mutate=m2)
        r3 = sl3_r3(pair, v1, v2, u3, v3, mutate=m3)
        return compose(r3, compose(r2, r1))
    raise ValueError(f"order must be 1 or 2, not {order}")


def sl3_rhat_pairs(p1, p2, order, cap):
    u1, u2, u3 = p1.triple
    v1, v2, v3 = p2.triple
    if order == 1:
        return (
            sl3_r3_pairs(u1, u2, u3, v3, cap)
            + sl3_r2_pairs(u1, u2, v2, u3, cap)
            + sl3_r1_pairs(u1, v1, u2, u3, cap)
        )
    return (
        sl3_r1_pairs(u1, v1, v2, v3, cap)
        + sl3_r2_pairs(v1, u2, v2, v3, cap)
        + sl3_r3_pairs(v1, v2, u3, v3, cap)
    )


def sl3_weight_shifts(which, p1, p2):
    """Weight (m, n) of both sites after an elementary factor."""
    m1, n1, m2, n2 = p1.m, p1.n, p2.m, p2.n
    if which == "r1":
        xi = p1.u1 - p2.u1
        return (m1, n1 + xi), (m2, n2 - xi)
    if which == "r2":
        xi = p1.u2 - p2.u2
        return (m1 + xi, n1 - xi), (m2 - xi, n2 + xi)
    if which == "r3":
        xi = p1.u3 - p2.u3
        return (m1 - xi, n1), (m2 + xi, n2)
    raise ValueError(which)


def sl3_total_generators(pair, params1, params2):
    """Sums of site generators; params are (m, n) pairs."""
    g1 = sl3_generators(pair, params1[0], params1[1], "1")
    g2 = sl3_generators(pair, params2[0], params2[1], "2")
    return {k: op_add(g1[k], g2[k]) for k in GEN_NAMES}


# ---------------------------------------------------------------------------
# Single-site reduced form of the third factor (used by the oracle tests)

def sl3_r3_single(basis, u1, u2, u3, v3, suffix=""):
    """The third swap reduced to one site: Gamma-ratio diagonals in the z and
    y exponents around Laurent flows exp(-+(y/z) dx)."""
    x = basis.var_index("x" + suffix)
    y = basis.var_index("y" + suffix)
    z = basis.var_index("z" + suffix)
    stages = [
        stage_euler(basis, z, 1, u2 - u3 + 1),
        stage_laurent(basis, -1, num=y, den=z, target=x),
        stage_euler(basis, y, u1 - v3 + 1, u1 - u3 + 1),
        stage_laurent(basis, 1, num=y, den=z, target=x),
        stage_euler(basis, z, u2 - v3 + 1, 1),
    ]
    return run_pipeline(basis, stages)
