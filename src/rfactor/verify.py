"""Seeded residual suites and an independent linear-solve oracle.

Every check rebuilds its operators from scratch at exact rational parameter
points, evaluates a defining identity on the certified window, and reports
pass/fail with a monomial witness on failure.  Points are drawn from a seeded
pool and filtered by a Pochhammer degeneracy guard, so a report is a pure
function of (suite, seed, cap).  The oracle checks re-derive each elementary
R-operator as the nullspace of its first-order intertwining system by
fraction-free elimination and compare the normalized generator with the
closed-form construction, entry by entry.
"""

from __future__ import annotations

import hashlib
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable, NamedTuple

from .exactnum import PoleAtParameter, rat_str
from .linop import (
    DegenerateDecomposition,
    LaurentLeak,
    SparseOp,
    commutator,
    compose,
    diffop_to_op,
    identity_op,
    int_echelon_nullspace,
    is_zero,
    lax_add,
    lax_compose_scalar,
    lax_is_zero,
    lax_mat_mul,
    lax_mul,
    lax_mul_mat,
    lax_sub,
    mat_inv,
    mat_mul,
    mat_sub,
    op_equal,
    op_scale,
    op_sub,
    pair_swap,
    term,
)
from .sl2core import (
    Sl2Params,
    sl2_casimir,
    sl2_generators,
    sl2_lax,
    sl2_lax_factored,
    sl2_lax_generator_form,
    sl2_pair,
    sl2_r1,
    sl2_r1_pairs,
    sl2_r2,
    sl2_r2_pairs,
    sl2_rhat,
    sl2_rhat_closed,
    sl2_rhat_pairs,
    sl2_site,
    sl2_spectral,
    sl2_spectral_pairs,
    ybe_fundamental_residual,
)
from .sl3core import (
    GEN_COEFF_MATRICES,
    GEN_NAMES,
    Sl3Params,
    coeffs_to_op,
    op_scalar_part,
    sl3_casimirs,
    sl3_findim_dim,
    sl3_findim_module,
    sl3_generators,
    sl3_invariance_matrix,
    sl3_lax,
    sl3_lax_casimir_form,
    sl3_lax_factored,
    sl3_pair,
    sl3_r1,
    sl3_r1_pairs,
    sl3_r2,
    sl3_r2_pairs,
    sl3_r3,
    sl3_r3_pairs,
    sl3_r3_single,
    sl3_rhat,
    sl3_rhat_pairs,
    sl3_shift_flows,
    sl3_site,
    sl3_total_generators,
    sl3_weight_shifts,
)


class NotLowestWeightStable(ValueError):
    """The operator does not fix the line through the vacuum vector."""


class EmptyNullspace(ValueError):
    """An oracle system admits no solution; the constraints are broken."""


class MultiDimensional(ValueError):
    """An oracle nullspace is degenerate at this parameter point."""


# ---------------------------------------------------------------------------
# Check results and report serialization

@dataclass
class CheckResult:
    name: str
    params: list
    cap: int
    window: int
    status: str  # "pass" | "fail" | "skipped"
    witness: tuple | None = None
    scalar: Fraction | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.status == "fail" and self.witness is None:
            raise ValueError("a failing check must carry a witness")

    def to_json(self):
        out = {
            "name": self.name,
            "params": [rat_str(p) for p in self.params],
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = {"monomial": self.witness[0], "value": self.witness[1]}
        if self.scalar is not None:
            out["scalar"] = rat_str(self.scalar)
        if self.status == "skipped":
            out["reason"] = self.reason or ""
        return out


def _fmt_witness(wit):
    if wit is None:
        return ("", "")
    if len(wit) == 3:  # Lax witnesses carry the block label in front
        return (f"{wit[1]} in {wit[0]}", wit[2])
    return (str(wit[0]), str(wit[1]))


def _pass(name, params, cap, window, scalar=None):
    return CheckResult(name, list(params), cap, window, "pass", scalar=scalar)


def _fail(name, params, cap, window, wit):
    return CheckResult(
        name, list(params), cap, window, "fail", witness=_fmt_witness(wit)
    )


def _skip(name, params, cap, reason):
    return CheckResult(name, list(params), cap, 0, "skipped", reason=reason)


def report_to_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Parameter sampling and degeneracy guards

POOL_NUM = 40
POOL_DEN = 12
RESAMPLE_LIMIT = 50


def check_rng(seed: int, name: str, trial: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def draw_rats(rng: random.Random, k: int):
    return [
        Fraction(rng.randint(-POOL_NUM, POOL_NUM), rng.randint(1, POOL_DEN))
        for _ in range(k)
    ]


def degeneracy_guard(pochhammer_pairs, cap):
    """Reject a parameter point when a required denominator Pochhammer symbol
    (b)_k vanishes for some k <= cap. Returns (ok, reason)."""
    for _, b in pochhammer_pairs:
        for j in range(cap):
            if b + j == 0:
                return False, f"({rat_str(b)})_{j + 1} = 0"
    return True, None


def lwv_normalize(op: SparseOp):
    """Scale so the vacuum line is fixed with coefficient 1; returns
    (normalized op, original coefficient)."""
    col = op.col(0)
    c = col.get(0, Fraction(0))
    tail = {k: v for k, v in col.items() if k != 0 and v}
    if c == 0 or tail:
        if tail:
            k = min(tail)
            dom = op.codomain
            wit = (dom.mono_str(dom.monomials[k]), rat_str(tail[k]))
        else:
            wit = ("1", "0")
        raise NotLowestWeightStable(wit)
    return op_scale(op, 1 / c), c


# ---------------------------------------------------------------------------
# Charge bookkeeping and the intertwining-system oracle

def charge_vectors(basis):
    """Conserved charge tuple per basis monomial.

    z-only bases grade by total degree.  For x/y/z site triples the two
    charges per site are (#x + #y, #z - #x); both are preserved by every
    R-operator, and height = 2*q1 + q2, so charge-preserving implies
    height-preserving.
    """
    if all(v.name[0] == "z" for v in basis.vars):
        return [(h,) for h in basis.heights]
    c1, c2 = [], []
    for v in basis.vars:
        lead = v.name[0]
        if lead == "x":
            c1.append(1), c2.append(-1)
        elif lead == "y":
            c1.append(1), c2.append(0)
        elif lead == "z":
            c1.append(0), c2.append(1)
        else:
            raise KeyError(f"no charge rule for variable {v.name}")
    return [
        (
            sum(e * a for e, a in zip(m, c1)),
            sum(e * b for e, b in zip(m, c2)),
        )
        for m in basis.monomials
    ]


def _charge_blocks(charges):
    blocks = {}
    for i, q in enumerate(charges):
        blocks.setdefault(q, []).append(i)
    return blocks


def intertwiner_oracle(constraints, basis, charges=None, expect_dim=None):
    """Solve X A = B X for all constraint pairs (A, B) simultaneously.

    The unknown X is restricted to the charge-preserving sector (the system
    splits by the row-minus-column charge difference of X, and the operators
    being re-derived are charge-preserving, so that sector is complete).
    Equations are imposed on every basis column m with height inside the
    certified windows of A and B.
    Returns a list of solution operators, one per nullspace dimension; with
    expect_dim set, raises EmptyNullspace / MultiDimensional when the
    dimension comes out lower / higher.
    """
    if charges is None:
        charges = charge_vectors(basis)
    blocks = _charge_blocks(charges)
    unknowns = []
    for q in sorted(blocks):
        for r in blocks[q]:
            for c in blocks[q]:
                unknowns.append((r, c))
    equations = []
    for A, B in constraints:
        top = min(A.certified, B.certified, basis.cap - max(0, A.shift))
        for m in range(len(basis)):
            if basis.heights[m] > top:
                continue
            rows = {}
            for c, a in A.col(m).items():
                for r in blocks[charges[c]]:
                    acc = rows.setdefault(r, {})
                    acc[(r, c)] = acc.get((r, c), Fraction(0)) + a
            for rp in blocks[charges[m]]:
                for r, b in B.col(rp).items():
                    acc = rows.setdefault(r, {})
                    acc[(rp, m)] = acc.get((rp, m), Fraction(0)) - b
            equations.extend(rows.values())
    sols = int_echelon_nullspace(equations, unknowns)
    if expect_dim is not None:
        if len(sols) < expect_dim:
            raise EmptyNullspace("the intertwining system has no solution")
        if len(sols) > expect_dim:
            raise MultiDimensional(f"nullspace dimension {len(sols)}")
    return [_solution_to_op(basis, s) for s in sols]


def _solution_to_op(basis, sol):
    cols = {}
    for (r, c), v in sol.items():
        if v:
            cols.setdefault(c, {})[r] = v
    return SparseOp(basis, basis, cols, 0, basis.cap)


def _oracle_check(name, params, basis, constraints, closed, cap):
    sols = intertwiner_oracle(constraints, basis)
    if not sols:
        return _fail(name, params, cap, basis.cap, ("nullspace", "empty"))
    if len(sols) > 1:
        return _skip(name, params, cap, f"nullspace dimension {len(sols)}")
    try:
        xn, cx = lwv_normalize(sols[0])
        rn, _ = lwv_normalize(closed)
    except NotLowestWeightStable as e:
        return _fail(name, params, cap, basis.cap, e.args[0])
    window = min(xn.certified, rn.certified)
    ok, wit = op_equal(xn, rn, window)
    if not ok:
        return _fail(name, params, cap, window, wit)
    return _pass(name, params, cap, window, scalar=cx)


# ---------------------------------------------------------------------------
# Residual helpers shared by the check catalog

def residual_rll(R, L1, L2, L1p, L2p, window, name="rll", params=(), cap=None):
    """CheckResult for R . (L1 L2) - (L1' L2') . R on the given window."""
    lhs = lax_compose_scalar(R, lax_mul(L1, L2), "left")
    rhs = lax_compose_scalar(R, lax_mul(L1p, L2p), "right")
    ok, wit = lax_is_zero(lax_sub(lhs, rhs), window)
    if cap is None:
        cap = R.domain.cap
    if ok:
        return _pass(name, params, cap, window)
    return _fail(name, params, cap, window, wit)


def _commutes(R, op, name, params, cap):
    res = commutator(R, op)
    ok, wit = is_zero(res, res.certified)
    if not ok:
        return _fail(name, params, cap, res.certified, wit)
    return None


@lru_cache(maxsize=4)
def _pair2(cap):
    return sl2_pair(cap)


@lru_cache(maxsize=4)
def _pair3(cap):
    return sl3_pair(cap)


def _mult_op(pair, exps):
    return diffop_to_op(pair, [term(pair, 1, exps)])


def _mat_comm(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


# ---------------------------------------------------------------------------
# sl2 checks

def _sl2_point(draws):
    l1, l2, u, v = draws
    return Sl2Params(l1, u), Sl2Params(l2, v)


def _sl2_commutators(cap, draws, mutate):
    (ell,) = draws
    basis = sl2_site(cap)
    g = sl2_generators(basis, ell)
    rules = [
        (commutator(g["S"], g["Sp"]), g["Sp"], Fraction(1)),
        (commutator(g["S"], g["Sm"]), g["Sm"], Fraction(-1)),
        (commutator(g["Sp"], g["Sm"]), g["S"], Fraction(2)),
    ]
    window = cap
    for lhs, rhs, c in rules:
        res = op_sub(lhs, op_scale(rhs, c))
        window = min(window, res.certified)
        ok, wit = is_zero(res, res.certified)
        if not ok:
            return _fail("commutators", draws, cap, res.certified, wit)
    return _pass("commutators", draws, cap, window)


def _sl2_casimir(cap, draws, mutate):
    (ell,) = draws
    basis = sl2_site(cap)
    C, s = sl2_casimir(basis, ell)
    res = op_sub(C, op_scale(identity_op(basis), s))
    ok, wit = is_zero(res, res.certified)
    if not ok:
        return _fail("casimir", draws, cap, res.certified, wit)
    return _pass("casimir", draws, cap, res.certified, scalar=s)


def _sl2_lax_factor(cap, draws, mutate):
    ell, u = draws
    basis = sl2_site(cap)
    direct = sl2_lax(basis, u + ell, u - ell)
    window = cap - 2
    for other in (
        sl2_lax_generator_form(basis, ell, u),
        sl2_lax_factored(basis, u + ell, u - ell),
    ):
        ok, wit = lax_is_zero(lax_sub(direct, other), window)
        if not ok:
            return _fail("lax-factor", draws, cap, window, wit)
    return _pass("lax-factor", draws, cap, window)


# side relations: the sl2 factor R_k commutes with multiplication by z_k

def _sl2_sides_r1(pair):
    return [_mult_op(pair, {"z1": 1})]


def _sl2_sides_r2(pair):
    return [_mult_op(pair, {"z2": 1})]


def _sl2_spectral(cap, draws, mutate):
    l1, l2, u, v = draws
    p1, p2 = _sl2_point(draws)
    n_max = min(6, cap - 1)
    pairs = sl2_rhat_pairs(p1, p2, 1) + sl2_spectral_pairs(l1, l2, u - v, n_max)
    ok, reason = degeneracy_guard(pairs, cap)
    if not ok:
        return _skip("spectral", draws, cap, reason)
    try:
        sl2_spectral(cap, l1, l2, u, v, n_max)
    except (DegenerateDecomposition, ValueError) as e:
        return _fail("spectral", draws, cap, n_max, (str(e), ""))
    return _pass("spectral", draws, cap, n_max)


def _ybe_fundamental(cap, draws, mutate):
    u, v = draws
    for d in (2, 3):
        r12 = ybe_fundamental_residual(u, v, d)
        for i, row in enumerate(r12):
            for j, val in enumerate(row):
                if val:
                    return _fail(
                        "ybe-fundamental",
                        draws,
                        cap,
                        0,
                        (f"d={d} entry ({i},{j})", rat_str(val)),
                    )
    return _pass("ybe-fundamental", draws, cap, 0)


def _sl2_closed_form(cap, draws, mutate):
    p1, p2 = _sl2_point(draws)
    l1, l2, w = p1.ell, p2.ell, p1.u - p2.u
    pairs = sl2_rhat_pairs(p1, p2, 1) + [
        (2 * l1, l1 + l2 - w),
        (l1 + l2 + w, 2 * l1),
    ]
    ok, reason = degeneracy_guard(pairs, cap)
    if not ok:
        return _skip("closed-form", draws, cap, reason)
    pair = _pair2(cap)
    try:
        n1, c1 = lwv_normalize(sl2_rhat(pair, p1, p2, 1))
        n2, _ = lwv_normalize(sl2_rhat_closed(pair, l1, l2, w))
    except NotLowestWeightStable as e:
        return _fail("closed-form", draws, cap, cap, e.args[0])
    window = min(n1.certified, n2.certified)
    ok, wit = op_equal(n1, n2, window)
    if not ok:
        return _fail("closed-form", draws, cap, window, wit)
    return _pass("closed-form", draws, cap, window, scalar=c1)


# ---------------------------------------------------------------------------
# sl3 checks

def _sl3_point(draws):
    m1, n1, u, m2, n2, v = draws
    return Sl3Params(m1, n1, u), Sl3Params(m2, n2, v)


def _sl3_commutators(cap, draws, mutate):
    m, n = draws
    basis = sl3_site(cap)
    g = sl3_generators(basis, m, n)
    window = cap
    for i in range(len(GEN_NAMES)):
        for j in range(i + 1, len(GEN_NAMES)):
            a, b = GEN_NAMES[i], GEN_NAMES[j]
            lhs = commutator(g[a], g[b])
            rhs = coeffs_to_op(
                _mat_comm(GEN_COEFF_MATRICES[a], GEN_COEFF_MATRICES[b]), g, basis
            )
            res = op_sub(lhs, rhs)
            window = min(window, res.certified)
            ok, wit = is_zero(res, res.certified)
            if not ok:
                return _fail("commutators", draws, cap, res.certified, wit)
    return _pass("commutators", draws, cap, window)


def _sl3_casimirs(cap, draws, mutate):
    m, n = draws
    basis = sl3_site(cap)
    C2, C3 = sl3_casimirs(basis, m, n)
    lam = (-(m + 2 * n) / 3, (n - m) / 3, (n + 2 * m) / 3)
    s2_expected = sum(a * a for a in lam) + 2 * (m + n)
    window = cap
    for C, tag in ((C2, "C2"), (C3, "C3")):
        s = op_scalar_part(C)
        res = op_sub(C, op_scale(identity_op(basis), s))
        window = min(window, res.certified)
        ok, wit = is_zero(res, res.certified)
        if not ok:
            return _fail("casimirs", draws, cap, res.certified, wit)
        if tag == "C2" and s != s2_expected:
            return _fail(
                "casimirs",
                draws,
                cap,
                res.certified,
                ("C2 scalar", f"{rat_str(s)} != {rat_str(s2_expected)}"),
            )
    return _pass("casimirs", draws, cap, window, scalar=op_scalar_part(C2))


def _sl3_findim(cap, draws, mutate):
    want = {(1, 0): 3, (0, 1): 3, (1, 1): 8, (2, 0): 6, (0, 2): 6, (2, 1): 15}
    for (M, N), d in sorted(want.items()):
        _, vectors = sl3_findim_module(M, N)
        if len(vectors) != d or sl3_findim_dim(M, N) != d:
            return _fail(
                "findim",
                draws,
                cap,
                0,
                (f"(M,N)=({M},{N})", f"dim {len(vectors)}, want {d}"),
            )
    return _pass("findim", draws, cap, 0)


def _sl3_lax_factor(cap, draws, mutate):
    m, n, u = draws
    basis = sl3_site(cap)
    p = Sl3Params(m, n, u)
    direct = sl3_lax(basis, *p.triple)
    window = cap - 2
    for other in (
        sl3_lax_casimir_form(basis, m, n, u),
        sl3_lax_factored(basis, *p.triple),
    ):
        ok, wit = lax_is_zero(lax_sub(direct, other), window)
        if not ok:
            return _fail("lax-factor3", draws, cap, window, wit)
    return _pass("lax-factor3", draws, cap, window)


def _sl3_invariance(cap, draws, mutate):
    a, b, c, m, n, u = draws
    basis = sl3_site(cap)
    fwd, inv = sl3_shift_flows(basis, a, b, c)
    ident = identity_op(basis)
    for left, right in ((fwd, inv), (inv, fwd)):
        comp = compose(left, right)
        ok, wit = op_equal(comp, ident, comp.certified)
        if not ok:
            return _fail("sl3-invariance", draws, cap, comp.certified, wit)
    M = sl3_invariance_matrix(a, b, c)
    L = sl3_lax(basis, *Sl3Params(m, n, u).triple)
    lhs = lax_mat_mul(mat_inv(M), lax_mul_mat(L, M))
    # conjugate the module side: S^-1 . L . S, blockwise
    rhs_blocks = [
        [compose(inv, compose(L.blocks[i][j], fwd)) for j in range(3)]
        for i in range(3)
    ]
    window = cap - 2
    for i in range(3):
        for j in range(3):
            ok, wit = op_equal(lhs.blocks[i][j], rhs_blocks[i][j], window)
            if not ok:
                return _fail(
                    "sl3-invariance",
                    draws,
                    cap,
                    window,
                    (f"block ({i},{j})", wit[0] + " -> " + wit[1]),
                )
    return _pass("sl3-invariance", draws, cap, window)


def _sl3_sides_r1(pair):
    mixed = diffop_to_op(
        pair,
        [
            term(pair, 1, None, {"z2": 1}),
            term(pair, -1, {"x2": 1}, {"y2": 1}),
            term(pair, 1, {"x1": 1}, {"y2": 1}),
        ],
    )
    return [
        _mult_op(pair, {"x1": 1}),
        _mult_op(pair, {"y1": 1}),
        _mult_op(pair, {"z1": 1}),
        mixed,
    ]


def _sl3_sides_r2(pair):
    shear = diffop_to_op(
        pair, [term(pair, 1, {"y1": 1}), term(pair, 1, {"x1": 1, "z1": 1})]
    )
    return [
        shear,
        _mult_op(pair, {"z1": 1}),
        _mult_op(pair, {"x2": 1}),
        _mult_op(pair, {"y2": 1}),
    ]


def _sl3_sides_r3(pair):
    mixed = diffop_to_op(
        pair,
        [term(pair, 1, None, {"x1": 1}), term(pair, -1, {"z2": 1}, {"y1": 1})],
    )
    return [
        _mult_op(pair, {"x2": 1}),
        _mult_op(pair, {"y2": 1}),
        _mult_op(pair, {"z2": 1}),
        mixed,
    ]


def _sl3_global(cap, draws, mutate):
    """Weight-shift intertwining: each factor carries the total generators of
    the shifted weights; the full swap exchanges the site weights."""
    p1, p2 = _sl3_point(draws)
    pairs = sl3_rhat_pairs(p1, p2, 1, cap) + sl3_rhat_pairs(p1, p2, 2, cap)
    ok, reason = degeneracy_guard(pairs, cap)
    if not ok:
        return _skip("global3", draws, cap, reason)
    pair = _pair3(cap)
    jobs = []
    for k in (1, 2, 3):
        args, _, _ = _factor_args(p1.triple, p2.triple, k)
        build = _FACTORS["sl3", k][0]
        try:
            R = build(pair, *args)
        except PoleAtParameter as e:
            return _skip("global3", draws, cap, f"pole: {e}")
        w1, w2 = sl3_weight_shifts(f"r{k}", p1, p2)
        jobs.append((R, (p1.m, p1.n), (p2.m, p2.n), w1, w2))
    rhat = sl3_rhat(pair, p1, p2, 1)
    jobs.append((rhat, (p1.m, p1.n), (p2.m, p2.n), (p2.m, p2.n), (p1.m, p1.n)))
    window = cap
    for R, old1, old2, new1, new2 in jobs:
        told = sl3_total_generators(pair, old1, old2)
        tnew = sl3_total_generators(pair, new1, new2)
        for k in GEN_NAMES:
            res = op_sub(compose(R, told[k]), compose(tnew[k], R))
            w = min(res.certified, cap - max(0, told[k].shift))
            window = min(window, w)
            ok, wit = is_zero(res, w)
            if not ok:
                return _fail("global3", draws, cap, w, wit)
    return _pass("global3", draws, cap, window)


def _sl3_oracle_single(cap, draws, mutate):
    name = "oracle-r3-single"
    p1, p2 = _sl3_point(draws)
    u1, u2, u3 = p1.triple
    v3 = p2.u3
    ok, reason = degeneracy_guard(sl3_r3_pairs(u1, u2, u3, v3, cap), cap)
    if not ok:
        return _skip(name, draws, cap, reason)
    basis = sl3_site(cap)

    def dop(terms):
        return diffop_to_op(basis, [term(basis, c, mu, de) for c, mu, de in terms])

    dx = dop([(1, None, {"x": 1})])

    def raise_z(c0):
        return dop(
            [
                (1, {"y": 1}, {"x": 1}),
                (1, {"z": 2}, {"z": 1}),
                (c0, {"z": 1}, None),
            ]
        )

    cross = dop(
        [
            (1, {"x": 2}, {"x": 1}),
            (1, {"x": 1, "y": 1}, {"y": 1}),
            (-1, {"x": 1, "z": 1}, {"z": 1}),
            (-1, {"y": 1}, {"z": 1}),
            (u1 - u2 + 1, {"x": 1}, None),
        ]
    )

    def raise_y(cz, cy):
        return dop(
            [
                (1, {"x": 1, "y": 1}, {"x": 1}),
                (1, {"x": 1, "z": 2}, {"z": 1}),
                (cz, {"x": 1, "z": 1}, None),
                (1, {"y": 2}, {"y": 1}),
                (1, {"y": 1, "z": 1}, {"z": 1}),
                (cy, {"y": 1}, None),
            ]
        )
    constraints = [
        (dx, dx),
        (raise_z(u2 - u3 + 1), raise_z(u2 - v3 + 1)),
        (cross, cross),
        (raise_y(u2 - u3 + 1, u1 - u3 + 2), raise_y(u2 - v3 + 1, u1 - v3 + 2)),
    ]
    try:
        closed = sl3_r3_single(basis, u1, u2, u3, v3)
    except PoleAtParameter as e:
        return _skip(name, draws, cap, f"pole: {e}")
    return _oracle_check(name, draws, basis, constraints, closed, cap)


# ---------------------------------------------------------------------------
# Relations shared by sl2 and sl3
#
# Each relation below is written once over a per-algebra descriptor and a
# factor table.  Both tables keep their functions as top-level tuple entries
# of module-level dicts, which is where perfbench/spans.py rebinds functions
# to trace them; it leaves plain tuples behind, so read a descriptor through
# `_algebra`.

class _Algebra(NamedTuple):
    point: Callable  # draws -> (p1, p2)
    slots: Callable  # params -> tuple of Lax parameters
    lax: Callable  # (basis, *slots, site) -> LaxOp
    sites: tuple  # the two site labels `lax` takes on the pair basis
    pair: Callable  # cap -> pair basis
    rhat: Callable  # (pair, p1, p2, order, mutate) -> full swap
    rhat_pairs: Callable  # (p1, p2, order, cap) -> guard pairs


_ALGEBRAS = {
    "sl2": _Algebra(
        point=_sl2_point,
        slots=attrgetter("u1", "u2"),
        lax=sl2_lax,
        sites=("z1", "z2"),
        pair=_pair2,
        rhat=sl2_rhat,
        rhat_pairs=sl2_rhat_pairs,
    ),
    "sl3": _Algebra(
        point=_sl3_point,
        slots=attrgetter("triple"),
        lax=sl3_lax,
        sites=("1", "2"),
        pair=_pair3,
        rhat=sl3_rhat,
        rhat_pairs=sl3_rhat_pairs,
    ),
}

# (algebra, factor k) -> (builder, guard pairs, side operators)
_FACTORS = {
    ("sl2", 1): (sl2_r1, sl2_r1_pairs, _sl2_sides_r1),
    ("sl2", 2): (sl2_r2, sl2_r2_pairs, _sl2_sides_r2),
    ("sl3", 1): (sl3_r1, sl3_r1_pairs, _sl3_sides_r1),
    ("sl3", 2): (sl3_r2, sl3_r2_pairs, _sl3_sides_r2),
    ("sl3", 3): (sl3_r3, sl3_r3_pairs, _sl3_sides_r3),
}


def _algebra(alg):
    return _Algebra(*_ALGEBRAS[alg])


def _factor_args(t, s, k):
    """Elementary factor k (1-based) exchanges Lax slot k between the sites.

    Returns its builder arguments t[:k] + s[k-1:] and the Lax parameters of
    site 1 and site 2 after the exchange."""
    j = k - 1
    return t[:k] + s[j:], t[:j] + s[j:k] + t[k:], s[:j] + t[j:k] + s[k:]


def _exchange_laxes(a, pair, t1, t2, q1, q2):
    """L1(t1), L2(t2), L1(q1), L2(q2) on the pair basis."""
    s1, s2 = a.sites
    return (
        a.lax(pair, *t1, s1),
        a.lax(pair, *t2, s2),
        a.lax(pair, *q1, s1),
        a.lax(pair, *q2, s2),
    )


def _factor_exchange(name, alg, k, cap, draws, mutate):
    """R_k L1(t) L2(s) = L1(t') L2(s') R_k, plus R_k's side relations."""
    a = _algebra(alg)
    build, guard_pairs, sides = _FACTORS[alg, k]
    p1, p2 = a.point(draws)
    t, s = a.slots(p1), a.slots(p2)
    args, q1, q2 = _factor_args(t, s, k)
    ok, reason = degeneracy_guard(guard_pairs(*args, cap), cap)
    if not ok:
        return _skip(name, draws, cap, reason)
    pair = a.pair(cap)
    inner = mutate[1] if mutate and mutate[0] == f"r{k}" else None
    try:
        R = build(pair, *args, mutate=inner)
    except PoleAtParameter as e:
        return _skip(name, draws, cap, f"pole: {e}")
    except LaurentLeak as e:
        return _fail(name, draws, cap, cap, (str(e), ""))
    res = residual_rll(
        R,
        *_exchange_laxes(a, pair, t, s, q1, q2),
        cap - 2,
        name=name,
        params=draws,
        cap=cap,
    )
    if res.status != "pass":
        return res
    for op in sides(pair):
        bad = _commutes(R, op, name, draws, cap)
        if bad is not None:
            return bad
    return res


def _factor_orders(name, alg, cap, draws, mutate):
    """Both factorization orders of the full swap agree after lowest-weight
    normalization."""
    a = _algebra(alg)
    p1, p2 = a.point(draws)
    pairs = a.rhat_pairs(p1, p2, 1, cap) + a.rhat_pairs(p1, p2, 2, cap)
    ok, reason = degeneracy_guard(pairs, cap)
    if not ok:
        return _skip(name, draws, cap, reason)
    pair = a.pair(cap)
    try:
        a1 = a.rhat(pair, p1, p2, 1, mutate=mutate)
        a2 = a.rhat(pair, p1, p2, 2, mutate=mutate)
    except PoleAtParameter as e:
        return _skip(name, draws, cap, f"pole: {e}")
    except LaurentLeak as e:
        return _fail(name, draws, cap, cap, (str(e), ""))
    try:
        n1, c1 = lwv_normalize(a1)
        n2, _ = lwv_normalize(a2)
    except NotLowestWeightStable as e:
        return _fail(name, draws, cap, cap, e.args[0])
    window = min(n1.certified, n2.certified)
    ok, wit = op_equal(n1, n2, window)
    if not ok:
        return _fail(name, draws, cap, window, wit)
    return _pass(name, draws, cap, window, scalar=c1)


def _full_swap(name, alg, cap, draws, mutate):
    """Rhat L1(t) L2(s) = L1(s) L2(t) Rhat, and its permuted form with
    R = P Rhat."""
    a = _algebra(alg)
    p1, p2 = a.point(draws)
    ok, reason = degeneracy_guard(a.rhat_pairs(p1, p2, 1, cap), cap)
    if not ok:
        return _skip(name, draws, cap, reason)
    pair = a.pair(cap)
    try:
        rhat = a.rhat(pair, p1, p2, 1, mutate=mutate)
    except PoleAtParameter as e:
        return _skip(name, draws, cap, f"pole: {e}")
    except LaurentLeak as e:
        return _fail(name, draws, cap, cap, (str(e), ""))
    t, s = a.slots(p1), a.slots(p2)
    L1, L2, L1p, L2p = _exchange_laxes(a, pair, t, s, s, t)
    res = residual_rll(
        rhat, L1, L2, L1p, L2p, cap - 2, name=name, params=draws, cap=cap
    )
    if res.status != "pass":
        return res
    # the aux-matrix ordering flips under the site permutation
    R = compose(pair_swap(pair), rhat)
    s1, s2 = a.sites
    lhs = lax_compose_scalar(R, lax_mul(L1, L2), "left")
    rhs = lax_compose_scalar(
        R, lax_mul(a.lax(pair, *s, s2), a.lax(pair, *t, s1)), "right"
    )
    ok, wit = lax_is_zero(lax_sub(lhs, rhs), cap - 2)
    if not ok:
        return _fail(name, draws, cap, cap - 2, wit)
    return res


def _inverse_scalar(name, alg, cap, draws, mutate):
    """The reverse swap after the forward one is a scalar."""
    a = _algebra(alg)
    p1, p2 = a.point(draws)
    pairs = a.rhat_pairs(p1, p2, 1, cap) + a.rhat_pairs(p2, p1, 1, cap)
    ok, reason = degeneracy_guard(pairs, cap)
    if not ok:
        return _skip(name, draws, cap, reason)
    pair = a.pair(cap)
    try:
        comp = compose(a.rhat(pair, p2, p1, 1), a.rhat(pair, p1, p2, 1))
    except PoleAtParameter as e:
        return _skip(name, draws, cap, f"pole: {e}")
    try:
        n, c = lwv_normalize(comp)
    except NotLowestWeightStable as e:
        return _fail(name, draws, cap, cap, e.args[0])
    ok, wit = op_equal(n, identity_op(pair), n.certified)
    if not ok:
        return _fail(name, draws, cap, n.certified, wit)
    return _pass(name, draws, cap, n.certified, scalar=c)


def _oracle(name, alg, k, cap, draws, mutate):
    """Re-derive factor k from its exchange and side relations alone and
    compare it with the closed-form pipeline."""
    a = _algebra(alg)
    build, guard_pairs, sides = _FACTORS[alg, k]
    p1, p2 = a.point(draws)
    t, s = a.slots(p1), a.slots(p2)
    args, q1, q2 = _factor_args(t, s, k)
    ok, reason = degeneracy_guard(guard_pairs(*args, cap), cap)
    if not ok:
        return _skip(name, draws, cap, reason)
    pair = a.pair(cap)
    L1, L2, L1p, L2p = _exchange_laxes(a, pair, t, s, q1, q2)
    A, B = lax_add(L1, L2), lax_add(L1p, L2p)
    constraints = [
        (A.blocks[i][j], B.blocks[i][j])
        for i in range(A.size)
        for j in range(A.size)
    ] + [(op, op) for op in sides(pair)]
    try:
        closed = build(pair, *args)
    except PoleAtParameter as e:
        return _skip(name, draws, cap, f"pole: {e}")
    return _oracle_check(name, draws, pair, constraints, closed, cap)


# ---------------------------------------------------------------------------
# Suite configuration and the runner

SL2_DEFAULT_CHECKS = (
    "commutators",
    "casimir",
    "lax-factor",
    "F1",
    "F2",
    "rfact-orders",
    "spectral",
    "ybe-fundamental",
)

SL3_DEFAULT_CHECKS = (
    "commutators",
    "casimirs",
    "findim",
    "lax-factor3",
    "sl3-invariance",
    "3F1",
    "3F2",
    "3F3",
    "rfact3-orders",
    "def3",
)

YBE_DEFAULT_CHECKS = ("ybe-fundamental",)

# name -> (function, number of sampled rationals)
CATALOG = {
    ("sl2", "commutators"): (_sl2_commutators, 1),
    ("sl2", "casimir"): (_sl2_casimir, 1),
    ("sl2", "lax-factor"): (_sl2_lax_factor, 2),
    ("sl2", "F1"): (partial(_factor_exchange, "F1", "sl2", 1), 4),
    ("sl2", "F2"): (partial(_factor_exchange, "F2", "sl2", 2), 4),
    ("sl2", "rfact-orders"): (partial(_factor_orders, "rfact-orders", "sl2"), 4),
    ("sl2", "spectral"): (_sl2_spectral, 4),
    ("sl2", "ybe-fundamental"): (_ybe_fundamental, 2),
    ("sl2", "closed-form"): (_sl2_closed_form, 4),
    ("sl2", "global"): (partial(_full_swap, "global", "sl2"), 4),
    ("sl2", "inverse-scalar"): (partial(_inverse_scalar, "inverse-scalar", "sl2"), 4),
    ("sl2", "oracle-r1"): (partial(_oracle, "oracle-r1", "sl2", 1), 4),
    ("sl2", "oracle-r2"): (partial(_oracle, "oracle-r2", "sl2", 2), 4),
    ("sl3", "commutators"): (_sl3_commutators, 2),
    ("sl3", "casimirs"): (_sl3_casimirs, 2),
    ("sl3", "findim"): (_sl3_findim, 0),
    ("sl3", "lax-factor3"): (_sl3_lax_factor, 3),
    ("sl3", "sl3-invariance"): (_sl3_invariance, 6),
    ("sl3", "3F1"): (partial(_factor_exchange, "3F1", "sl3", 1), 6),
    ("sl3", "3F2"): (partial(_factor_exchange, "3F2", "sl3", 2), 6),
    ("sl3", "3F3"): (partial(_factor_exchange, "3F3", "sl3", 3), 6),
    ("sl3", "rfact3-orders"): (partial(_factor_orders, "rfact3-orders", "sl3"), 6),
    ("sl3", "def3"): (partial(_full_swap, "def3", "sl3"), 6),
    ("sl3", "global3"): (_sl3_global, 6),
    ("sl3", "inverse-scalar3"): (partial(_inverse_scalar, "inverse-scalar3", "sl3"), 6),
    ("sl3", "oracle-r1"): (partial(_oracle, "oracle-r1", "sl3", 1), 6),
    ("sl3", "oracle-r2"): (partial(_oracle, "oracle-r2", "sl3", 2), 6),
    ("sl3", "oracle-r3"): (partial(_oracle, "oracle-r3", "sl3", 3), 6),
    ("sl3", "oracle-r3-single"): (_sl3_oracle_single, 6),
    ("ybe", "ybe-fundamental"): (_ybe_fundamental, 2),
}

DEFAULT_CHECKS = {
    "sl2": SL2_DEFAULT_CHECKS,
    "sl3": SL3_DEFAULT_CHECKS,
    "ybe": YBE_DEFAULT_CHECKS,
}

SL2_MUTATION_TAGS = ("r1:1", "r1:2", "r2:1", "r2:2")
SL3_MUTATION_TAGS = tuple(
    f"{fac}:{stage}" for fac in ("r1", "r2", "r3") for stage in "abc"
)


def parse_mutate(algebra: str, text: str):
    """Mutation tags: sl2 'r1:K' scales the diagonal eigenvalue at exponent K
    by 2; sl3 'r2:b' scales the first nontrivial eigenvalue of that stage."""
    fac, _, which = text.partition(":")
    if algebra == "sl2":
        if fac not in ("r1", "r2") or not which.isdigit() or int(which) < 1:
            raise ValueError(f"bad sl2 mutation tag {text!r}")
        return (fac, (int(which), Fraction(2)))
    if fac not in ("r1", "r2", "r3") or which not in ("a", "b", "c"):
        raise ValueError(f"bad sl3 mutation tag {text!r}")
    return (fac, (which, 1))


@dataclass
class SuiteConfig:
    algebra: str
    cap: int
    trials: int = 10
    seed: int = 0
    checks: tuple = ()
    params: tuple | None = None
    mutate: tuple | None = None
    jobs: int = 1

    def __post_init__(self):
        if not self.checks:
            self.checks = DEFAULT_CHECKS[self.algebra]
        for name in self.checks:
            if (self.algebra, name) not in CATALOG:
                raise KeyError(f"unknown {self.algebra} check {name!r}")


def run_one(algebra, name, trial, cap, seed, params, mutate):
    """One sampled instance of a check; guard-rejected draws are logged as
    skipped entries and resampled from the same stream."""
    fn, ndraws = CATALOG[(algebra, name)]
    if ndraws == 0:
        return [fn(cap, (), mutate)]
    if params is not None:
        if len(params) < ndraws:
            raise ValueError(
                f"check {name!r} needs {ndraws} parameters, got {len(params)}"
            )
        return [fn(cap, list(params[:ndraws]), mutate)]
    rng = check_rng(seed, name, trial)
    out = []
    for attempt in range(RESAMPLE_LIMIT):
        res = fn(cap, draw_rats(rng, ndraws), mutate)
        out.append(res)
        if res.status != "skipped" or attempt == RESAMPLE_LIMIT - 1:
            break
    return out


def _run_one_task(task):
    return run_one(*task)


def run_suite(config: SuiteConfig):
    tasks = []
    for name in config.checks:
        _, ndraws = CATALOG[(config.algebra, name)]
        trials = 1 if (ndraws == 0 or config.params is not None) else config.trials
        for t in range(trials):
            tasks.append(
                (
                    config.algebra,
                    name,
                    t,
                    config.cap,
                    config.seed,
                    config.params,
                    config.mutate,
                )
            )
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            groups = list(pool.map(_run_one_task, tasks))
    else:
        groups = [run_one(*t) for t in tasks]
    results = [r for group in groups for r in group]
    results.sort(key=lambda cr: (cr.name, [rat_str(p) for p in cr.params]))
    return {
        "suite": config.algebra,
        "seed": config.seed,
        "cap": config.cap,
        "checks": [r.to_json() for r in results],
        "all_passed": all(r.status != "fail" for r in results),
    }
