"""Seeded residual suites and an independent linear-solve oracle.

Every check rebuilds its operators from scratch at exact rational parameter
points and evaluates its defining identities on certified windows: it returns
(window, scalar) when all hold and raises CheckFailed with a monomial witness
at the first that does not, or CheckSkipped at a degenerate point; `run_check`
turns either outcome into a CheckResult.  Points are drawn from a seeded
pool, so a report is a pure function of (suite, seed, cap).  Every factor a
check builds skips itself: `_factor` turns the pole that evaluating its path
table meets into CheckSkipped, with the Pochhammer symbol that vanishes as
the reason, and a resample follows.

A check zero-tests in one place, `_vanishes`, which tests a residual on a
given window or on its own certified height, fails with the relation's
label in front of the witness and returns the height it tested; a pass
reports the least such height as its window.  Every relation is a list of
labelled pairs (label, A, B), A and B operators or Lax blocks: `_equal`
tests A = B, each difference one `op_comb` over both sides' terms, and
`_intertwines` tests R A = B R, each residual one `compose_sum`.  The oracle
checks re-derive each elementary R-operator as the nullspace of its
first-order intertwining system, the same labelled pairs (`_first_order` and
the side pairs), by fraction-free elimination and compare the normalized
generator with the factor its path table gives, entry by entry.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from operator import attrgetter
from typing import Callable, NamedTuple

from .exactnum import PoleAtParameter, rat_str
from .linop import (
    DegenerateDecomposition,
    SparseOp,
    commutator,
    compose,
    compose_sum,
    diffop,
    generators,
    identity_op,
    int_echelon_nullspace,
    is_zero,
    lax_from_gl,
    lax_from_matrix,
    lax_mul,
    lax_terms,
    mat_inv,
    mat_mul,
    mat_sub,
    op_comb,
    op_scale,
    pair_swap,
    path_op,
    path_table,
    rational_op,
    scaled_block,
    zero_op,
)
from .sl2core import (
    _sl2_r1_stages,
    _sl2_r2_stages,
    SL2_GENERATORS,
    Sl2Params,
    SpectralMismatch,
    sl2_casimirs,
    sl2_lax,
    sl2_lax_factored,
    sl2_pair,
    sl2_rhat_closed,
    sl2_site,
    sl2_spectral,
    ybe_fundamental_residual,
)
from .sl3core import (
    _sl3_r1_stages,
    _sl3_r2_stages,
    _sl3_r3_stages,
    _sl3_r3_single_stages,
    SL3_GENERATORS,
    Sl3Params,
    op_scalar_part,
    sl3_casimirs,
    sl3_findim_dim,
    sl3_findim_module,
    sl3_invariance_matrix,
    sl3_lax,
    sl3_lax_factored,
    sl3_pair,
    sl3_shift_flows,
    sl3_site,
    sl3_weights,
)


class CheckSkipped(Exception):
    """The parameter point is degenerate for the check; args[0] is the
    reason."""


class CheckFailed(Exception):
    """A relation of the check fails on `window`, first at `witness`."""

    def __init__(self, window, witness):
        super().__init__(window, witness)
        self.window = window
        self.witness = witness


# ---------------------------------------------------------------------------
# Check results and report serialization

@dataclass
class CheckResult:
    name: str
    params: list
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
    if len(wit) == 3:  # Lax witnesses carry the block label in front
        return (f"{wit[1]} in {wit[0]}", wit[2])
    return (str(wit[0]), str(wit[1]))


def report_to_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Parameter sampling and lowest-weight normalization

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


def lwv_normalize(op: SparseOp):
    """Scale so the vacuum line is fixed with coefficient 1; returns
    (normalized op, original coefficient). An operator that moves the vacuum
    line fails at its basis' cap."""
    col = op.col(0)
    c = col.get(0, Fraction(0))
    tail = {k: v for k, v in col.items() if k != 0 and v}
    if c == 0 or tail:
        if tail:
            k = min(tail)
            dom = op.domain
            wit = (dom.mono_str(dom.monomials[k]), rat_str(tail[k]))
        else:
            wit = ("1", "0")
        raise CheckFailed(op.domain.cap, wit)
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


def _vacuous(A, B, fa, fb, blocks):
    """Whether A and B are diagonal on the columns of `blocks` with one value
    A*fa = B*fb per block, so that X A = B X holds for every
    charge-preserving X there: lambda X_q - X_q lambda = 0."""
    for cols in blocks:
        values = set()
        for m in cols:
            a, b = A.cols.get(m, {}), B.cols.get(m, {})
            if len(a) > (m in a) or len(b) > (m in b):
                return False
            values |= {a.get(m, 0) * fa, b.get(m, 0) * fb}
        if len(values) > 1:
            return False
    return True


def intertwiner_oracle(pairs, basis):
    """Solve X A = B X for all labelled pairs (label, A, B) simultaneously,
    A and B operators or Lax blocks, each made one operator (`op_comb`).

    The unknown X is restricted to the charge-preserving sector (the system
    splits by the row-minus-column charge difference of X, and the operators
    being re-derived are charge-preserving, so that sector is complete).
    Equations are imposed on every basis column m with height inside the
    certified windows of A and B. A pair that is diagonal there with one
    value per charge block, the same for A and B, holds for every such X;
    it is skipped, since all its rows would cancel.
    Returns a list of solution operators, one per nullspace dimension.
    """
    charges = charge_vectors(basis)
    blocks = _charge_blocks(charges)
    unknowns = []
    for q in sorted(blocks):
        for r in blocks[q]:
            for c in blocks[q]:
                unknowns.append((r, c))
    equations = []
    for _, A, B in pairs:
        A, B = op_comb(lax_terms(A)), op_comb(lax_terms(B))
        top = min(A.certified, B.certified)
        # X A = B X over the common denominator A.den * B.den: the numerators
        # of A are scaled by B.den and those of B by A.den
        fa, fb = B.den, A.den
        imposed = [q for q in blocks.values() if basis.heights[q[0]] <= top]
        if _vacuous(A, B, fa, fb, imposed):  # a block has one height
            continue
        for m in range(len(basis)):
            if basis.heights[m] > top:
                continue
            # row r collects the (r, c) entries of X A and the (rp, m)
            # entries of B X; for a fixed column m only (r, m) can be both
            rows = {}
            for c, a in A.cols.get(m, {}).items():
                for r in blocks[charges[c]]:
                    rows.setdefault(r, {})[(r, c)] = a * fa
            for rp in blocks[charges[m]]:
                for r, b in B.cols.get(rp, {}).items():
                    acc = rows.setdefault(r, {})
                    v = acc.get((rp, m), 0) - b * fb
                    if v:
                        acc[(rp, m)] = v
                    else:
                        del acc[(rp, m)]
            equations.extend(row for row in rows.values() if row)
    sols = int_echelon_nullspace(equations, unknowns)
    return [_solution_to_op(basis, s) for s in sols]


def _solution_to_op(basis, sol):
    cols = {}
    for (r, c), v in sol.items():
        if v:
            cols.setdefault(c, {})[r] = v
    return rational_op(basis, cols, 0, basis.cap)


def _oracle_check(basis, pairs, closed):
    """The oracle's one solution and `closed` span the same line."""
    sols = intertwiner_oracle(pairs, basis)
    if not sols:
        raise CheckFailed(basis.cap, ("nullspace", "empty"))
    if len(sols) > 1:
        raise CheckSkipped(f"nullspace dimension {len(sols)}")
    return _same_line(sols[0], closed)


# ---------------------------------------------------------------------------
# Relation helpers shared by the check catalog. A relation is a list of
# labelled pairs (label, A, B), A and B operators or Lax blocks; each helper
# raises CheckFailed on the first pair that fails and returns the least
# height it tested.

def _vanishes(label, res, window=None):
    """The one zero test of a check: `res` kills every monomial of height
    <= `window`, or of its own certified height when no window is given.
    Raises CheckFailed with the label (unless None) in front of the
    witness; returns the height tested."""
    h = res.certified if window is None else window
    ok, wit = is_zero(res, h)
    if not ok:
        raise CheckFailed(h, wit if label is None else (label, *wit))
    return h


def _blocks(A, B):
    """The block pairs ("block (i,j)", A_ij, B_ij) of two Lax matrices, in
    row-major order."""
    n = A.size
    return [
        (f"block ({i},{j})", A.blocks[i][j], B.blocks[i][j])
        for i in range(n)
        for j in range(n)
    ]


def _intertwines(R, pairs, window=None):
    """R A = B R for each pair: the residual R A - B R is one `compose_sum`
    over both sides' terms, tabulated up to `window`, and `_vanishes`."""
    return min(
        _vanishes(
            label,
            compose_sum(
                [(R, t, c) for t, c in lax_terms(A)]
                + [(t, R, -c) for t, c in lax_terms(B)],
                upto=window,
            ),
            window,
        )
        for label, A, B in pairs
    )


def _equal(pairs, window=None):
    """A = B for each pair: the difference A - B is one `op_comb` over both
    sides' terms, and `_vanishes`."""
    return min(
        _vanishes(
            label,
            op_comb(lax_terms(A) + tuple((t, -c) for t, c in lax_terms(B))),
            window,
        )
        for label, A, B in pairs
    )


def _same_line(A, B):
    """A and B agree after lowest-weight normalization on their common
    certified window; returns (that window, A's vacuum coefficient)."""
    a, c = lwv_normalize(A)
    b, _ = lwv_normalize(B)
    return _equal([(None, a, b)]), c


# ---------------------------------------------------------------------------
# sl2 checks

def _sl2_point(draws):
    l1, l2, u, v = draws
    return Sl2Params(l1, u), Sl2Params(l2, v)


_sl2_slots = attrgetter("u1", "u2")


def _sl2_sides(fixed, pair):
    """The side relations of the sl2 factor that leaves site `fixed` in
    place: it commutes with multiplication by that site's variable."""
    return (diffop(pair, (1, ("z" + fixed,), ())),)


def _sl2_spectral(cap, draws, mutate):
    l1, l2, u, v = draws
    t, s = map(_sl2_slots, _sl2_point(draws))
    n_max = min(6, cap - 1)
    pair = sl2_pair(cap)
    swap = rhat("sl2", pair, t, s)
    R = compose(pair_swap(pair), swap)
    try:
        sl2_spectral(R, l1, l2, u - v, n_max)
    except (DegenerateDecomposition, SpectralMismatch) as e:
        raise CheckFailed(n_max, (str(e), ""))
    return n_max, None


def _ybe_fundamental(cap, draws, mutate):
    u, v = draws
    for d in (2, 3):
        res = ybe_fundamental_residual(u, v, d)
        if res:
            i, j = min(res)
            raise CheckFailed(0, (f"d={d} entry ({i},{j})", rat_str(res[i, j])))
    return 0, None


def _sl2_closed_form(cap, draws, mutate):
    p1, p2 = _sl2_point(draws)
    l1, l2, w = p1.ell, p2.ell, p1.u - p2.u
    t, s = _sl2_slots(p1), _sl2_slots(p2)
    pair = sl2_pair(cap)
    return _same_line(rhat("sl2", pair, t, s), sl2_rhat_closed(pair, l1, l2, w))


# ---------------------------------------------------------------------------
# sl3 checks

def _sl3_point(draws):
    m1, n1, u, m2, n2, v = draws
    return Sl3Params(m1, n1, u), Sl3Params(m2, n2, v)


def _sl3_findim(cap, draws, mutate):
    want = {(1, 0): 3, (0, 1): 3, (1, 1): 8, (2, 0): 6, (0, 2): 6, (2, 1): 15}
    for (M, N), d in sorted(want.items()):
        _, vectors = sl3_findim_module(M, N)
        if len(vectors) != d or sl3_findim_dim(M, N) != d:
            raise CheckFailed(0, (f"(M,N)=({M},{N})", f"dim {len(vectors)}, want {d}"))
    return 0, None


def _sl3_invariance(cap, draws, mutate):
    a, b, c, m, n, u = draws
    basis = sl3_site(cap)
    fwd, inv = sl3_shift_flows(basis, a, b, c)
    one = identity_op(basis)
    inverse = _equal([(None, compose(fwd, inv), one), (None, compose(inv, fwd), one)])
    M = sl3_invariance_matrix(a, b, c)
    L = sl3_lax(basis, *Sl3Params(m, n, u).triple)
    w = cap - 2
    lhs = lax_mul(
        lax_from_matrix(basis, mat_inv(M)), lax_mul(L, lax_from_matrix(basis, M), w), w
    )
    # M^-1 L M = S^-1 L S on the module side, S = fwd: with inv . fwd = 1
    # tested above, that is S (M^-1 L M) = L S
    return min(inverse, _intertwines(fwd, _blocks(lhs, L), w)), None


def _sl3_sides_r1(pair):
    return (
        diffop(pair, (1, ("x1",), ())),
        diffop(pair, (1, ("y1",), ())),
        diffop(pair, (1, ("z1",), ())),
        diffop(pair, (1, (), ("z2",)), (-1, ("x2",), ("y2",)), (1, ("x1",), ("y2",))),
    )


def _sl3_sides_r2(pair):
    return (
        diffop(pair, (1, ("y1",), ()), (1, ("x1", "z1"), ())),
        diffop(pair, (1, ("z1",), ())),
        diffop(pair, (1, ("x2",), ())),
        diffop(pair, (1, ("y2",), ())),
    )


def _sl3_sides_r3(pair):
    return (
        diffop(pair, (1, ("x2",), ())),
        diffop(pair, (1, ("y2",), ())),
        diffop(pair, (1, ("z2",), ())),
        diffop(pair, (1, (), ("x1",)), (-1, ("z2",), ("y1",))),
    )


def _sl3_global(cap, draws, mutate):
    """Weight-shift intertwining: each factor, and the full swap, carries
    its first-order pairs, the blocks of L1 + L2 at (t, s) to those at the
    slot tuples it leaves, which are the total generators at the shifted
    weights."""
    a = _algebra("sl3")
    t, s = map(a.slots, a.point(draws))
    pair = a.pair(cap)
    swap = rhat("sl3", pair, t, s)
    # each factor k at (t, s) and the slot tuples it leaves, then the full swap
    jobs = []
    for k in (1, 2, 3):
        args, q1, q2 = _factor_args(t, s, k)
        jobs.append((_factor("sl3", k, pair, args), q1, q2))
    jobs.append((swap, s, t))
    window = min(
        _intertwines(R, _first_order(a, pair, t, s, q1, q2)) for R, q1, q2 in jobs
    )
    return window, None


def _sl3_r3_single_constraints(basis, u1, u2, u3, v3):
    """The pairs (name, A, B) with R A = B R that pin the one-site third swap
    on the x, y, z site `basis`: the generators T21, T23, T12 and T13 at the
    weights of (u1, u2, u3) and of (u1, u2, v3)."""
    g = generators(basis, SL3_GENERATORS, sl3_weights(u1, u2, u3))
    h = generators(basis, SL3_GENERATORS, sl3_weights(u1, u2, v3))
    return [(name, g[name], h[name]) for name in ("T21", "T23", "T12", "T13")]


def _sl3_oracle_single(cap, draws, mutate):
    p1, p2 = _sl3_point(draws)
    args = (*p1.triple, p2.u3)
    basis = sl3_site(cap)
    R = _factor("sl3", "r3-single", basis, args)
    return _oracle_check(basis, _sl3_r3_single_constraints(basis, *args), R)


# ---------------------------------------------------------------------------
# Relations shared by sl2 and sl3
#
# Each relation below is written once over a per-algebra descriptor and a
# factor table.  The descriptors keep their functions as top-level tuple
# entries of a module-level dict, which is where perfbench/spans.py rebinds
# the public sl2core/sl3core functions; it leaves plain tuples behind, so
# read a descriptor through `_algebra`.  It traces no factor table entry.

class _Algebra(NamedTuple):
    point: Callable  # draws -> (p1, p2)
    slots: Callable  # params -> tuple of Lax parameters
    lax: Callable  # (basis, *slots, site label) -> LaxOp
    pair: Callable  # cap -> pair basis
    site: Callable  # cap -> one-site basis
    params: type  # (*weights, u) -> one-site parameters
    table: dict  # generator name -> (term list, weight parts, defining matrix)
    casimirs: Callable  # (gl triangle, *weights) -> [(tag, operator, scalar or None)]
    lax_factored: Callable  # (basis, *slots) -> triangular product LaxOp


_ALGEBRAS = {
    "sl2": _Algebra(
        point=_sl2_point,
        slots=_sl2_slots,
        lax=sl2_lax,
        pair=sl2_pair,
        site=sl2_site,
        params=Sl2Params,
        table=SL2_GENERATORS,
        casimirs=sl2_casimirs,
        lax_factored=sl2_lax_factored,
    ),
    "sl3": _Algebra(
        point=_sl3_point,
        slots=attrgetter("triple"),
        lax=sl3_lax,
        pair=sl3_pair,
        site=sl3_site,
        params=Sl3Params,
        table=SL3_GENERATORS,
        casimirs=sl3_casimirs,
        lax_factored=sl3_lax_factored,
    ),
}

# (algebra, factor k) -> (stage list, side operators commuting with the
# factor), taking the basis. "r3-single" is the third swap reduced to one
# site, which has no side operators.
_FACTORS = {
    ("sl2", 1): (_sl2_r1_stages, partial(_sl2_sides, "1")),
    ("sl2", 2): (_sl2_r2_stages, partial(_sl2_sides, "2")),
    ("sl3", 1): (_sl3_r1_stages, _sl3_sides_r1),
    ("sl3", 2): (_sl3_r2_stages, _sl3_sides_r2),
    ("sl3", 3): (_sl3_r3_stages, _sl3_sides_r3),
    ("sl3", "r3-single"): (_sl3_r3_single_stages, None),
}


def _algebra(alg):
    return _Algebra(*_ALGEBRAS[alg])


def _in_generators(table, C):
    """The traceless matrix C as ((generator, coefficient), ...) over the
    generators of `table`, in table order: an off-diagonal entry through the
    generator whose defining matrix is that unit, the diagonal through the
    diagonal (Cartan) generators."""
    n = len(C)
    coeff, cartan = {}, []
    for g, (_, _, M) in table.items():
        unit = [(i, j) for i in range(n) for j in range(n) if i != j and M[i][j]]
        if unit:
            ((i, j),) = unit
            coeff[g] = Fraction(C[i][j], M[i][j])
        else:
            cartan.append(g)
    # a traceless diagonal is fixed by its first n - 1 entries
    solve = mat_inv([[table[h][2][i][i] for h in cartan] for i in range(n - 1)])
    for h, row in zip(cartan, solve):
        coeff[h] = sum(r * C[i][i] for i, r in enumerate(row))
    return tuple((g, coeff[g]) for g in table if coeff[g])


@lru_cache(maxsize=None)
def _structure_constants(alg):
    """[(a, b, ((generator, coefficient), ...))]: the commutator [a, b] in
    the generators, for each pair a before b in the generator table."""
    table = _algebra(alg).table
    out = []
    for a, b in combinations(table, 2):
        A, B = table[a][2], table[b][2]
        comm = mat_sub(mat_mul(A, B), mat_mul(B, A))
        out.append((a, b, _in_generators(table, comm)))
    return out


@lru_cache(maxsize=None)
def _gl_terms(alg):
    """{(a, b): ((generator, coefficient), ...)}, 1-indexed: the traceless
    part of each unit matrix E_ab in the generators, so that the gl(n)
    triangle entry T_ab is that combination."""
    table = _algebra(alg).table
    n = len(next(iter(table.values()))[2])
    rng = range(n)
    out = {}
    for a in rng:
        for b in rng:
            # E_ab less its trace part, the identity over n where a == b
            C = [[Fraction(int(i == j and a == b), -n) for j in rng] for i in rng]
            C[a][b] += 1
            out[a + 1, b + 1] = _in_generators(table, C)
    return out


def _combination(basis, g, terms):
    """The operator sum of coefficient * g[generator] over `terms`; a single
    unit term is the generator itself."""
    if len(terms) == 1 and terms[0][1] == 1:
        return g[terms[0][0]]
    return op_comb(((zero_op(basis), 1),) + tuple((g[name], c) for name, c in terms))


def _gl(alg, basis, weights):
    """The gl(n) triangle {(a, b): T_ab}, 1-indexed, on `basis` at
    `weights`, from the generator table alone."""
    g = generators(basis, _algebra(alg).table, weights)
    return {ab: _combination(basis, g, terms) for ab, terms in _gl_terms(alg).items()}


def _commutators(alg, cap, draws, mutate):
    """Every commutator of two generators equals its structure-constant
    combination; draws are the weights."""
    a = _algebra(alg)
    basis = a.site(cap)
    g = generators(basis, a.table, draws)
    pairs = (
        (None, commutator(g[x], g[y]), _combination(basis, g, terms))
        for x, y, terms in _structure_constants(alg)
    )
    return _equal(pairs), None


def _casimirs(alg, cap, draws, mutate):
    """Every Casimir is its scalar part times the identity, and that scalar
    is the expected one where the algebra gives it; reports the first."""
    a = _algebra(alg)
    basis = a.site(cap)
    casimirs = a.casimirs(_gl(alg, basis, draws), *draws)
    one = identity_op(basis)
    window = cap
    for tag, C, expected in casimirs:
        s = op_scalar_part(C)
        h = _equal([(None, C, scaled_block(one, s))])
        window = min(window, h)
        if expected is not None and s != expected:
            wit = (f"{tag} scalar", f"{rat_str(s)} != {rat_str(expected)}")
            raise CheckFailed(h, wit)
    return window, op_scalar_part(casimirs[0][1])


def _lax_factor(alg, cap, draws, mutate):
    """The direct Lax matrix equals its gl-generator form and its triangular
    product on window cap - 2; draws are the weights and u."""
    a = _algebra(alg)
    basis = a.site(cap)
    *weights, u = draws
    slots = a.slots(a.params(*draws))
    direct = a.lax(basis, *slots)
    others = (lax_from_gl(_gl(alg, basis, weights), u), a.lax_factored(basis, *slots))
    return min(_equal(_blocks(direct, L), cap - 2) for L in others), None


def _factor_args(t, s, k):
    """Elementary factor k (1-based) exchanges Lax slot k between the sites.

    Returns its arguments t[:k] + s[k-1:] and the Lax parameters of
    site 1 and site 2 after the exchange."""
    j = k - 1
    return t[:k] + s[j:], t[:j] + s[j:k] + t[k:], s[:j] + t[j:k] + s[k:]


def _factor_mutation(mutate, k):
    """The (Euler stage, exponent) that mutate=(factor, stage, exponent)
    asks factor k to double, or None."""
    return mutate[1:] if mutate is not None and mutate[0] == k else None


def _swap_factors(t, s, order):
    """(k, arguments) of the elementary factors of the full swap of
    the Lax slot tuples t and s, in the order they apply: factors n..1 for
    order 1 and 1..n for order 2, each taking the slots the factors before
    it left."""
    n = len(t)
    for k in range(n, 0, -1) if order == 1 else range(1, n + 1):
        args, t, s = _factor_args(t, s, k)
        yield k, args


def _factor(alg, k, basis, args, mutate=None):
    """Factor k of `alg` on `basis`: the path table of its stage list at
    `args`, with the eigenvalue mutation (Euler stage, exponent) `mutate` if
    one is given. Raises CheckSkipped, with the Pochhammer symbol that
    vanishes as its reason, exactly where evaluating the table meets a
    pole."""
    try:
        return path_op(path_table(basis, _FACTORS[alg, k][0]), args, mutate)
    except PoleAtParameter as e:
        raise CheckSkipped(str(e)) from None


def rhat(alg, pair, t, s, order=1, mutate=None):
    """The full swap Rhat(t | s) on `pair`: the product of the elementary
    factors in the given order, each composed on the left of the factors
    already applied. Order 1 is R1 . R2 (. R3), order 2 is (R3 .) R2 . R1.
    Each factor skips itself as it is built, so this raises CheckSkipped
    at the first factor, in the order they apply, that meets a pole."""
    out = None
    for k, args in _swap_factors(t, s, order):
        R = _factor(alg, k, pair, args, _factor_mutation(mutate, k))
        out = R if out is None else compose(R, out)
    return out


def _exchange_laxes(a, pair, t1, t2, q1, q2):
    """L1(t1), L2(t2), L1(q1), L2(q2) on the pair basis."""
    return (
        a.lax(pair, *t1, "1"),
        a.lax(pair, *t2, "2"),
        a.lax(pair, *q1, "1"),
        a.lax(pair, *q2, "2"),
    )


def _first_order(a, pair, t, s, q1, q2):
    """The first-order pairs of the exchange of L1(t) L2(s) for
    L1(q1) L2(q2): the blocks of L1(t) + L2(s) against those of
    L1(q1) + L2(q2), each sum block the two blocks' terms."""
    L1, L2, L1p, L2p = _exchange_laxes(a, pair, t, s, q1, q2)
    return [
        (label, lax_terms(a1) + lax_terms(a2), lax_terms(b1) + lax_terms(b2))
        for (label, a1, b1), (_, a2, b2) in zip(_blocks(L1, L1p), _blocks(L2, L2p))
    ]


def _side_pairs(alg, k, pair):
    """The side relations of factor k as pairs (None, op, op): it commutes
    with each side operator."""
    return [(None, op, op) for op in _FACTORS[alg, k][1](pair)]


def _exchange(alg, k, cap, draws, mutate):
    """Factor k at the point of `draws`, built on the pair basis with
    `mutate`, and what it exchanges. Returns (algebra, pair, factor,
    (t, s, t', s')), the Lax slot tuples taking L1(t) L2(s) to
    L1(t') L2(s')."""
    a = _algebra(alg)
    t, s = map(a.slots, a.point(draws))
    args, q1, q2 = _factor_args(t, s, k)
    pair = a.pair(cap)
    R = _factor(alg, k, pair, args, mutate)
    return a, pair, R, (t, s, q1, q2)


def _factor_exchange(alg, k, cap, draws, mutate):
    """R_k L1(t) L2(s) = L1(t') L2(s') R_k, plus R_k's side relations."""
    a, pair, R, slots = _exchange(alg, k, cap, draws, _factor_mutation(mutate, k))
    L1, L2, L1p, L2p = _exchange_laxes(a, pair, *slots)
    w = cap - 2
    P, Q = lax_mul(L1, L2, w), lax_mul(L1p, L2p, w)
    exchange = _intertwines(R, _blocks(P, Q), w)
    return min(exchange, _intertwines(R, _side_pairs(alg, k, pair))), None


def _factor_orders(alg, cap, draws, mutate):
    """Both factorization orders of the full swap agree after lowest-weight
    normalization."""
    a = _algebra(alg)
    t, s = map(a.slots, a.point(draws))
    pair = a.pair(cap)
    return _same_line(
        rhat(alg, pair, t, s, 1, mutate), rhat(alg, pair, t, s, 2, mutate)
    )


def _full_swap(alg, cap, draws, mutate):
    """Rhat L1(t) L2(s) = L1(s) L2(t) Rhat. Its permuted form, with
    R = P Rhat and right-hand side L2 L1, is not tested apart: the site swap
    P takes L(x, site 2) to L(x, site 1), so that residual is P times this
    one and vanishes with it."""
    a = _algebra(alg)
    t, s = map(a.slots, a.point(draws))
    pair = a.pair(cap)
    A = rhat(alg, pair, t, s, 1, mutate)
    L1, L2, L1p, L2p = _exchange_laxes(a, pair, t, s, s, t)
    w = cap - 2
    P, Q = lax_mul(L1, L2, w), lax_mul(L1p, L2p, w)
    return _intertwines(A, _blocks(P, Q), w), None


def _inverse_scalar(alg, cap, draws, mutate):
    """The reverse swap after the forward one is a scalar."""
    a = _algebra(alg)
    t, s = map(a.slots, a.point(draws))
    pair = a.pair(cap)
    forward = rhat(alg, pair, t, s)
    return _same_line(compose(rhat(alg, pair, s, t), forward), identity_op(pair))


def _oracle(alg, k, cap, draws, mutate):
    """Re-derive factor k from its exchange and side relations alone and
    compare it with the factor its path table gives."""
    a, pair, R, slots = _exchange(alg, k, cap, draws, None)
    pairs = _first_order(a, pair, *slots) + _side_pairs(alg, k, pair)
    return _oracle_check(pair, pairs, R)


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

# (algebra, name) -> (check, number of sampled rationals). A check takes
# (cap, draws, mutate) and returns (window, scalar or None) on a pass; it
# raises CheckSkipped at a degenerate point and CheckFailed on a failing
# relation, and run_check labels the outcome with the name and the draws.
CATALOG = {
    ("sl2", "commutators"): (partial(_commutators, "sl2"), 1),
    ("sl2", "casimir"): (partial(_casimirs, "sl2"), 1),
    ("sl2", "lax-factor"): (partial(_lax_factor, "sl2"), 2),
    ("sl2", "F1"): (partial(_factor_exchange, "sl2", 1), 4),
    ("sl2", "F2"): (partial(_factor_exchange, "sl2", 2), 4),
    ("sl2", "rfact-orders"): (partial(_factor_orders, "sl2"), 4),
    ("sl2", "spectral"): (_sl2_spectral, 4),
    ("sl2", "ybe-fundamental"): (_ybe_fundamental, 2),
    ("sl2", "closed-form"): (_sl2_closed_form, 4),
    ("sl2", "global"): (partial(_full_swap, "sl2"), 4),
    ("sl2", "inverse-scalar"): (partial(_inverse_scalar, "sl2"), 4),
    ("sl2", "oracle-r1"): (partial(_oracle, "sl2", 1), 4),
    ("sl2", "oracle-r2"): (partial(_oracle, "sl2", 2), 4),
    ("sl3", "commutators"): (partial(_commutators, "sl3"), 2),
    ("sl3", "casimirs"): (partial(_casimirs, "sl3"), 2),
    ("sl3", "findim"): (_sl3_findim, 0),
    ("sl3", "lax-factor3"): (partial(_lax_factor, "sl3"), 3),
    ("sl3", "sl3-invariance"): (_sl3_invariance, 6),
    ("sl3", "3F1"): (partial(_factor_exchange, "sl3", 1), 6),
    ("sl3", "3F2"): (partial(_factor_exchange, "sl3", 2), 6),
    ("sl3", "3F3"): (partial(_factor_exchange, "sl3", 3), 6),
    ("sl3", "rfact3-orders"): (partial(_factor_orders, "sl3"), 6),
    ("sl3", "def3"): (partial(_full_swap, "sl3"), 6),
    ("sl3", "global3"): (_sl3_global, 6),
    ("sl3", "inverse-scalar3"): (partial(_inverse_scalar, "sl3"), 6),
    ("sl3", "oracle-r1"): (partial(_oracle, "sl3", 1), 6),
    ("sl3", "oracle-r2"): (partial(_oracle, "sl3", 2), 6),
    ("sl3", "oracle-r3"): (partial(_oracle, "sl3", 3), 6),
    ("sl3", "oracle-r3-single"): (_sl3_oracle_single, 6),
    ("ybe", "ybe-fundamental"): (_ybe_fundamental, 2),
}

# the checks that pass a mutation on to the R-operator they build; every
# other check ignores it
MUTATION_CHECKS = tuple(
    key
    for key, (fn, _) in CATALOG.items()
    if getattr(fn, "func", None) in (_factor_exchange, _factor_orders, _full_swap)
)

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
    """The mutation (factor k, Euler stage, exponent) of a tag: the factor's
    eigenvalue at that stage and exponent is doubled.

    sl2 'r1:K' is (1, 0, K): the one diagonal of r1 at exponent K. sl3
    'r2:b' is (2, 1, 1): the stage lists hold the stages c, b, a in that
    order, and a tag names the first nontrivial exponent, 1."""
    fac, _, which = text.partition(":")
    if algebra == "sl2":
        if fac not in ("r1", "r2") or not which.isdigit() or int(which) < 1:
            raise ValueError(f"bad sl2 mutation tag {text!r}")
        return (int(fac[1]), 0, int(which))
    if fac not in ("r1", "r2", "r3") or which not in ("a", "b", "c"):
        raise ValueError(f"bad sl3 mutation tag {text!r}")
    return (int(fac[1]), "cba".index(which), 1)


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
            ndraws = CATALOG[self.algebra, name][1]
            if self.params is not None and len(self.params) != ndraws:
                raise ValueError(
                    f"check {name!r} takes {ndraws} parameters, "
                    f"got {len(self.params)}"
                )
        if self.mutate is not None and not any(
            (self.algebra, name) in MUTATION_CHECKS for name in self.checks
        ):
            readers = [n for alg, n in MUTATION_CHECKS if alg == self.algebra]
            raise ValueError(
                "no selected check reads the mutation; "
                f"{self.algebra} checks that do: {', '.join(readers)}"
            )
        if self.mutate is not None and self.mutate[2] > self.cap:
            raise ValueError(
                f"mutation exponent {self.mutate[2]} is above cap {self.cap}: "
                "no basis monomial reaches it"
            )


def run_check(algebra, name, cap, draws, mutate=None):
    """The CheckResult of catalog check (algebra, name) at `draws`: a pass
    with its window and scalar, a skip with its reason, or a fail with its
    window and witness."""
    fn, _ = CATALOG[algebra, name]
    params = list(draws)
    try:
        window, scalar = fn(cap, params, mutate)
    except CheckSkipped as e:
        return CheckResult(name, params, 0, "skipped", reason=e.args[0])
    except CheckFailed as e:
        return CheckResult(
            name, params, e.window, "fail", witness=_fmt_witness(e.witness)
        )
    return CheckResult(name, params, window, "pass", scalar=scalar)


def run_one(algebra, name, trial, cap, seed, params, mutate):
    """One sampled instance of a check, or the check at the explicit
    `params` (whose count SuiteConfig has validated); draws at which the
    check skips are logged as skipped entries and resampled from the same
    stream."""
    if params is not None:
        return [run_check(algebra, name, cap, params, mutate)]
    ndraws = CATALOG[algebra, name][1]
    rng = check_rng(seed, name, trial)
    out = []
    for _ in range(RESAMPLE_LIMIT):
        res = run_check(algebra, name, cap, draw_rats(rng, ndraws), mutate)
        out.append(res)
        if res.status != "skipped":
            break
    return out


def _run_one_task(task):
    return run_one(*task)


def ProcessPoolExecutor(max_workers):
    """concurrent.futures' process pool, imported at the first call: only
    `--jobs` > 1 runs one, and the import would cost every run start-up
    time."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


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
    # a forked pool starts all its workers at the first submit
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
