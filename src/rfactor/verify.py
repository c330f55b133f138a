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
`_intertwines` tests R A = B R, each side one operator (an operator as it
is, a block's terms folded by one `op_comb`) and each residual one
`compose_sum` of the two.  A relation between products reads them through
that kernel instead of building them first: a commutator residual
g_x g_y - g_y g_x - sum c g_z is one `compose_sum`, each g_z after the unit,
and so is each residual of two words of factors.

Each factor, its stage list and its side relations, is stated once, in the
factor tables of `sl2core` and `sl3core`, and each site's Lax slots come
from the slot maps there (`sl2_slots`, `sl3_slots`).  `_word` builds
the factors of a word from the Lax slot tuples (t, s), in the order they
apply, and returns the tuples (t', s') their product R leaves,
R L1(t) L2(s) = L1(t') L2(s') R; `_swap` composes them into R, and a
factor is a one-letter word.  The catalog names the words each swap check
builds, and three relations read them, the mutation reaching every factor
they build: `_exchange` tests that relation for one word (a factor, which
also commutes with its side operators, or the full swap), reading both Lax
products off one table per pair basis (`_lax_table`), `_words` that every
word builds the first word's operator, entry by entry (factor orders, a
swap and its reverse, factors applied twice, the empty word as the
identity), each other word's last factor composed inside its residual, and
`_first_orders` that each word carries its first-order pairs.  The
spectral check reads vectors, not operators: it evaluates the full swap's
factors only up to the degree it reads and applies them, and then the site
swap P, to the lowest-weight vectors (`sl2_spectral`).  The oracle
checks re-derive each factor as the nullspace of those first-order pairs
and its side pairs, by fraction-free elimination, scale the solution by its
vacuum entry and compare it with the factor, entry by entry, as the sl2
swap is compared with its closed form.  That is the one normalization in
the catalog: only the solver leaves a scale free.  Its unknowns X[r, c] are
the ints r * n + c, which sort as the pairs (r, c) do, and the charge
structure they range over is built once per basis.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, permutations
from typing import Callable, NamedTuple

from .exactnum import PoleAtParameter, rat_str
from .linop import (
    LaxOp,
    SparseOp,
    compile_lax_table,
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
    lax_table_op,
    lax_terms,
    mat_inv,
    mat_mul,
    mat_sub,
    op_comb,
    op_scalar_part,
    op_scale,
    pair_swap,
    path_op,
    path_table,
    rational_op,
    scaled_block,
    zero_op,
)
from .sl2core import (
    SL2_FACTORS,
    SL2_GENERATORS,
    SpectralMismatch,
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
from .sl3core import (
    SL3_FACTORS,
    SL3_GENERATORS,
    sl3_casimirs,
    sl3_findim_dim,
    sl3_findim_module,
    sl3_invariance_matrix,
    sl3_lax,
    sl3_lax_factored,
    sl3_pair,
    sl3_shift_flows,
    sl3_site,
    sl3_slots,
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

class CheckResult:
    def __init__(
        self,
        name: str,
        params: list,
        window: int,
        status: str,  # "pass" | "fail" | "skipped"
        witness: tuple | None = None,
        scalar: Fraction | None = None,
        reason: str | None = None,
    ):
        if status == "fail" and witness is None:
            raise ValueError("a failing check must carry a witness")
        self.name = name
        self.params = params
        self.window = window
        self.status = status
        self.witness = witness
        self.scalar = scalar
        self.reason = reason

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
# Parameter sampling

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


# ---------------------------------------------------------------------------
# Charge bookkeeping and the intertwining-system oracle

def charge_vectors(basis):
    """Conserved charge pair per basis monomial: (#x + #y, #z - #x), summed
    over the sites.  Both are preserved by every R-operator, and
    height = 2*q1 + q2, so charge-preserving implies height-preserving; on
    the z-only sl2 bases the charge is (0, degree).
    """
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


@lru_cache(maxsize=16)
def _charge_structure(basis):
    """(charges, blocks, unknowns) of `basis`, built once per basis: the
    charge vector of each monomial, {charge: monomial indices} and the
    oracle's unknowns X[r, c] with r and c in one block, keyed by the int
    r * n + c (n = len(basis)), blocks in sorted order, then r, then c.
    As 0 <= c < n, the keys sort exactly as the pairs (r, c) do."""
    charges = charge_vectors(basis)
    blocks = {}
    for i, q in enumerate(charges):
        blocks.setdefault(q, []).append(i)
    n = len(basis)
    unknowns = [r * n + c for q in sorted(blocks) for r in blocks[q] for c in blocks[q]]
    return charges, blocks, unknowns


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
    A and B operators, used as they are, or Lax blocks of terms, each made
    one operator (`op_comb`).

    The unknown X is restricted to the charge-preserving sector (the system
    splits by the row-minus-column charge difference of X, and the operators
    being re-derived are charge-preserving, so that sector is complete).
    The unknown X[r, c] is the int r * n + c, n = len(basis), listed in
    (r, c) order within each charge block; the charges, the blocks and the
    unknown list are built once per basis (`_charge_structure`).
    Equations are imposed on every basis column m with height inside the
    certified windows of A and B. A pair that is diagonal there with one
    value per charge block, the same for A and B, holds for every such X;
    it is skipped, since all its rows would cancel.
    Returns a list of solution operators, one per nullspace dimension.
    """
    n = len(basis)
    charges, blocks, unknowns = _charge_structure(basis)
    equations = []
    for _, A, B in pairs:
        A, B = _whole(A), _whole(B)
        top = min(A.certified, B.certified)
        # X A = B X over the common denominator A.den * B.den: the numerators
        # of A are scaled by B.den and those of B by A.den
        fa, fb = B.den, A.den
        imposed = [q for q in blocks.values() if basis.heights[q[0]] <= top]
        if _vacuous(A, B, fa, fb, imposed):  # a block has one height
            continue
        for m in range(n):
            if basis.heights[m] > top:
                continue
            # row r collects the X[r, c] entries of X A and the X[rp, m]
            # entries of B X; for a fixed column m only X[r, m] can be both
            rows = {}
            for c, a in A.cols.get(m, {}).items():
                for r in blocks[charges[c]]:
                    rows.setdefault(r, {})[r * n + c] = a * fa
            for rp in blocks[charges[m]]:
                k = rp * n + m
                for r, b in B.cols.get(rp, {}).items():
                    acc = rows.setdefault(r, {})
                    v = acc.get(k, 0) - b * fb
                    if v:
                        acc[k] = v
                    else:
                        del acc[k]
            equations.extend(row for row in rows.values() if row)
    sols = int_echelon_nullspace(equations, unknowns)
    return [_solution_to_op(basis, s) for s in sols]


def _solution_to_op(basis, sol):
    n = len(basis)
    cols = {}
    for k, v in sol.items():
        if v:
            r, c = divmod(k, n)
            cols.setdefault(c, {})[r] = v
    return rational_op(basis, cols, 0, basis.cap)


def _oracle_check(basis, pairs, closed):
    """The oracle's one solution, scaled by its vacuum entry c, equals
    `closed`, whose vacuum entry is 1 as built; returns (the window, c).
    This is the one check that normalizes, since only the solver leaves a
    scale free. A solution that kills the vacuum fails at the cap; the
    vacuum is alone in its charge block, so no solution moves it."""
    sols = intertwiner_oracle(pairs, basis)
    if not sols:
        raise CheckFailed(basis.cap, ("nullspace", "empty"))
    if len(sols) > 1:
        raise CheckSkipped(f"nullspace dimension {len(sols)}")
    c = op_scalar_part(sols[0])
    if c == 0:
        raise CheckFailed(basis.cap, ("1", "0"))
    return _equal([(None, op_scale(sols[0], 1 / c), closed)]), c


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


def _whole(X):
    """A side of a relation as one operator: an operator as it is, a Lax
    block of terms folded by one `op_comb`."""
    return X if isinstance(X, SparseOp) else op_comb(X)


def _intertwines(R, pairs, window=None):
    """R A = B R for each pair: each side is one operator (`_whole`), the
    residual R A - B R is one `compose_sum` of the two, tabulated up to
    `window`, and `_vanishes`."""
    return min(
        _vanishes(
            label,
            compose_sum(((R, _whole(A), 1), (_whole(B), R, -1)), upto=window),
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


# ---------------------------------------------------------------------------
# sl2 checks

def _sl2_spectral(cap, draws, mutate):
    """P Rhat on the lowest-weight vectors of degree <= n_max: the word of
    Rhat's factors, each evaluated only up to height n_max, then P."""
    l1, l2, u, v = draws
    _, pair, t, s = _point("sl2", cap, draws)
    n_max = min(6, cap - 1)
    word, _, _ = _word("sl2", pair, t, s, range(len(t), 0, -1), upto=n_max)
    try:
        sl2_spectral((*word, pair_swap(pair)), l1, l2, u - v, n_max)
    except SpectralMismatch as e:
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
    l1, l2, u, v = draws
    _, pair, t, s = _point("sl2", cap, draws)
    R = rhat("sl2", pair, t, s)
    return _equal([(None, R, sl2_rhat_closed(pair, l1, l2, u - v))]), op_scalar_part(R)


# ---------------------------------------------------------------------------
# sl3 checks

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
    L = sl3_lax(basis, *sl3_slots(m, n, u))
    w = cap - 2
    lhs = lax_mul(
        lax_from_matrix(basis, mat_inv(M)), lax_mul(L, lax_from_matrix(basis, M), w), w
    )
    # M^-1 L M = S^-1 L S on the module side, S = fwd: with inv . fwd = 1
    # tested above, that is S (M^-1 L M) = L S
    return min(inverse, _intertwines(fwd, _blocks(lhs, L), w)), None


def _sl3_r3_single_constraints(basis, u1, u2, u3, v3):
    """The pairs (name, A, B) with R A = B R that pin the one-site third swap
    on the x, y, z site `basis`: the generators T21, T23, T12 and T13 at the
    weights of (u1, u2, u3) and of (u1, u2, v3)."""
    g = generators(basis, SL3_GENERATORS, sl3_weights(u1, u2, u3))
    h = generators(basis, SL3_GENERATORS, sl3_weights(u1, u2, v3))
    return [(name, g[name], h[name]) for name in ("T21", "T23", "T12", "T13")]


def _sl3_oracle_single(cap, draws, mutate):
    args = (*sl3_slots(*draws[:3]), sl3_slots(*draws[3:])[2])
    basis = sl3_site(cap)
    R = _factor("sl3", "r3-single", basis, args)
    return _oracle_check(basis, _sl3_r3_single_constraints(basis, *args), R)


# ---------------------------------------------------------------------------
# Relations shared by sl2 and sl3
#
# Each relation below is written once over a per-algebra descriptor and the
# factor tables of sl2core and sl3core.  The descriptors keep their functions
# as top-level tuple entries of a module-level dict, which is where
# perfbench/spans.py rebinds the public sl2core/sl3core functions; it leaves
# plain tuples behind, so read a descriptor through `_algebra`.  It traces no
# factor table entry.

class _Algebra(NamedTuple):
    sites: Callable  # draws -> the draws (*weights, u) of site 1 and of site 2
    slots: Callable  # (*weights, u) -> tuple of Lax parameters
    lax: Callable  # (basis, *slots, site label) -> LaxOp
    pair: Callable  # cap -> pair basis
    site: Callable  # cap -> one-site basis
    table: dict  # generator name -> (term list, weight parts, defining matrix)
    casimirs: Callable  # (gl triangle, *weights) -> [(tag, operator, scalar or None)]
    lax_factored: Callable  # (basis, *slots) -> triangular product LaxOp


_ALGEBRAS = {
    "sl2": _Algebra(
        sites=lambda d: (d[0::2], d[1::2]),
        slots=sl2_slots,
        lax=sl2_lax,
        pair=sl2_pair,
        site=sl2_site,
        table=SL2_GENERATORS,
        casimirs=sl2_casimirs,
        lax_factored=sl2_lax_factored,
    ),
    "sl3": _Algebra(
        sites=lambda d: (d[:3], d[3:]),
        slots=sl3_slots,
        lax=sl3_lax,
        pair=sl3_pair,
        site=sl3_site,
        table=SL3_GENERATORS,
        casimirs=sl3_casimirs,
        lax_factored=sl3_lax_factored,
    ),
}

# (algebra, factor k) -> (stage list, side relations as term lists), read
# off the factor tables of sl2core and sl3core. "r3-single" is the third
# swap reduced to one site, which has no side relations.
_FACTORS = {
    (alg, k): entry
    for alg, table in (("sl2", SL2_FACTORS), ("sl3", SL3_FACTORS))
    for k, entry in table.items()
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
    combination; draws are the weights. Each residual
    g_x g_y - g_y g_x - sum c g_z is one `compose_sum`, a term c g_z being
    g_z after the unit."""
    a = _algebra(alg)
    basis = a.site(cap)
    g = generators(basis, a.table, draws)
    one = identity_op(basis)
    residuals = (
        compose_sum(
            ((g[x], g[y], 1), (g[y], g[x], -1), *((g[z], one, -c) for z, c in terms))
        )
        for x, y, terms in _structure_constants(alg)
    )
    return min(_vanishes(None, res) for res in residuals), None


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
    slots = a.slots(*draws)
    direct = a.lax(basis, *slots)
    others = (lax_from_gl(_gl(alg, basis, weights), u), a.lax_factored(basis, *slots))
    return min(_equal(_blocks(direct, L), cap - 2) for L in others), None


def _factor_args(t, s, k):
    """Elementary factor k (1-based) exchanges Lax slot k between the sites.

    Returns its arguments t[:k] + s[k-1:] and the Lax parameters of
    site 1 and site 2 after the exchange."""
    j = k - 1
    return t[:k] + s[j:], t[:j] + s[j:k] + t[k:], s[:j] + t[j:k] + s[k:]


def _factor(alg, k, basis, args, mutate=None, upto=None):
    """Factor k of `alg` on `basis`: the path table of its stage list at
    `args`, with the eigenvalue mutation (Euler stage, exponent) `mutate` if
    one is given, evaluated up to height `upto` if one is given. Raises
    CheckSkipped, with the Pochhammer symbol that vanishes as its reason,
    exactly where evaluating the table meets a pole."""
    try:
        table = path_table(basis, _FACTORS[alg, k][0])
        return path_op(table, args, mutate, upto=upto)
    except PoleAtParameter as e:
        raise CheckSkipped(str(e)) from None


def _word(alg, pair, t, s, factors, mutate=None, upto=None):
    """The elementary `factors` of `alg` on `pair`, from the Lax slot tuples
    t and s, in the order they apply, and the slot tuples their product
    leaves: returns ([F, ...], t', s'). Each factor is built at
    `_factor_args` of the slots the factors before it left, up to height
    `upto` if one is given; the mutation (factor, Euler stage, exponent)
    `mutate` reaches the factor it names. Each factor skips itself as it is
    built, so this raises CheckSkipped at the first factor, in the order
    they apply, that meets a pole."""
    ops = []
    for k in factors:
        args, t, s = _factor_args(t, s, k)
        hit = mutate[1:] if mutate is not None and mutate[0] == k else None
        ops.append(_factor(alg, k, pair, args, hit, upto))
    return ops, t, s


def _product(pair, ops):
    """The product of `ops` in the order they apply, each composed on the
    left of those before it; the identity on `pair` if there is none."""
    if not ops:
        return identity_op(pair)
    R = ops[0]
    for F in ops[1:]:
        R = compose(F, R)
    return R


def _swap(alg, pair, t, s, factors, mutate=None):
    """The product R of the word of `factors` (`_word`) and the slot tuples
    it leaves: returns (R, t', s') with R L1(t) L2(s) = L1(t') L2(s') R."""
    ops, t, s = _word(alg, pair, t, s, factors, mutate)
    return _product(pair, ops), t, s


def rhat(alg, pair, t, s):
    """The full swap Rhat(t | s) on `pair`, factors n..1: R1 . R2 (. R3)."""
    return _swap(alg, pair, t, s, range(len(t), 0, -1))[0]


def _point(alg, cap, draws):
    """(algebra descriptor, pair basis at `cap`, t, s): the Lax slot
    tuples t and s of the two sites at the point of `draws`."""
    a = _algebra(alg)
    t, s = (a.slots(*d) for d in a.sites(draws))
    return a, a.pair(cap), t, s


def _lax_sum(a, pair, t, s):
    """L1(t) + L2(s) on the pair basis, each block one operator: one
    `op_comb` over the two blocks' terms."""
    L1, L2 = a.lax(pair, *t, "1"), a.lax(pair, *s, "2")
    return LaxOp(
        [
            [op_comb(lax_terms(b1) + lax_terms(b2)) for b1, b2 in zip(r1, r2)]
            for r1, r2 in zip(L1.blocks, L2.blocks)
        ]
    )


def _first_order(a, pair, t, s, q1, q2):
    """The first-order pairs of the exchange of L1(t) L2(s) for
    L1(q1) L2(q2): the blocks of L1(t) + L2(s) against those of
    L1(q1) + L2(q2) (`_lax_sum`)."""
    return _blocks(_lax_sum(a, pair, t, s), _lax_sum(a, pair, q1, q2))


def _side_pairs(alg, k, pair):
    """The side relations of factor k as pairs (None, op, op): it commutes
    with the operator of each side term list."""
    ops = (diffop(pair, *terms) for terms in _FACTORS[alg, k][1])
    return [(None, op, op) for op in ops]


@lru_cache(maxsize=8)
def _lax_table(alg, pair):
    """The exchange checks' Lax product L1(t) L2(s) on `pair`, compiled once
    per process on window cap - 2 (`compile_lax_table`) from the algebra's
    one Lax builder. A gl(n) Lax matrix is n x n in n slots, n the size of
    the defining matrices."""
    a = _algebra(alg)
    n = len(next(iter(a.table.values()))[2])
    return compile_lax_table(
        lambda t: a.lax(pair, *t, "1"), lambda s: a.lax(pair, *s, "2"), n, pair.cap - 2
    )


def _exchange(alg, factors, cap, draws, mutate):
    """R L1(t) L2(s) = L1(t') L2(s') R on window cap - 2 for the product R
    of `factors` (`_swap`), and for a single factor its side relations.
    Both Lax products are the compiled table (`_lax_table`) evaluated at a
    pair of slot tuples, each block one operator. For the full swap
    (t', s') = (s, t); its permuted form, with R = P Rhat and right-hand
    side L2 L1, is not tested apart: the site swap P takes L(x, site 2) to
    L(x, site 1), so that residual is P times this one and vanishes with
    it."""
    _, pair, t, s = _point(alg, cap, draws)
    R, q1, q2 = _swap(alg, pair, t, s, factors, mutate)
    table = _lax_table(alg, pair)
    P, Q = lax_table_op(table, t, s), lax_table_op(table, q1, q2)
    window = _intertwines(R, _blocks(P, Q), cap - 2)
    if len(factors) == 1:
        window = min(window, _intertwines(R, _side_pairs(alg, factors[0], pair)))
    return window, None


def _words(alg, words, cap, draws, mutate):
    """Every word's product from the point's (t, s) equals the first
    word's, entry by entry. The first word's product R is built
    (`_product`); every other word's is its last factor after the product
    of the rest, the empty word's 1 after 1, and stays inside its residual,
    one `compose_sum` (R . 1) - (last . rest), so no other word's whole
    product is built. All factors are built, in order, before any residual
    is tested. Reports R's vacuum coefficient."""
    _, pair, t, s = _point(alg, cap, draws)
    one = identity_op(pair)
    first, *others = (_word(alg, pair, t, s, w, mutate)[0] for w in words)
    R = _product(pair, first)
    ends = [
        (ops[-1], _product(pair, ops[:-1])) if ops else (one, one) for ops in others
    ]
    window = min(
        _vanishes(None, compose_sum(((R, one, 1), (a, b, -1)))) for a, b in ends
    )
    return window, op_scalar_part(R)


def _first_orders(alg, words, cap, draws, mutate):
    """Each word's `_swap` carries the blocks of L1 + L2 at (t, s) to those
    at the slots it leaves, the total generators at the shifted weights;
    all are built, in order, before any is tested, and the blocks at
    (t, s), the same for every word, are summed once (`_lax_sum`)."""
    a, pair, t, s = _point(alg, cap, draws)
    jobs = [_swap(alg, pair, t, s, w, mutate) for w in words]
    left = _lax_sum(a, pair, t, s)
    return min(
        _intertwines(R, _blocks(left, _lax_sum(a, pair, *q))) for R, *q in jobs
    ), None


def _oracle(alg, k, cap, draws, mutate):
    """Re-derive factor k from its exchange and side relations alone and
    compare it with the factor its path table gives."""
    a, pair, t, s = _point(alg, cap, draws)
    R, q1, q2 = _swap(alg, pair, t, s, (k,))
    pairs = _first_order(a, pair, t, s, q1, q2) + _side_pairs(alg, k, pair)
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

# (algebra, name) -> (check, number of sampled rationals). A check takes
# (cap, draws, mutate) and returns (window, scalar or None) on a pass; it
# raises CheckSkipped at a degenerate point and CheckFailed on a failing
# relation, and run_check labels the outcome with the name and the draws.
CATALOG = {
    ("sl2", "commutators"): (partial(_commutators, "sl2"), 1),
    ("sl2", "casimir"): (partial(_casimirs, "sl2"), 1),
    ("sl2", "lax-factor"): (partial(_lax_factor, "sl2"), 2),
    ("sl2", "F1"): (partial(_exchange, "sl2", (1,)), 4),
    ("sl2", "F2"): (partial(_exchange, "sl2", (2,)), 4),
    ("sl2", "rfact-orders"): (partial(_words, "sl2", ((2, 1), (1, 2))), 4),
    ("sl2", "spectral"): (_sl2_spectral, 4),
    ("sl2", "ybe-fundamental"): (_ybe_fundamental, 2),
    ("sl2", "closed-form"): (_sl2_closed_form, 4),
    ("sl2", "global"): (partial(_exchange, "sl2", (2, 1)), 4),
    ("sl2", "inverse-scalar"): (partial(_words, "sl2", ((2, 1, 2, 1), ())), 4),
    ("sl2", "involutions"): (partial(_words, "sl2", ((1, 1), (2, 2), ())), 4),
    ("sl2", "oracle-r1"): (partial(_oracle, "sl2", 1), 4),
    ("sl2", "oracle-r2"): (partial(_oracle, "sl2", 2), 4),
    ("sl3", "commutators"): (partial(_commutators, "sl3"), 2),
    ("sl3", "casimirs"): (partial(_casimirs, "sl3"), 2),
    ("sl3", "findim"): (_sl3_findim, 0),
    ("sl3", "lax-factor3"): (partial(_lax_factor, "sl3"), 3),
    ("sl3", "sl3-invariance"): (_sl3_invariance, 6),
    ("sl3", "3F1"): (partial(_exchange, "sl3", (1,)), 6),
    ("sl3", "3F2"): (partial(_exchange, "sl3", (2,)), 6),
    ("sl3", "3F3"): (partial(_exchange, "sl3", (3,)), 6),
    ("sl3", "rfact3-orders"): (partial(_words, "sl3", ((3, 2, 1), (1, 2, 3))), 6),
    ("sl3", "def3"): (partial(_exchange, "sl3", (3, 2, 1)), 6),
    ("sl3", "global3"): (
        partial(_first_orders, "sl3", ((3, 2, 1), (1,), (2,), (3,))), 6
    ),
    ("sl3", "inverse-scalar3"): (partial(_words, "sl3", ((3, 2, 1, 3, 2, 1), ())), 6),
    ("sl3", "orders3"): (  # all six orders, the full swap's (3, 2, 1) first
        partial(_words, "sl3", tuple(sorted(permutations((1, 2, 3)), reverse=True))), 6
    ),
    ("sl3", "involutions3"): (partial(_words, "sl3", ((1, 1), (2, 2), (3, 3), ())), 6),
    ("sl3", "oracle-r1"): (partial(_oracle, "sl3", 1), 6),
    ("sl3", "oracle-r2"): (partial(_oracle, "sl3", 2), 6),
    ("sl3", "oracle-r3"): (partial(_oracle, "sl3", 3), 6),
    ("sl3", "oracle-r3-single"): (_sl3_oracle_single, 6),
}

# the checks that pass a mutation on to every word of factors they build;
# every other check ignores it
MUTATION_CHECKS = tuple(
    key
    for key, (fn, _) in CATALOG.items()
    if getattr(fn, "func", None) in (_exchange, _words, _first_orders)
)

DEFAULT_CHECKS = {
    "sl2": SL2_DEFAULT_CHECKS,
    "sl3": SL3_DEFAULT_CHECKS,
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


class SuiteConfig:
    """One suite run: its checks at `trials` sampled points each, or once
    at the explicit `params`. Refuses, with ValueError, a cap below 2, no
    trial or no job, explicit params without exactly one explicit check, a
    params count the check does not take and a mutation no selected check
    reads or no monomial reaches; KeyError for an unknown check."""

    def __init__(
        self,
        algebra: str,
        cap: int,
        trials: int = 10,
        seed: int = 0,
        checks: tuple = (),
        params: tuple | None = None,
        mutate: tuple | None = None,
        jobs: int = 1,
    ):
        if cap < 2:
            raise ValueError("--cap must be at least 2")
        if trials < 1:
            raise ValueError("--trials must be positive")
        if jobs < 1:
            raise ValueError("--jobs must be positive")
        if params is not None and len(checks) != 1:
            raise ValueError("--params requires exactly one --check")
        self.algebra = algebra
        self.cap = cap
        self.trials = trials
        self.seed = seed
        self.checks = checks or DEFAULT_CHECKS[algebra]
        self.params = params
        self.mutate = mutate
        self.jobs = jobs
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
