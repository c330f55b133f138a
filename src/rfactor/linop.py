"""Exact sparse linear maps on graded bases, with truncation windows.

A SparseOp stores its action column by column over a GradedBasis, which holds
every monomial of height <= cap (for a two-site basis: of total height <=
cap). Since the bases are truncations of infinite modules, equality of stored
matrices is meaningless by itself; instead every operator carries

  shift      -- an upper bound on (output height - input height),
  certified  -- the largest input total height at which the stored action
                agrees exactly with the untruncated operator.

Construction certifies columns up to cap - max(0, shift); composition
propagates certification and only tabulates certified columns. All zero tests
take an explicit height window and refuse to look beyond certification, so a
reported zero is a statement about the actual operators, not an artifact of
truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import ZERO, gamma_ratio_shift
from .polyspace import GradedBasis, comb_add_into, comb_mul, comb_pow

NEG_INF = -(10**9)  # shift of an identically zero operator


class BasisMismatch(ValueError):
    pass


class ShiftViolation(ValueError):
    """An image monomial exceeded the declared height shift."""


class FloorViolation(ValueError):
    """An image monomial fell below a variable's exponent floor."""


class LaurentLeak(ValueError):
    """A pipeline output kept a negative exponent that should have cancelled."""


class WindowBeyondCertified(ValueError):
    """A zero test asked about heights the operator is not exact at."""


class DegenerateDecomposition(ValueError):
    """A lowest-weight kernel did not have the expected dimension."""


class NotHomogeneous(ValueError):
    """A substitution rule does not preserve height."""


class SparseOp:
    __slots__ = ("domain", "codomain", "cols", "shift", "certified")

    def __init__(self, domain, codomain, cols, shift, certified):
        self.domain = domain
        self.codomain = codomain
        self.cols = cols
        self.shift = shift
        self.certified = certified

    def col(self, i):
        return self.cols.get(i, {})

    def apply_vec(self, vec):
        """Apply to an index-keyed vector {col: coeff}."""
        out = {}
        for i, c in vec.items():
            for r, v in self.col(i).items():
                w = out.get(r, ZERO) + c * v
                if w:
                    out[r] = w
                else:
                    del out[r]
        return out

    def entry(self, r, c):
        return self.cols.get(c, {}).get(r, ZERO)


def op_from_action(domain, action, shift, codomain=None):
    """Tabulate `action` (monomial -> {monomial: coeff}) as a SparseOp.

    Columns of height <= codomain cap - max(0, shift) are checked: inside
    that window every image monomial must respect the declared shift and the
    codomain floors, and must land in the codomain basis. Beyond the window
    image monomials falling outside the basis are silently dropped (that is
    the truncation).
    """
    cod = codomain if codomain is not None else domain
    certified = cod.cap - max(0, shift)
    cols = {}
    for i, mono in enumerate(domain.monomials):
        h = domain.heights[i]
        img = action(mono)
        in_window = h <= certified
        col = {}
        for m, c in img.items():
            if not c:
                continue
            j = cod.index.get(m)
            if j is None:
                if not in_window:
                    continue
                if any(e < f for e, f in zip(m, cod.floors)):
                    raise FloorViolation(
                        f"image of {domain.mono_str(mono)} has monomial "
                        f"below floor: exponents {m}"
                    )
                raise ShiftViolation(
                    f"image of {domain.mono_str(mono)} leaves the basis at "
                    f"height {cod.height(m)} (declared shift {shift})"
                )
            if in_window and cod.heights[j] - h > shift:
                raise ShiftViolation(
                    f"image of {domain.mono_str(mono)} has height "
                    f"{cod.heights[j]} > {h} + declared shift {shift}"
                )
            col[j] = c
        if col:
            cols[i] = col
    return SparseOp(domain, cod, cols, shift, certified)


def zero_op(domain, codomain=None):
    cod = codomain if codomain is not None else domain
    return SparseOp(domain, cod, {}, NEG_INF, cod.cap)


def identity_op(basis):
    cols = {i: {i: Fraction(1)} for i in range(len(basis))}
    return SparseOp(basis, basis, cols, 0, basis.cap)


def _require_same(b1, b2, what):
    if not b1.same(b2):
        raise BasisMismatch(f"{what}: bases differ")


def compose(a: SparseOp, b: SparseOp) -> SparseOp:
    """a after b. Only columns certified for the result are tabulated."""
    _require_same(a.domain, b.codomain, "compose")
    if b.shift == NEG_INF or a.shift == NEG_INF:
        return zero_op(b.domain, a.codomain)
    # b sends height h to heights <= h + b.shift, so a must be exact up to
    # h + b.shift; a negative b.shift gains certification room
    certified = min(b.certified, a.certified - b.shift)
    cols = {}
    heights = b.domain.heights
    for i, bc in b.cols.items():
        if heights[i] > certified:
            continue
        out = {}
        for k, c in bc.items():
            ac = a.cols.get(k)
            if not ac:
                continue
            for r, v in ac.items():
                w = out.get(r, ZERO) + c * v
                if w:
                    out[r] = w
                else:
                    del out[r]
        if out:
            cols[i] = out
    return SparseOp(b.domain, a.codomain, cols, a.shift + b.shift, certified)


def op_add(a: SparseOp, b: SparseOp, cb=None) -> SparseOp:
    """a + cb*b (cb defaults to 1)."""
    _require_same(a.domain, b.domain, "add")
    _require_same(a.codomain, b.codomain, "add")
    cols = {}
    for i in set(a.cols) | set(b.cols):
        col = dict(a.col(i))
        comb_add_into(col, b.col(i), cb)
        if col:
            cols[i] = col
    return SparseOp(
        a.domain, a.codomain, cols,
        max(a.shift, b.shift), min(a.certified, b.certified),
    )


def op_sub(a, b):
    return op_add(a, b, Fraction(-1))


def op_scale(a: SparseOp, c) -> SparseOp:
    if not c:
        return zero_op(a.domain, a.codomain)
    cols = {i: {r: c * v for r, v in col.items()} for i, col in a.cols.items()}
    return SparseOp(a.domain, a.codomain, cols, a.shift, a.certified)


def commutator(a, b):
    return op_sub(compose(a, b), compose(b, a))


def site_embed(op: SparseOp, site: int, pair: GradedBasis) -> SparseOp:
    """Embed a one-site operator into a two-site basis: m1*m2 maps to
    op(m1)*m2 (site 1) or m1*op(m2) (site 2); image monomials above the pair
    cap are dropped (that is the truncation)."""
    if pair.factors is None:
        raise BasisMismatch("site_embed target is not a tensor basis")
    b1, b2 = pair.factors
    k = len(b1.vars)
    factor = b1 if site == 1 else b2
    _require_same(op.domain, factor, "site_embed")
    _require_same(op.codomain, factor, "site_embed")
    if op.shift == NEG_INF:
        return zero_op(pair)
    cols = {}
    for i, mono in enumerate(pair.monomials):
        m1, m2 = mono[:k], mono[k:]
        col = op.cols.get(factor.index[m1 if site == 1 else m2])
        if not col:
            continue
        out = {}
        for r, v in col.items():
            img = factor.monomials[r]
            j = pair.index.get(img + m2 if site == 1 else m1 + img)
            if j is not None:
                out[j] = v
        if out:
            cols[i] = out
    # a site-local op is exact on a column as soon as its site height is
    # within op.certified and the shifted total height fits the pair cap
    certified = min(op.certified, pair.cap - max(0, op.shift))
    return SparseOp(pair, pair, cols, op.shift, certified)


def pair_swap(pair: GradedBasis) -> SparseOp:
    """The permutation of the two tensor factors (requires equal factors up to names)."""
    if pair.factors is None:
        raise BasisMismatch("pair_swap target is not a tensor basis")
    b1, b2 = pair.factors
    k = len(b1.vars)
    if len(b1) != len(b2) or b1.weights != b2.weights or b1.floors != b2.floors:
        raise BasisMismatch("pair_swap needs structurally identical factors")
    if b1.monomials != b2.monomials:
        raise BasisMismatch("pair_swap needs identically enumerated factors")
    cols = {
        i: {pair.index[m[k:] + m[:k]]: Fraction(1)}
        for i, m in enumerate(pair.monomials)
    }
    return SparseOp(pair, pair, cols, 0, pair.cap)


def is_zero(op: SparseOp, window: int):
    """(True, None) if op kills every monomial of height <= window, else
    (False, (input monomial string, image string)). Refuses windows beyond
    certification."""
    if window > op.certified:
        raise WindowBeyondCertified(
            f"window {window} exceeds certified height {op.certified}"
        )
    dom = op.domain
    best = None
    for i, col in op.cols.items():
        if dom.heights[i] > window or not col:
            continue
        if best is None or i < best:
            best = i
    if best is None:
        return True, None
    witness = (dom.mono_str(dom.monomials[best]), op.codomain.comb_str(op.cols[best]))
    return False, witness


def op_equal(a, b, window):
    return is_zero(op_sub(a, b), window)


# ---------------------------------------------------------------------------
# Exact sparse linear algebra: fraction-free echelon form and nullspaces

def _gcd_reduce(row):
    g = 0
    for v in row.values():
        g = math.gcd(g, abs(v))
        if g == 1:
            return
    if g > 1:
        for k in row:
            row[k] //= g


def _echelon_insert(row, echelon):
    """Reduce an integer row against the echelon and insert if independent."""
    while row:
        lead = min(row)
        piv = echelon.get(lead)
        if piv is None:
            _gcd_reduce(row)
            echelon[lead] = row
            return
        a, b = row[lead], piv[lead]
        new = {k: b * v for k, v in row.items()}
        for k, v in piv.items():
            w = new.get(k, 0) - a * v
            if w:
                new[k] = w
            else:
                new.pop(k, None)
        row = new


def int_echelon_nullspace(equations, unknowns):
    """Exact nullspace basis of a sparse homogeneous linear system.

    equations: iterable of {unknown id: coefficient}; unknowns: list of ids
    (ids must be mutually orderable). Returns one solution dict per free
    unknown, with value 1 at that unknown and other free unknowns at 0.
    """
    echelon = {}
    for eq in equations:
        row = {k: Fraction(v) for k, v in eq.items() if v}
        if not row:
            continue
        lcm = math.lcm(*(v.denominator for v in row.values()))
        _echelon_insert({k: int(v * lcm) for k, v in row.items()}, echelon)
    free = [u for u in unknowns if u not in echelon]
    leads = sorted(echelon, reverse=True)
    sols = []
    for f in free:
        x = {f: Fraction(1)}
        for lead in leads:
            row = echelon[lead]
            s = Fraction(0)
            for k, v in row.items():
                if k != lead:
                    xv = x.get(k)
                    if xv:
                        s += v * xv
            if s:
                x[lead] = -s / row[lead]
        sols.append({k: v for k, v in x.items() if v})
    return sols


# ---------------------------------------------------------------------------
# Differential-operator term lists
#
# A term is (coef, mult, der): coef * x^mult * d^der acting on monomials by
# falling factorials. mult and der are full-length exponent tuples over the
# basis variables.

def term(basis, coef, mult=None, der=None):
    """Readable term builder: mult/der given as {var name: exponent}."""
    return (Fraction(coef), basis.mono(mult or {}), basis.mono(der or {}))


def diffop_shift(terms, weights):
    return max(
        sum((m - d) * w for m, d, w in zip(mult, der, weights))
        for _, mult, der in terms
    )


def diffop_apply(terms, mono):
    """Apply a term list to a single monomial; returns {monomial: coeff}."""
    out = {}
    for coef, mult, der in terms:
        c = coef
        for e, d in zip(mono, der):
            for t in range(d):
                c *= e - t
            if not c:
                break
        if not c:
            continue
        m = tuple(e - d + g for e, d, g in zip(mono, der, mult))
        w = out.get(m, ZERO) + c
        if w:
            out[m] = w
        else:
            del out[m]
    return out


def diffop_to_op(basis, terms, shift=None):
    if shift is None:
        shift = diffop_shift(terms, basis.weights)
    return op_from_action(basis, lambda m: diffop_apply(terms, m), shift)


# ---------------------------------------------------------------------------
# Pipeline stages: exact maps on combinations (dict monomial -> Rat), used to
# build operators whose intermediate stages leave the truncated basis.

def stage_subst(basis, rules):
    """Simultaneous substitution var -> combination; rules keyed by var index.

    Substituted variables must not carry negative exponents when the stage
    runs (that would need the inverse of a polynomial).
    """
    nvars = len(basis.vars)
    caches = {v: {} for v in rules}
    items = sorted(rules.items())

    def run(comb):
        out = {}
        for mono, c in comb.items():
            acc = None
            for v, repl in items:
                e = mono[v]
                if e == 0:
                    continue
                if e < 0:
                    raise LaurentLeak(
                        f"substitution hit negative power of "
                        f"{basis.vars[v].name}: {mono}"
                    )
                p = comb_pow(repl, e, caches[v])
                acc = p if acc is None else comb_mul(acc, p)
            rest = tuple(
                0 if v in rules else e for v, e in enumerate(mono)
            )
            if acc is None:
                comb_add_into(out, {rest: c})
            else:
                comb_add_into(out, {tuple(a + b for a, b in zip(m, rest)): v2
                                    for m, v2 in acc.items()}, c)
        return out

    return run


def stage_euler(basis, var, a, b, mutate=None):
    """Diagonal stage: multiply by Gamma(n+a)/Gamma(n+b) normalized to 1 at
    n = 0, where n is the exponent of `var`. Exact on any integer exponent.

    mutate=(k, factor) multiplies the eigenvalue at exponent k by factor;
    used only by the mutation-sensitivity harness.
    """
    cache = {}

    def eig(e):
        if e not in cache:
            v = gamma_ratio_shift(a, b, e)
            if mutate is not None and e == mutate[0]:
                v *= mutate[1]
            cache[e] = v
        return cache[e]

    def run(comb):
        out = {}
        for mono, c in comb.items():
            v = eig(mono[var]) * c
            if v:
                out[mono] = v
        return out

    return run


def stage_laurent(basis, sign, num, den, target):
    """exp(sign * (num/den) * d/d(target)) expanded exactly.

    On a monomial with target-exponent t >= 0 the series terminates after
    t+1 terms; each term moves j units of target-exponent onto num and -j
    onto den, which may go negative (the Laurent padding)."""

    def run(comb):
        out = {}
        for mono, c in comb.items():
            t = mono[target]
            if t < 0:
                raise LaurentLeak(
                    f"flow stage needs polynomial {basis.vars[target].name}: {mono}"
                )
            coef = c
            m = list(mono)
            comb_add_into(out, {mono: c})
            for j in range(1, t + 1):
                coef = coef * sign * (t - j + 1) / j
                m[target] -= 1
                m[num] += 1
                m[den] -= 1
                comb_add_into(out, {tuple(m): coef})
        return out

    return run


def subst_op(basis, rules, homogeneous=True):
    """Simultaneous substitution as an operator; rules: {var name: {monomial
    tuple: coeff}}. With homogeneous=True every replacement must preserve the
    variable's height exactly (shift 0); otherwise replacements may only
    lower heights."""
    by_index = {}
    shift = 0
    for name, repl in rules.items():
        vi = basis.var_index(name)
        w = basis.weights[vi]
        for mono in repl:
            h = basis.height(mono)
            if homogeneous and h != w:
                raise NotHomogeneous(
                    f"replacement term {mono} for {name} has height {h} != {w}"
                )
            if h > w:
                raise NotHomogeneous(
                    f"replacement term {mono} for {name} raises height"
                )
        by_index[vi] = repl
    st = stage_subst(basis, by_index)
    return op_from_action(basis, lambda m: st({m: Fraction(1)}), shift)


def run_pipeline(basis, stages):
    """Feed every basis monomial through the stages; the final output must
    lie in the basis again (no Laurent residue, no cap overflow).
    Height-homogeneous stages only: shift 0."""
    cols = {}
    index = basis.index
    for i, mono in enumerate(basis.monomials):
        comb = {mono: Fraction(1)}
        for st in stages:
            comb = st(comb)
        col = {}
        for m, c in comb.items():
            if not c:
                continue
            j = index.get(m)
            if j is None:
                if min(m) < 0:
                    raise LaurentLeak(
                        f"pipeline output of {basis.mono_str(mono)} kept a "
                        f"negative exponent: {m}"
                    )
                raise ShiftViolation(
                    f"pipeline output of {basis.mono_str(mono)} left the "
                    f"basis: {m}"
                )
            col[j] = c
        if col:
            cols[i] = col
    return SparseOp(basis, basis, cols, 0, basis.cap)


# ---------------------------------------------------------------------------
# Lax matrices: small matrices of SparseOps over an auxiliary space.

class LaxOp:
    """A size x size matrix of operators on a common module basis.

    Auxiliary-space row/column indices are ordered by descending weight, so
    entry (i, j) may raise the height by at most i - j; the constructor
    enforces that bound on declared shifts.
    """

    __slots__ = ("size", "blocks", "params")

    def __init__(self, blocks, params=None):
        self.size = len(blocks)
        self.blocks = blocks
        self.params = params
        for i, row in enumerate(blocks):
            if len(row) != self.size:
                raise ValueError("Lax matrix must be square")
            for j, b in enumerate(row):
                if b.shift != NEG_INF and b.shift > i - j:
                    raise ShiftViolation(
                        f"Lax block ({i},{j}) declares shift {b.shift} > {i - j}"
                    )

    def basis(self):
        return self.blocks[0][0].domain


def lax_mul(A: LaxOp, B: LaxOp) -> LaxOp:
    n = A.size
    if B.size != n:
        raise BasisMismatch("Lax sizes differ")
    blocks = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = None
            for j in range(n):
                t = compose(A.blocks[i][j], B.blocks[j][k])
                acc = t if acc is None else op_add(acc, t)
            row.append(acc)
        blocks.append(row)
    return LaxOp(blocks)


def lax_add(A, B, cb=None):
    return LaxOp(
        [
            [op_add(A.blocks[i][j], B.blocks[i][j], cb) for j in range(A.size)]
            for i in range(A.size)
        ]
    )


def lax_sub(A, B):
    return lax_add(A, B, Fraction(-1))


def lax_compose_scalar(R: SparseOp, A: LaxOp, side: str) -> LaxOp:
    """Compose every block with a scalar (aux-identity) operator."""
    if side == "left":
        blocks = [[compose(R, b) for b in row] for row in A.blocks]
    elif side == "right":
        blocks = [[compose(b, R) for b in row] for row in A.blocks]
    else:
        raise ValueError(f"side must be left or right, not {side!r}")
    out = LaxOp.__new__(LaxOp)
    out.size = A.size
    out.blocks = blocks
    out.params = None
    return out


def lax_mat_mul(M, A: LaxOp) -> LaxOp:
    """Multiply by a numeric matrix on the left: (M A)_ik = sum_j M[i][j] A[j][k]."""
    n = A.size
    blocks = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = None
            for j in range(n):
                if not M[i][j]:
                    continue
                t = op_scale(A.blocks[j][k], M[i][j])
                acc = t if acc is None else op_add(acc, t)
            row.append(acc if acc is not None else zero_op(A.basis()))
        blocks.append(row)
    return _lax_raw(blocks)


def lax_mul_mat(A: LaxOp, M) -> LaxOp:
    n = A.size
    blocks = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = None
            for j in range(n):
                if not M[j][k]:
                    continue
                t = op_scale(A.blocks[i][j], M[j][k])
                acc = t if acc is None else op_add(acc, t)
            row.append(acc if acc is not None else zero_op(A.basis()))
        blocks.append(row)
    return _lax_raw(blocks)


def _lax_raw(blocks):
    """LaxOp without the shift-bound check (for conjugated products whose
    individual blocks may exceed the band bound transiently)."""
    out = LaxOp.__new__(LaxOp)
    out.size = len(blocks)
    out.blocks = blocks
    out.params = None
    return out


def lax_is_zero(A: LaxOp, window: int):
    for i, row in enumerate(A.blocks):
        for j, b in enumerate(row):
            ok, wit = is_zero(b, window)
            if not ok:
                return False, (f"block ({i},{j})", wit[0], wit[1])
    return True, None


# ---------------------------------------------------------------------------
# Dense exact matrices (for fundamental representations and small YBE checks)

def mat_eye(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    m = len(B[0])
    out = []
    for row_a in A:
        acc = [Fraction(0)] * m
        for k, a in enumerate(row_a):
            if not a:
                continue
            row_b = B[k]
            for j, b in enumerate(row_b):
                if b:
                    acc[j] += a * b
        out.append(acc)
    return out


def mat_add(A, B, c=Fraction(1)):
    return [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return mat_add(A, B, Fraction(-1))


def mat_scale(A, c):
    return [[c * a for a in row] for row in A]


def mat_is_zero(A):
    return all(not a for row in A for a in row)


def mat_inv(M):
    """Gauss-Jordan inverse over the rationals."""
    n = len(M)
    A = [list(map(Fraction, row)) + [Fraction(1) if i == j else Fraction(0)
                                     for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        A[c], A[piv] = A[piv], A[c]
        inv = Fraction(1) / A[c][c]
        A[c] = [v * inv for v in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [v - f * w for v, w in zip(A[r], A[c])]
    return [row[n:] for row in A]


def kron(A, B):
    na, ma = len(A), len(A[0])
    nb, mb = len(B), len(B[0])
    out = [[Fraction(0)] * (ma * mb) for _ in range(na * nb)]
    for i in range(na):
        for k in range(nb):
            row = out[i * nb + k]
            for j in range(ma):
                a = A[i][j]
                if not a:
                    continue
                for l in range(mb):
                    row[j * mb + l] = a * B[k][l]
    return out
