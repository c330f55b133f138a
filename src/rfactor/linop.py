"""Exact sparse linear maps on graded bases, with truncation windows.

A SparseOp is a linear map of a GradedBasis to itself, stored column by
column; the basis holds every monomial of height <= cap (for a two-site
basis: of total height <= cap). Since the bases are truncations of infinite
modules, equality of stored matrices is meaningless by itself; instead every
operator carries

  shift      -- an upper bound on (output height - input height),
  certified  -- the largest input total height at which the stored action
                agrees exactly with the untruncated operator.

Every kernel follows one rule: no column above `certified` is stored.
Construction certifies columns up to cap - max(0, shift); composition
propagates certification, none above an optional height limit `upto`; a sum
is certified at the least of its terms' heights. All zero tests take an
explicit height window and refuse to look beyond certification, so a
reported zero is a statement about the actual operators, not an artifact of
truncation.

Entries are stored as nonzero integer numerators over one positive
denominator `den` per operator, kept canonical: gcd(den, every numerator) is
1 and an empty operator has den 1, so equal operators have equal
(cols, den). Two kernels do all operator arithmetic, in integers over one
common denominator per call: `compose_sum` (sum of c * (a after b), of which
`compose` is the one-term case) and `op_comb` (sum of c * a, of which
`op_add` is the two-term case and `op_scale` the one-term one); with
is_zero, path_op and the nullspace solver they work in integers only.
Fraction stays at the edges:
parameters and scalars, `SparseOp.col`/`apply_vec`, zero-test witnesses and
nullspace solutions, which are Fractions, and `rational_op`, which builds an
operator from rational columns. A parameter-free differential operator
(`diffop`) is tabulated in integers once per basis and term list; one with
parameters is such a cached part plus parameter times cached unit operators.
An algebra's generators are built so from its generator table (`generators`),
which names each generator's parameter-free term list, its weight parts and
its matrix in the defining representation.

A Lax matrix (`LaxOp`) keeps such a block as its terms ((cached part, 1),
(cached unit, coefficient), ...), so building one at a point tabulates and
copies nothing. `lax_mul` makes each product block one `compose_sum` over
the products of the factors' terms. A relation reads a block through its
terms (`lax_terms`) too: an intertwining residual R A - B R of two blocks is
one `compose_sum`, and a difference A - B one `op_comb`, over both blocks'
terms.

Operators whose construction leaves the basis (substitutions, Gamma-ratio
diagonals and Laurent flows with negative intermediate exponents) are built
from stage lists. Their intermediate terms are combinations over any integer
exponents, so no basis ever holds a negative power. A path table
(`path_table`, cached per basis and stage list) runs the parameter-free
stages once and keeps the Gamma-ratio diagonals as placeholders; with
integer substitution rules every path is compiled in ints, seeded with 1,
and no Fraction is formed. The operator at a point (`path_op`) is one
eigenvalue per (stage, exponent), each an integer numerator over one
positive denominator per stage, read off running integer products of the
Pochhammer factors, and integer sums of integer key products; a Laurent term
that does not cancel is then an error of the stage list, raised when the
table is compiled, and a pole is raised, as the Pochhammer symbol that
vanishes, for every point whose table needs it; that is the one statement
of where a factor's poles lie. Every Gamma-ratio diagonal in the package,
the sl2 closed form's included, is evaluated this way.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import add, mul
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exactnum import PoleAtParameter
from .polyspace import GradedBasis, comb_add_into, comb_mul, comb_pow

NEG_INF = -(10**9)  # shift of an identically zero operator


class BasisMismatch(ValueError):
    pass


class ShiftViolation(ValueError):
    """An image monomial exceeded the declared height shift."""


class LaurentLeak(ValueError):
    """An image kept a negative exponent that should have cancelled."""


class WindowBeyondCertified(ValueError):
    """A zero test asked about heights the operator is not exact at."""


class DegenerateDecomposition(ValueError):
    """A lowest-weight kernel did not have the expected dimension."""


class SparseOp:
    """Column-major integer numerators `cols` ({col: {row: int}}) over the
    canonical denominator `den`: an endomorphism of `domain`."""

    __slots__ = ("domain", "cols", "den", "shift", "certified")

    def __init__(self, domain, cols, den, shift, certified):
        self.domain = domain
        self.cols = cols
        self.den = den
        self.shift = shift
        self.certified = certified

    def col(self, i):
        """Column i as {row: Fraction}."""
        den = self.den
        return {r: Fraction(v, den) for r, v in self.cols.get(i, {}).items()}

    def apply_vec(self, vec):
        """Apply to an index-keyed vector {col: coeff}."""
        out = {}
        for i, c in vec.items():
            for r, v in self.cols.get(i, {}).items():
                w = out.get(r, 0) + c * v
                if w:
                    out[r] = w
                else:
                    del out[r]
        den = self.den
        return {r: Fraction(w, den) for r, w in out.items()}


def rational_op(domain, cols, shift, certified):
    """The SparseOp of columns {col: {row: nonzero rational}}.

    The least common denominator is canonical by itself: a prime power
    exactly dividing it exactly divides some entry's reduced denominator, and
    that entry's scaled numerator is prime to it. Columns of ints have
    denominator 1 and are kept as they are."""
    if all(type(v) is int for col in cols.values() for v in col.values()):
        return SparseOp(domain, cols, 1, shift, certified)
    den = math.lcm(*(v.denominator for col in cols.values() for v in col.values()))
    nums = {
        i: {r: v.numerator * (den // v.denominator) for r, v in col.items()}
        for i, col in cols.items()
    }
    return SparseOp(domain, nums, den, shift, certified)


def _reduced_op(domain, cols, den, shift, certified):
    """The SparseOp of integer columns over den, with their common factor
    divided out."""
    g = den
    for col in cols.values():
        if g == 1:
            break
        g = math.gcd(g, *col.values())
    if g > 1:
        den //= g
        cols = {i: {r: v // g for r, v in col.items()} for i, col in cols.items()}
    return SparseOp(domain, cols, den, shift, certified)


def op_from_action(domain, action, shift):
    """Tabulate `action` (monomial -> {monomial: coeff}) as a SparseOp on
    `domain`, certified at cap - max(0, shift).

    No column above `certified` is stored: that is the truncation. Every
    image monomial of a stored column must land in the basis and respect
    the declared shift.
    """
    certified = domain.cap - max(0, shift)
    cols = {}
    for i, mono in enumerate(domain.monomials):
        h = domain.heights[i]
        if h > certified:
            continue
        col = {}
        for m, c in action(mono).items():
            if not c:
                continue
            j = _output_index(domain, mono, m)
            if domain.heights[j] - h > shift:
                raise ShiftViolation(
                    f"image of {domain.mono_str(mono)} has height "
                    f"{domain.heights[j]} > {h} + declared shift {shift}"
                )
            col[j] = c
        if col:
            cols[i] = col
    return rational_op(domain, cols, shift, certified)


def zero_op(domain):
    return SparseOp(domain, {}, 1, NEG_INF, domain.cap)


def identity_op(basis):
    """The unit operator on `basis`, tabulated once per basis (`diffop`)."""
    return diffop(basis, (1, (), ()))


def _require_same(b1, b2, what):
    if not b1.same(b2):
        raise BasisMismatch(f"{what}: bases differ")


def compose_sum(terms, *, upto=None) -> SparseOp:
    """The sum of c*(a after b) over a nonempty iterable of terms (a, b, c)
    with rational c, in one pass over one common denominator.

    A term is certified at min(b.certified, a.certified - b.shift, upto) and
    shifted by a.shift + b.shift, a term with a zero factor at the height
    limit with shift NEG_INF; the sum is certified at the least and shifted
    by the largest of its terms', zero coefficients included, and only the
    columns it is certified at are tabulated."""
    dom = None
    shift, den = NEG_INF, 1
    live = []
    for a, b, c in terms:
        if dom is None:
            dom = b.domain
            certified = dom.cap if upto is None or upto > dom.cap else upto
        if not (a.domain is dom and b.domain is dom):
            _require_same(a.domain, dom, "compose")
            _require_same(b.domain, dom, "compose")
        if b.shift == NEG_INF or a.shift == NEG_INF:
            continue
        # b sends height h to heights <= h + b.shift, so a must be exact up to
        # h + b.shift; a negative b.shift gains certification room
        certified = min(certified, b.certified, a.certified - b.shift)
        if a.shift + b.shift > shift:
            shift = a.shift + b.shift
        if c:
            live.append((a, b, c))
            d = a.den * b.den * c.denominator
            den = d if den == 1 else math.lcm(den, d)
    heights = dom.heights
    cols = {}
    for a, b, c in live:
        f = den // (a.den * b.den * c.denominator) * c.numerator
        acols, unscaled = a.cols, f == 1
        for i, bc in b.cols.items():
            if heights[i] > certified:
                continue
            out = cols.get(i) or {}
            for k, v in bc.items():
                ac = acols.get(k)
                if ac is None:
                    continue
                s = v if unscaled else f * v
                for r, x in ac.items():
                    w = out.get(r, 0) + s * x
                    if w:
                        out[r] = w
                    else:
                        del out[r]
            if out:
                cols[i] = out
            else:
                cols.pop(i, None)
    return _reduced_op(dom, cols, den, shift, certified)


def compose(a: SparseOp, b: SparseOp) -> SparseOp:
    """a after b, certified at min(b.certified, a.certified - b.shift): only
    those columns are tabulated."""
    return compose_sum(((a, b, 1),))


def op_comb(terms) -> SparseOp:
    """The sum of c*a over a nonempty iterable of terms (a, c) with rational
    c, in one pass over one common denominator. The sum is shifted by the
    largest and certified at the least of its terms', zero coefficients
    included, and only the columns it is certified at are stored."""
    dom = None
    shift, certified, den = NEG_INF, -NEG_INF, 1
    live = []
    for a, c in terms:
        if dom is None:
            dom = a.domain
        elif a.domain is not dom:
            _require_same(a.domain, dom, "add")
        if a.shift > shift:
            shift = a.shift
        if a.certified < certified:
            certified = a.certified
        if c:
            live.append((a, c))
            den = math.lcm(den, a.den * c.denominator)
    heights = dom.heights
    cols = {}
    for a, c in live:
        f = den // (a.den * c.denominator) * c.numerator
        for i, ac in a.cols.items():
            if heights[i] > certified:
                continue
            col = cols.get(i)
            if col is None:
                cols[i] = dict(ac) if f == 1 else {r: v * f for r, v in ac.items()}
                continue
            for r, v in ac.items():
                w = col.get(r, 0) + v * f
                if w:
                    col[r] = w
                else:
                    del col[r]
            if not col:
                del cols[i]
    return _reduced_op(dom, cols, den, shift, certified)


def op_add(a: SparseOp, b: SparseOp, cb=1) -> SparseOp:
    """a + cb*b for a rational cb. With cb = 0 the result is a, but shift
    and certification are still those of a sum. No package code calls it:
    the benchmark's tracer (perfbench/spans.py) looks it up by name."""
    return op_comb(((a, 1), (b, cb)))


def op_scale(a: SparseOp, c) -> SparseOp:
    """c*a for a rational c; the zero operator where c is 0."""
    if not c:
        return zero_op(a.domain)
    return op_comb(((a, c),))


def commutator(a, b):
    return compose_sum(((a, b, 1), (b, a, -1)))


def pair_swap(pair: GradedBasis) -> SparseOp:
    """The permutation of the two tensor factors (requires equal factors up to names)."""
    if pair.factors is None:
        raise BasisMismatch("pair_swap target is not a tensor basis")
    b1, b2 = pair.factors
    k = len(b1.vars)
    if len(b1) != len(b2) or b1.weights != b2.weights:
        raise BasisMismatch("pair_swap needs structurally identical factors")
    if b1.monomials != b2.monomials:
        raise BasisMismatch("pair_swap needs identically enumerated factors")
    cols = {
        i: {pair.index[m[k:] + m[:k]]: 1}
        for i, m in enumerate(pair.monomials)
    }
    return SparseOp(pair, cols, 1, 0, pair.cap)


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
    witness = (dom.mono_str(dom.monomials[best]), dom.comb_str(op.col(best)))
    return False, witness


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
    """Reduce an integer row in place against the echelon and insert it if
    it stays nonzero (it then becomes the pivot row of its lead)."""
    while row:
        lead = min(row)
        piv = echelon.get(lead)
        if piv is None:
            _gcd_reduce(row)
            echelon[lead] = row
            return
        a, b = row[lead], piv[lead]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if b != 1:
            for k in row:
                row[k] *= b
        for k, v in piv.items():
            w = row.get(k, 0) - a * v
            if w:
                row[k] = w
            else:
                del row[k]


def int_row(vec):
    """The nonzero entries of a rational vector {key: coefficient} times the
    least common denominator: integers with the same span, in a new dict.
    A row of nonzero ints is copied as it is."""
    vals = vec.values()
    if all(type(v) is int for v in vals) and 0 not in vals:
        return dict(vec)
    lcm = math.lcm(*(v.denominator for v in vals))
    return {k: v.numerator * (lcm // v.denominator) for k, v in vec.items() if v}


def _kernel_vector(echelon, leads, free):
    """Fraction-free back-substitution: d*x for an integer d, where x is the
    solution with 1 at `free` and 0 at every other unknown that leads no
    echelon row; `leads` is the echelon's leads in decreasing order. Where a
    pivot does not divide the running sum, d grows by pivot/gcd; entry k is
    kept as (n, d_k), x_k = n/d_k, and scaled to the final d once."""
    d = 1
    y = {free: (1, 1)}
    for lead in leads:
        row = echelon[lead]
        s = 0
        for k, v in row.items():
            e = y.get(k)
            if e:
                s += v * e[0] * (d // e[1])
        if s:
            p = row[lead]
            g = math.gcd(s, p)
            if p != g:
                d *= p // g
            y[lead] = (-s // g, d)
    return {k: n * (d // dk) for k, (n, dk) in y.items()}


def _solution(y, free):
    """The kernel vector y divided by its entry at `free`."""
    return {k: Fraction(v, y[free]) for k, v in y.items()}


def int_echelon_nullspace(equations, unknowns):
    """Exact nullspace basis of a sparse homogeneous linear system.

    equations: iterable of {unknown id: rational coefficient}, each key one of
    `unknowns`, a list of mutually orderable ids. The equations are not
    modified. Returns one solution dict per free unknown, with value 1 at that
    unknown and other free unknowns at 0.

    The result does not depend on the order of the equations. Every echelon
    row's lead is its smallest unknown, so the leads are the pivot columns of
    the row space whatever the elimination order, and the free unknowns with
    them; the solution with 1 at one free unknown and 0 at the others is then
    unique. Rows are therefore cleared of denominators and inserted sparsest
    first (stable on ties), so dense rows are reduced against short pivots
    instead of filling in every later row.

    Once the rank is one short of the number of unknowns, the kernel is the
    line of the single back-substituted solution x. A rank n - 1 row space is
    exactly the set of rows orthogonal to x, so a remaining row r with
    r.x = 0 would reduce to zero and leave every pivot row as it is: it is
    tested by that dot product instead of being reduced. The first row with
    r.x != 0 is inserted, which makes the rank full and the nullspace empty.

    A row that keeps one entry forces its unknown u to zero (e_u is in the
    row space), and later rows are stripped of forced zeros before use,
    which leaves the row space as it is. If u leads no pivot row yet, {u: 1}
    becomes one without reduction; otherwise the row is inserted as usual,
    since storing {u: 1} over a longer pivot row would lose its equation.
    The leads, the free unknowns and the result are those of eliminating
    every row.
    """
    rows = sorted(equations, key=len)
    echelon, zero = {}, set()
    for i, eq in enumerate(rows):
        if len(echelon) == len(unknowns) - 1:
            free = next(u for u in unknowns if u not in echelon)
            y = _kernel_vector(echelon, sorted(echelon, reverse=True), free)
            for r in rows[i:]:
                if sum(v * y.get(k, 0) for k, v in r.items()):
                    _echelon_insert(int_row(r), echelon)
                    return []
            return [_solution(y, free)]
        row = int_row(eq)
        for u in zero.intersection(row):
            del row[u]
        if len(row) == 1:
            (u,) = row
            zero.add(u)
            if u not in echelon:
                echelon[u] = {u: 1}
                continue
        if row:
            _echelon_insert(row, echelon)
    leads = sorted(echelon, reverse=True)
    free = [u for u in unknowns if u not in echelon]
    return [_solution(_kernel_vector(echelon, leads, f), f) for f in free]


# ---------------------------------------------------------------------------
# Differential operators
#
# A term (coef, mult, der) is coef times the variables named in `mult` times
# the derivatives named in `der` (a name listed k times is a k-th power),
# acting on monomials by falling factorials.

def diffop_apply(terms, mono):
    """Apply terms (coef, mult, der), with mult and der full-length exponent
    tuples, to a single monomial; returns {monomial: coeff}."""
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
        w = out.get(m, 0) + c
        if w:
            out[m] = w
        else:
            del out[m]
    return out


def diffop_terms(basis, terms):
    """Terms (coef, mult, der) with the variable names in mult and der (a
    name listed k times is a k-th power) as exponent tuples of `basis`, the
    form `diffop_apply` takes."""
    return [(c, basis.mono(Counter(mu)), basis.mono(Counter(de))) for c, mu, de in terms]


# a seed-0 run of the whole sl3 catalog tabulates 62 term lists, the sl2 one 19
@lru_cache(maxsize=128)
def diffop(basis, *terms):
    """The operator of a parameter-free term list on `basis`, tabulated once
    per process; with integer coefficients it is tabulated in integers.

    An operator whose term list has parameters is built at each point as
    such a cached part plus parameter times cached unit operators (one
    `op_comb`, or those terms kept as a Lax block), which keeps the shift
    and certified height of the whole list even where a parameter is 0.
    Callers share the cached operator, so none may change it."""
    tab = diffop_terms(basis, terms)
    shift = max(basis.height(mu) - basis.height(de) for _, mu, de in tab)
    return op_from_action(basis, lambda mono: diffop_apply(tab, mono), shift)


def generators(basis, table, weights):
    """The generators of `table` ({name: (term list, weight parts, defining
    matrix)}) on `basis` at `weights`, in table order. Each is its cached
    parameter-free part plus, per weight part (c, mult), the dot product
    c.weights times the cached unit operator of the variables in mult."""
    out = {}
    for name, (free, parts, _) in table.items():
        op = diffop(basis, *free)
        if parts:
            units = (
                (diffop(basis, (1, mu, ())), sum(map(mul, c, weights)))
                for c, mu in parts
            )
            op = op_comb(((op, 1), *units))
        out[name] = op
    return out


# ---------------------------------------------------------------------------
# Pipeline stages: exact maps on combinations (dict monomial -> int or
# Fraction), used to build operators whose intermediate stages leave the
# truncated basis. Integer combinations stay integer.

def stage_subst(basis, rules):
    """Simultaneous substitution var -> combination; rules keyed by var index.

    Substituted variables must not carry negative exponents when the stage
    runs (that would need the inverse of a polynomial).
    """
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
                continue
            # out += c * (acc shifted by rest), term by term
            for m, v2 in acc.items():
                key = tuple(map(add, m, rest))
                w = out.get(key, 0) + c * v2
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
        return out

    return run


def stage_laurent(basis, sign, num, den, target):
    """exp(sign * (num/den) * d/d(target)) expanded exactly.

    On a monomial with target-exponent t >= 0 the series terminates after
    t+1 terms; each term moves j units of target-exponent onto num and -j
    onto den, which may go negative: a combination holds any integer
    exponents, and only the final output must lie in the basis again."""

    def run(comb):
        out = {}
        for mono, c in comb.items():
            t = mono[target]
            if t < 0:
                raise LaurentLeak(
                    f"flow stage needs polynomial {basis.vars[target].name}: {mono}"
                )
            m = list(mono)
            for j in range(t + 1):
                if j:
                    m[target] -= 1
                    m[num] += 1
                    m[den] -= 1
                # term j: c (sign num/den)^j C(t, j), in ints for an int c
                key = tuple(m)
                w = out.get(key, 0) + c * sign**j * math.comb(t, j)
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
        return out

    return run


def subst_op(basis, rules):
    """Simultaneous substitution as an operator; rules: {var name: {monomial
    tuple: coeff}}. A replacement may not raise the variable's height: the
    operator is tabulated with shift 0, which raises ShiftViolation at the
    first image that does."""
    st = stage_subst(basis, {basis.var_index(n): r for n, r in rules.items()})
    return op_from_action(basis, lambda m: st({m: 1}), 0)


def _output_index(basis, mono, m):
    """Basis index of the image monomial m of input `mono`."""
    j = basis.index.get(m)
    if j is None:
        if min(m) < 0:
            raise LaurentLeak(
                f"image of {basis.mono_str(mono)} kept a negative exponent: {m}"
            )
        raise ShiftViolation(
            f"image of {basis.mono_str(mono)} left the basis: {m}"
        )
    return j


def run_pipeline(basis, stages):
    """Feed every basis monomial through the stages; the final output must
    lie in the basis again (no Laurent residue, no cap overflow).
    Height-homogeneous stages only: shift 0.

    It builds no factor: the tests use it as the path tables' reference.
    It stays in the package because the benchmark's tracer
    (perfbench/spans.py) looks it up by name for its `linop.pipeline`
    layer; it can go when that layer does."""
    cols = {}
    for i, mono in enumerate(basis.monomials):
        comb = {mono: Fraction(1)}
        for st in stages:
            comb = st(comb)
        col = {}
        for m, c in comb.items():
            if c:
                col[_output_index(basis, mono, m)] = c
        if col:
            cols[i] = col
    return rational_op(basis, cols, 0, basis.cap)


# ---------------------------------------------------------------------------
# Path tables: a stage list compiled once per basis.
#
# A stage list mixes parameter-free stage closures (stage_subst,
# stage_laurent) with Euler placeholders, whose (a, b) depend on the point.
# Compiling runs every basis monomial through the closures once, keeping the
# paths apart by the exponents the placeholders see: entry (j, i) of the
# operator is then sum_key T[i][j][key] * prod_s eig_s(key_s), with integer
# path coefficients T and one Gamma-ratio eigenvalue per (stage, exponent).

class Euler(NamedTuple):
    """Placeholder for the diagonal stage that multiplies a monomial by
    Gamma(n+a)/Gamma(n+b), normalized to 1 at n = 0, where n is the exponent
    of `var`: each of a and b is a constant or a function of the factor's
    arguments."""

    var: int
    a: object
    b: object


class PathTable(NamedTuple):
    basis: GradedBasis
    stages: tuple  # the stage list compiled
    exps: tuple  # per Euler stage: every exponent a path showed it
    keys: tuple  # the exponent tuples of the surviving paths
    cols: dict  # i -> ((j, ((key index, int coefficient), ...)), ...)


def _param(x, args):
    return x(*args) if callable(x) else x


def compile_path_table(basis, stages):
    """Run every basis monomial through `stages` with the Euler stages left
    symbolic.

    A path that meets an Euler stage whose lower parameter b is the constant
    1 at a negative exponent is dropped: 1/Gamma(e + 1) vanishes there for
    every a. Every other Laurent term must cancel within its path key, so a
    negative exponent left in the output raises LaurentLeak here, for all
    parameters at once. An Euler exponent outside [-cap, cap] is refused, so
    a pole is a Pochhammer symbol of length <= cap.
    """
    eulers = [st for st in stages if isinstance(st, Euler)]
    exps = [set() for _ in eulers]
    keys = {}
    cols = {}
    for i, mono in enumerate(basis.monomials):
        paths = {(): {mono: 1}}
        s = 0
        for st in stages:
            if not isinstance(st, Euler):
                paths = {key: out for key, comb in paths.items() if (out := st(comb))}
                continue
            prune = not callable(st.b) and st.b == 1
            split = {}
            for key, comb in paths.items():
                for m, c in comb.items():
                    e = m[st.var]
                    exps[s].add(e)
                    if e >= 0 or not prune:
                        split.setdefault(key + (e,), {})[m] = c
            paths = split
            s += 1
        entries = {}
        for key, comb in paths.items():
            k = keys.setdefault(key, len(keys))
            for m, c in comb.items():
                if c.denominator != 1:
                    raise ValueError(f"path coefficient {c} is not an integer")
                j = _output_index(basis, mono, m)
                entries.setdefault(j, []).append((k, c.numerator))
        if entries:
            cols[i] = tuple((j, tuple(t)) for j, t in entries.items())
    cap = basis.cap
    for s, es in enumerate(exps):
        if es and (min(es) < -cap or max(es) > cap):
            raise ValueError(
                f"Euler stage {s} sees exponents {min(es)}..{max(es)} "
                f"beyond cap {cap}"
            )
    return PathTable(
        basis, tuple(stages), tuple(map(sorted, exps)), tuple(keys), cols
    )


@lru_cache(maxsize=16)
def path_table(basis, stage_list):
    """The compiled table of `stage_list(basis)`, built once per basis."""
    return compile_path_table(basis, stage_list(basis))


def _euler_eigenvalues(a, b, exps, cap):
    """({e: N_e}, D) with integer numerators N_e over one positive
    denominator D, N_e / D = Gamma(e+a)/Gamma(e+b) normalized to 1 at e = 0
    (a rising-factorial ratio), for sorted integer
    exps in [-cap, cap], by running integer products outward from e = 0. On
    each side of 0 the running denominator at the outermost exponent is a
    multiple of every inner one; D is the product of the two sides' outermost
    ones, divided by its common factor with every N_e, which makes it the
    least common denominator of the eigenvalues.

    A vanishing denominator is a pole, raised as PoleAtParameter with the
    Pochhammer symbol of length <= cap that vanishes, the positive side
    first. For e > 0 the denominator is (b)_e, which vanishes from e = 1 - b
    on for b in {0, -1, ...}: ({b})_{1 - b} = 0. For e < 0 it is
    (a - 1)(a - 2)...(a + e), which vanishes from e = -a on for a in {1, 2,
    ...}, and is a factor of (a - cap)_cap: ({a - cap})_{cap - a + 1} = 0."""
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    sides = []
    for side in ([e for e in exps if e >= 0], [e for e in reversed(exps) if e < 0]):
        num = den = 1
        at = 0
        run = []
        for e in side:
            while at < e:
                num *= (pa + at * qa) * qb
                den *= (pb + at * qb) * qa
                at += 1
            while at > e:
                at -= 1
                num *= (pb + at * qb) * qa
                den *= (pa + at * qa) * qb
            if not den:
                if e > 0:
                    raise PoleAtParameter(f"({b})_{1 - b} = 0")
                raise PoleAtParameter(f"({a - cap})_{cap - a + 1} = 0")
            run.append((e, num, den))
        sides.append((run, den))
    (pos, dpos), (neg, dneg) = sides
    den = dneg * dpos
    vals = {}
    for run, top, other in ((neg, dneg, dpos), (pos, dpos, dneg)):
        for e, num, d in run:
            vals[e] = num * (top // d) * other
    g = math.gcd(den, *vals.values())
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        vals = {e: v // g for e, v in vals.items()}
    return vals, den


def path_op(table, args, mutate=None):
    """The operator of a compiled stage list at the point `args`;
    mutate=(s, k) doubles the eigenvalue of the s-th Euler stage at exponent
    k.

    Each Euler eigenvalue is computed once per exponent a path showed,
    dropped paths included, so this raises PoleAtParameter wherever one of
    them is a pole, even if only dropped paths reach it: at the first stage
    that meets one, with the Pochhammer symbol that vanishes
    (`_euler_eigenvalues`). This is the one statement of where a factor's
    poles lie. A path key's eigenvalue product is an integer product of
    numerators over the product of the stage denominators."""
    basis = table.basis
    eig = []
    den = 1
    eulers = (st for st in table.stages if isinstance(st, Euler))
    for s, (st, exps) in enumerate(zip(eulers, table.exps)):
        vals, d = _euler_eigenvalues(
            _param(st.a, args), _param(st.b, args), exps, basis.cap
        )
        if mutate is not None and mutate[0] == s and mutate[1] in vals:
            vals[mutate[1]] *= 2
        eig.append(vals)
        den *= d
    nums = []
    for key in table.keys:
        p = 1
        for vals, e in zip(eig, key):
            p *= vals[e]
        nums.append(p)
    cols = {}
    for i, entries in table.cols.items():
        col = {}
        for j, terms in entries:
            n = 0
            for k, c in terms:
                n += c * nums[k]
            if n:
                col[j] = n
        if col:
            cols[i] = col
    return _reduced_op(basis, cols, den, 0, basis.cap)


# ---------------------------------------------------------------------------
# Lax matrices: small matrices of blocks over an auxiliary space. A block is
# a SparseOp or a tuple of its terms ((SparseOp, rational coefficient), ...):
# a block with parameters is kept as its cached parts times their
# coefficients, and products and sums expand the terms into one fused kernel
# call per block.

def lax_terms(block):
    """The terms ((operator, coefficient), ...) of a Lax block."""
    return ((block, 1),) if isinstance(block, SparseOp) else block


def scaled_block(op, c):
    """The Lax block c*op; the zero operator where c is 0, as `op_scale`
    gives it."""
    return ((op, c),) if c else zero_op(op.domain)


class LaxOp:
    """A size x size matrix of blocks on a common module basis.

    Auxiliary-space row/column indices are ordered by descending weight, so
    entry (i, j) may raise the height by at most i - j; the constructor
    enforces that bound on declared shifts, a block's shift being the
    largest of its terms'.
    """

    __slots__ = ("size", "blocks")

    def __init__(self, blocks):
        self.size = len(blocks)
        self.blocks = blocks
        for i, row in enumerate(blocks):
            if len(row) != self.size:
                raise ValueError("Lax matrix must be square")
            for j, b in enumerate(row):
                shift = max(t.shift for t, _ in lax_terms(b))
                if shift != NEG_INF and shift > i - j:
                    raise ShiftViolation(
                        f"Lax block ({i},{j}) declares shift {shift} > {i - j}"
                    )


def lax_from_matrix(basis, M):
    """The numeric matrix M as a LaxOp of scaled identities on `basis`; M
    must be lower triangular, like every Lax band."""
    one = identity_op(basis)
    return LaxOp([[scaled_block(one, c) for c in row] for row in M])


def lax_from_gl(T, u):
    """The Lax matrix of a gl(n) triangle T (keys (a, b), 1-indexed) at
    spectral parameter u: block (i, j) is T[j+1, i+1] + delta_ij u."""
    n = max(a for a, _ in T)
    one = identity_op(T[1, 1].domain)
    rows = range(1, n + 1)
    return LaxOp(
        [[((T[i, i], 1), (one, u)) if i == j else T[j, i] for j in rows] for i in rows]
    )


def lax_mul(A: LaxOp, B: LaxOp, upto=None) -> LaxOp:
    """A B, no block tabulated or certified above height `upto`; each block
    is one `compose_sum` over the products of the factors' terms."""
    n = A.size
    if B.size != n:
        raise BasisMismatch("Lax sizes differ")
    # a coefficient 1 is not multiplied: 1 * Fraction builds a new Fraction
    return LaxOp(
        [
            [
                compose_sum(
                    (
                        (a, b, cb if ca == 1 else ca if cb == 1 else ca * cb)
                        for j in range(n)
                        for a, ca in lax_terms(A.blocks[i][j])
                        for b, cb in lax_terms(B.blocks[j][k])
                    ),
                    upto=upto,
                )
                for k in range(n)
            ]
            for i in range(n)
        ]
    )


# ---------------------------------------------------------------------------
# Dense exact matrices (for fundamental representations and structure constants)

def mat_eye(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    m = len(B[0])
    nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for row_a in A:
        acc = [Fraction(0)] * m
        for k, a in enumerate(row_a):
            if not a:
                continue
            for j, b in nonzero[k]:
                acc[j] += a * b
        out.append(acc)
    return out


def mat_add(A, B, c=Fraction(1)):
    return [
        [a + c * b if b else a for a, b in zip(ra, rb)] for ra, rb in zip(A, B)
    ]


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
                for l, b in enumerate(B[k]):
                    if b:
                        row[j * mb + l] = a * b
    return out
