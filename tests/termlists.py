"""Whole differential-operator term lists, tabulated without the cache.

`tabulate` builds the operator of a term list, parameters included, straight
through `op_from_action`, bypassing the per-basis cache that `linop.diffop`
keeps, so a test can compare the per-point operators (cached part plus
parameter times unit operator) with the whole list. `tabulated_columns`
counts the columns every tabulation touches. `factor` evaluates an
elementary R-operator the way the checks do, minus their guard.
`whole_block` makes a Lax block one operator, `blockwise_pairs` builds
both sides of the Lax relation R P = Q R block by block, the unfused
reference for `verify._intertwines`, and `vanishing_pochhammer` words a pole
the way the factors' skips do.

The Fraction Gamma-ratio evaluator is kept here as the path tables'
reference: `pochhammer`, `pochhammer_ratio` and `gamma_ratio_shift` give
Gamma(k+a)/Gamma(k+b), normalized to 1 at k = 0, as a finite product of
rationals for any integer shift k, and `stage_euler` is the diagonal stage
that applies it, for `linop.run_pipeline`.
"""

from fractions import Fraction

from rfactor import linop
from rfactor.exactnum import PoleAtParameter, rat_str
from rfactor.linop import (
    compose,
    diffop_apply,
    lax_terms,
    op_comb,
    op_from_action,
    path_op,
    path_table,
)
from rfactor.verify import _FACTORS, _blocks


def _term(basis, coef, mult=None, der=None):
    return (coef, basis.mono(mult or {}), basis.mono(der or {}))


def tabulate(basis, *terms):
    """Terms (coef, {var: exponent} or None, {var: exponent} or None), the
    last two optional: coef times the monomial times the derivatives."""
    tab = [_term(basis, *t) for t in terms]
    shift = max(basis.height(mu) - basis.height(de) for _, mu, de in tab)
    return op_from_action(basis, lambda m: diffop_apply(tab, m), shift)


def assert_same_op(got, want, where):
    assert got.shift == want.shift, where
    assert got.certified == want.certified, where
    assert (got.cols, got.den) == (want.cols, want.den), where


def tabulated_columns(monkeypatch):
    """A list that receives the column count of every later tabulation."""
    cols = []
    real = linop.op_from_action

    def counting(domain, *args, **kwargs):
        cols.append(len(domain))
        return real(domain, *args, **kwargs)

    monkeypatch.setattr(linop, "op_from_action", counting)
    return cols


def factor(alg, k, basis, *args, mutate=None):
    """Factor k of `alg` on `basis` at `args`: the path table of the stage
    list in the checks' factor table, evaluated directly rather than through
    `verify._factor`, so a pole raises PoleAtParameter."""
    return path_op(path_table(basis, _FACTORS[alg, k][0]), args, mutate)


def whole_block(block):
    """A Lax block as one operator: one `op_comb` over its terms."""
    return op_comb(lax_terms(block))


def blockwise_pairs(R, P, Q):
    """The labelled pairs (block label, R P_ij, Q_ij R) of the Lax relation
    R P = Q R for an operator R and Lax products P and Q (`lax_mul`), whose
    blocks are whole operators: each side one `compose`."""
    return [(label, compose(R, A), compose(B, R)) for label, A, B in _blocks(P, Q)]


def vanishing_pochhammer(bases, cap):
    """The first Pochhammer symbol (b)_k, k <= cap, that vanishes for a base
    b of `bases`, worded as a skip reason, or None."""
    for b in bases:
        for j in range(cap):
            if b + j == 0:
                return f"({rat_str(b)})_{j + 1} = 0"
    return None


ONE = Fraction(1)


def pochhammer(a, k):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1."""
    if k < 0:
        raise ValueError(f"pochhammer length must be nonnegative, got {k}")
    out = ONE
    for i in range(k):
        out *= a + i
    return out


def pochhammer_ratio(a, b, k):
    """(a)_k / (b)_k for k >= 0."""
    den = pochhammer(b, k)
    if den == 0:
        raise PoleAtParameter(f"({b})_{k} = 0")
    return pochhammer(a, k) / den


def gamma_ratio_shift(a, b, k):
    """Gamma(k+a)/Gamma(k+b) normalized so the value at k = 0 is 1.

    For k >= 0 this is pochhammer_ratio(a, b, k). For k < 0 it equals
    prod_{i=1..|k|} (b-i) / prod_{i=1..|k|} (a-i); a vanishing numerator
    factor is an exact zero (the 1/Gamma pole wins), a vanishing denominator
    factor is a genuine pole.
    """
    if k >= 0:
        return pochhammer_ratio(a, b, k)
    num = ONE
    den = ONE
    for i in range(1, -k + 1):
        num *= b - i
        den *= a - i
    if den == 0:
        raise PoleAtParameter(f"Gamma({a}{k:+d})/Gamma({a}) pole")
    return num / den


def stage_euler(basis, var, a, b):
    """Diagonal stage: multiply by Gamma(n+a)/Gamma(n+b) normalized to 1 at
    n = 0, where n is the exponent of `var`. Exact on any integer exponent."""
    cache = {}

    def eig(e):
        if e not in cache:
            cache[e] = gamma_ratio_shift(a, b, e)
        return cache[e]

    def run(comb):
        out = {}
        for mono, c in comb.items():
            v = eig(mono[var]) * c
            if v:
                out[mono] = v
        return out

    return run
