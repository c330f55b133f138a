"""Whole differential-operator term lists, tabulated without the cache.

`tabulate` builds the operator of a term list, parameters included, straight
through `op_from_action`, bypassing the per-basis cache that `linop.diffop`
keeps, so a test can compare the per-point operators (cached part plus
parameter times unit operator) with the whole list. `tabulated_columns`
counts the columns every tabulation touches. `factor` evaluates an
elementary R-operator the way the checks do, minus their guard.
"""

from rfactor import linop
from rfactor.linop import diffop_apply, op_from_action, path_op, path_table
from rfactor.verify import _FACTORS


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
    list in the checks' factor table, evaluated with no guard in front, so a
    pole raises PoleAtParameter."""
    return path_op(path_table(basis, _FACTORS[alg, k][0]), args, mutate)
