"""Height-graded monomial bases for truncated polynomial modules.

A module is spanned by monomials in weighted variables; the height of a
monomial is the weighted exponent sum and bases are truncated at a height cap.
Every exponent in a basis is nonnegative: the negative powers that operator
stage lists pass through live only in combinations, never in a basis (see
linop).

Monomials are plain exponent tuples; linear combinations are dicts mapping
monomial -> coefficient, an int or a Fraction: the combination helpers start
from the int 0 and 1, so combinations of integer coefficients stay in
integers.
"""

from __future__ import annotations

import functools
import os
from operator import add
from typing import NamedTuple

DEFAULT_SIZE_LIMIT = 50_000
SIZE_LIMIT_ENV = "RFACTOR_SIZE_LIMIT"


class CapTooLarge(ValueError):
    """Requested basis would exceed the configured size limit."""


class NameCollision(ValueError):
    """Tensor factors share a variable name."""


class _VarFields(NamedTuple):
    name: str
    weight: int = 1


class VarSpec(_VarFields):
    """One variable: its name and height weight (>= 1)."""

    __slots__ = ()

    def __new__(cls, name, weight=1):
        if weight < 1:
            raise ValueError(f"weight of {name} must be >= 1")
        return super().__new__(cls, name, weight)


def size_limit() -> int:
    raw = os.environ.get(SIZE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_SIZE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise CapTooLarge(
            f"{SIZE_LIMIT_ENV} must be an integer, got {raw!r}"
        ) from None


def size_checked_cache(maxsize):
    """Decorator: `functools.lru_cache` for a function returning a basis,
    which still raises CapTooLarge on a cache hit when the basis exceeds the
    size limit in force at that call."""

    def decorate(build):
        cached = functools.lru_cache(maxsize=maxsize)(build)

        @functools.wraps(build)
        def get(*args):
            basis = cached(*args)
            limit = size_limit()
            if len(basis) > limit:
                raise CapTooLarge(
                    f"basis of {len(basis)} monomials at cap {basis.cap} "
                    f"exceeds size limit {limit}"
                )
            return basis

        return get

    return decorate


class GradedBasis:
    """Deterministically ordered monomial basis, graded by height.

    Monomials are ordered by height, then by descending lexicographic order
    on exponent tuples; two-site bases built by `tensor_basis` keep the
    tensor factors' order instead. Every monomial has height <= `cap`, the
    largest height at which truncated operator algebra can be exact (see
    linop).
    """

    __slots__ = (
        "vars", "cap", "monomials", "index", "weights", "heights", "factors",
    )

    def __init__(self, vars, cap, monomials, factors=None):
        self.vars = tuple(vars)
        self.cap = cap
        self.monomials = list(monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.weights = tuple(v.weight for v in self.vars)
        self.heights = [self.height(m) for m in self.monomials]
        self.factors = factors

    def __len__(self):
        return len(self.monomials)

    @property
    def cert_cap(self) -> int:
        # read-only alias of cap, kept for perfbench/spans.py
        return self.cap

    def height(self, mono) -> int:
        return sum(e * w for e, w in zip(mono, self.weights))

    def var_index(self, name) -> int:
        """Position of the variable called `name` in the exponent tuples."""
        for i, v in enumerate(self.vars):
            if v.name == name:
                return i
        raise KeyError(f"no variable {name!r} in basis")

    def mono(self, exps) -> tuple:
        """Exponent tuple of the monomial {variable name: exponent}."""
        t = [0] * len(self.vars)
        for name, e in exps.items():
            t[self.var_index(name)] = e
        return tuple(t)

    def mono_str(self, mono) -> str:
        parts = []
        for e, v in zip(mono, self.vars):
            if e == 0:
                continue
            parts.append(v.name if e == 1 else f"{v.name}^{e}")
        return "*".join(parts) if parts else "1"

    def comb_str(self, comb) -> str:
        """Render an index-keyed combination in basis order."""
        if not comb:
            return "0"
        return " + ".join(
            f"({comb[i]})*{self.mono_str(self.monomials[i])}" for i in sorted(comb)
        )

    def same(self, other) -> bool:
        return (
            self is other
            or (
                self.vars == other.vars
                and self.cap == other.cap
                and self.monomials == other.monomials
            )
        )


def _sort_key(mono, weights):
    h = sum(e * w for e, w in zip(mono, weights))
    return (h, tuple(-e for e in mono))


def enumerate_basis(var_specs, cap) -> GradedBasis:
    """All monomials of height <= cap over the given variables."""
    specs = tuple(var_specs)
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    names = [v.name for v in specs]
    if len(set(names)) != len(names):
        raise NameCollision(f"duplicate variable names in {names}")
    weights = [v.weight for v in specs]
    limit = size_limit()
    out = []

    def rec(i, prefix, used):
        if i == len(specs):
            out.append(tuple(prefix))
            if len(out) > limit:
                raise CapTooLarge(
                    f"basis over {names} at cap {cap} exceeds size limit {limit}"
                )
            return
        for e in range((cap - used) // weights[i] + 1):
            prefix.append(e)
            rec(i + 1, prefix, used + e * weights[i])
            prefix.pop()

    rec(0, [], 0)
    out.sort(key=lambda m: _sort_key(m, weights))
    return GradedBasis(specs, cap, out)


def tensor_basis(b1: GradedBasis, b2: GradedBasis) -> GradedBasis:
    """Two-site basis: the products m1*m2 of total height <= min(b1.cap,
    b2.cap), ordered by the index of m1 in b1, then by that of m2 in b2."""
    names1 = {v.name for v in b1.vars}
    names2 = {v.name for v in b2.vars}
    clash = names1 & names2
    if clash:
        raise NameCollision(f"tensor factors share variables {sorted(clash)}")
    cap = min(b1.cap, b2.cap)
    limit = size_limit()
    monomials = []
    for m1, h1 in zip(b1.monomials, b1.heights):
        monomials.extend(
            m1 + m2 for m2, h2 in zip(b2.monomials, b2.heights) if h1 + h2 <= cap
        )
        if len(monomials) > limit:
            raise CapTooLarge(
                f"tensor basis at cap {cap} exceeds size limit {limit}"
            )
    return GradedBasis(b1.vars + b2.vars, cap, monomials, factors=(b1, b2))


# ---------------------------------------------------------------------------
# Combination helpers (dict monomial -> int or Fraction)

def mono_mul(a, b):
    return tuple(map(add, a, b))


def comb_add_into(dst, src, c=None):
    """dst += c * src, dropping exact zeros."""
    for m, v in src.items():
        w = dst.get(m, 0) + (v if c is None else c * v)
        if w:
            dst[m] = w
        else:
            dst.pop(m, None)
    return dst


def comb_mul(c1, c2):
    out = {}
    for m1, v1 in c1.items():
        for m2, v2 in c2.items():
            m = mono_mul(m1, m2)
            w = out.get(m, 0) + v1 * v2
            if w:
                out[m] = w
            else:
                out.pop(m, None)
    return out


def comb_pow(base, e, cache=None):
    """base**e for a nonempty combination; cache maps exponent -> result."""
    if e < 0:
        raise ValueError("negative power of a combination")
    if cache is not None and e in cache:
        return cache[e]
    if e == 0:
        nvars = len(next(iter(base)))
        result = {tuple([0] * nvars): 1}
    elif e == 1:
        result = dict(base)
    else:
        half = comb_pow(base, e // 2, cache)
        result = comb_mul(half, half)
        if e % 2:
            result = comb_mul(result, base)
    if cache is not None:
        cache[e] = result
    return result
