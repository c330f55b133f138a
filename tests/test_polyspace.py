"""Graded bases: enumeration order, tensor pairing, combination helpers.

The brute-force oracles below enumerate exponent boxes with plain loops and
set comparisons, independent of the production enumeration.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfactor.polyspace import (
    CapTooLarge,
    GradedBasis,
    NameCollision,
    VarSpec,
    comb_add_into,
    comb_mul,
    comb_pow,
    enumerate_basis,
    mono_mul,
    tensor_basis,
)

SL3_VARS = [VarSpec("x", 1), VarSpec("y", 2), VarSpec("z", 1)]


def brute_sl3_monomials(cap):
    out = set()
    for a in range(cap + 1):
        for b in range(cap + 1):
            for c in range(cap + 1):
                if a + 2 * b + c <= cap:
                    out.add((a, b, c))
    return out


def test_sl3_cap2_frozen_set():
    basis = enumerate_basis(SL3_VARS, 2)
    got = set(basis.monomials)
    assert got == {
        (0, 0, 0),
        (1, 0, 0), (0, 0, 1),
        (2, 0, 0), (1, 0, 1), (0, 0, 2), (0, 1, 0),
    }
    assert len(basis) == 7
    # graded: heights never decrease
    assert basis.heights == sorted(basis.heights)
    assert basis.heights == [0, 1, 1, 2, 2, 2, 2]


def test_sl3_cap3_matches_brute_force():
    basis = enumerate_basis(SL3_VARS, 3)
    assert set(basis.monomials) == brute_sl3_monomials(3)
    assert len(set(basis.monomials)) == len(basis)


def test_index_roundtrip_and_heights():
    basis = enumerate_basis(SL3_VARS, 4)
    for i, m in enumerate(basis.monomials):
        assert basis.index[m] == i
        assert basis.heights[i] == m[0] + 2 * m[1] + m[2]


def test_deterministic_rebuild():
    b1 = enumerate_basis(SL3_VARS, 5)
    b2 = enumerate_basis(SL3_VARS, 5)
    assert b1.monomials == b2.monomials
    assert b1.same(b2)


def test_sl2_single_variable_order():
    basis = enumerate_basis([VarSpec("z")], 3)
    assert basis.monomials == [(0,), (1,), (2,), (3,)]


def test_mono_str():
    basis = enumerate_basis(SL3_VARS, 4)
    assert basis.mono_str((0, 0, 0)) == "1"
    assert basis.mono_str((2, 1, 0)) == "x^2*y"
    assert basis.mono_str((0, 0, -1)) == "z^-1"
    assert basis.var_index("z") == 2
    assert basis.mono({"y": 1, "x": 2}) == (2, 1, 0)
    assert basis.mono({}) == (0, 0, 0)
    with pytest.raises(KeyError):
        basis.var_index("w")


def test_tensor_basis_pairing():
    b1 = enumerate_basis([VarSpec("z1")], 2)
    b2 = enumerate_basis([VarSpec("z2")], 3)
    pair = tensor_basis(b1, b2)
    # the box monomials of total height <= min cap, site-1 index major
    assert pair.monomials == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert pair.heights == [0, 1, 2, 1, 2, 2]
    assert pair.cap == 2
    assert pair.factors == (b1, b2)


def test_tensor_name_collision():
    b1 = enumerate_basis([VarSpec("z")], 2)
    b2 = enumerate_basis([VarSpec("z")], 2)
    with pytest.raises(NameCollision):
        tensor_basis(b1, b2)


def test_size_limit_env(monkeypatch):
    monkeypatch.setenv("RFACTOR_SIZE_LIMIT", "5")
    with pytest.raises(CapTooLarge):
        enumerate_basis(SL3_VARS, 3)
    monkeypatch.setenv("RFACTOR_SIZE_LIMIT", "bogus")
    with pytest.raises(CapTooLarge):
        enumerate_basis(SL3_VARS, 1)


def test_varspec_validation():
    with pytest.raises(ValueError):
        VarSpec("x", weight=0)
    with pytest.raises(ValueError, match="weight of x must be >= 1"):
        VarSpec("x", 0)
    with pytest.raises(ValueError):
        enumerate_basis(SL3_VARS, -1)
    with pytest.raises(NameCollision):
        enumerate_basis([VarSpec("x"), VarSpec("x")], 2)


@pytest.mark.parametrize(
    "cls,args,field",
    [
        (VarSpec, ("y", 2), "weight"),
    ],
)
def test_value_types_are_frozen_and_hashable(cls, args, field):
    value = cls(*args)
    with pytest.raises(AttributeError):
        setattr(value, field, 5)
    with pytest.raises(AttributeError):
        value.extra = 5
    assert hash(value) == hash(cls(*args))
    assert {value: 1}[cls(*args)] == 1


# -- combination helpers -----------------------------------------------------

def test_comb_mul_binomial():
    # (x + z)^2 = x^2 + 2xz + z^2 over sl3 exponent tuples
    xz = {(1, 0, 0): F(1), (0, 0, 1): F(1)}
    sq = comb_mul(xz, xz)
    assert sq == {(2, 0, 0): F(1), (1, 0, 1): F(2), (0, 0, 2): F(1)}


@given(e=st.integers(0, 8))
def test_comb_pow_matches_repeated_mul(e):
    base = {(1, 0, 0): F(2), (0, 1, 0): F(-1), (0, 0, 0): F(1, 3)}
    expect = {(0, 0, 0): F(1)}
    for _ in range(e):
        expect = comb_mul(expect, base)
    assert comb_pow(base, e, {}) == expect


def test_comb_mul_drops_exact_zero_products():
    # a zero coefficient (e.g. a zero shift parameter in x -> x + a) makes a
    # product term exactly 0 at a monomial not yet in the result
    x_plus_0 = {(1, 0, 0): F(1), (0, 0, 0): F(0)}
    assert comb_mul(x_plus_0, x_plus_0) == {(2, 0, 0): F(1)}
    assert comb_pow(x_plus_0, 3, {}) == {(3, 0, 0): F(1)}


def test_comb_add_into_cancels_exact_zeros():
    acc = {(1, 0): F(1)}
    comb_add_into(acc, {(1, 0): F(-1), (0, 1): F(2)})
    assert acc == {(0, 1): F(2)}
    assert mono_mul((1, 2), (3, -1)) == (4, 1)
