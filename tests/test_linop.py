"""Sparse operators: certification windows, composition, two-site operators.

Dense oracles: small operators are tabulated as dense matrices with explicit
loops and compared entry by entry on certified windows.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfactor import linop, verify
from rfactor.exactnum import PoleAtParameter
from rfactor.linop import (
    BasisMismatch,
    LaurentLeak,
    LaxOp,
    NEG_INF,
    ShiftViolation,
    SparseOp,
    WindowBeyondCertified,
    commutator,
    compose,
    compose_sum,
    diffop,
    diffop_apply,
    identity_op,
    int_echelon_nullspace,
    is_zero,
    kron,
    lax_mul,
    mat_eye,
    mat_inv,
    mat_is_zero,
    mat_mul,
    mat_sub,
    op_add,
    op_comb,
    op_from_action,
    op_scale,
    pair_swap,
    rational_op,
    run_pipeline,
    stage_laurent,
    stage_subst,
    subst_op,
    zero_op,
)
from rfactor.polyspace import VarSpec, enumerate_basis, tensor_basis
from rfactor.sl2core import sl2_lax, sl2_pair
from rfactor.sl3core import sl3_lax, sl3_pair, sl3_site
from termlists import stage_euler


def zbasis(cap, name="z"):
    return enumerate_basis([VarSpec(name)], cap)


def test_identity_and_scalar():
    b = zbasis(4)
    I = identity_op(b)
    ok, _ = is_zero(op_add(op_scale(I, F(2)), op_add(I, I), -1), 4)
    assert ok
    assert I.certified == 4


def test_diffop_d_and_z():
    b = zbasis(5)
    d = diffop(b, (1, (), ("z",)))
    z = diffop(b, (1, ("z",), ()))
    assert d.shift == -1 and d.certified == 5
    assert z.shift == 1 and z.certified == 4
    # [d, z] = 1 on the certified window
    c = commutator(d, z)
    ok, wit = is_zero(op_add(c, identity_op(b), -1), 4)
    assert ok, wit


def test_shift_violation_detected():
    b = zbasis(4)
    with pytest.raises(ShiftViolation):
        op_from_action(b, lambda m: {(m[0] + 1,): F(1)}, 0)


def test_a_height_raising_substitution_is_a_shift_violation():
    # x -> x^2 and z -> y raise a height-1 variable to height 2
    basis = sl3_site(3)
    for rules in ({"x": {basis.mono({"x": 2}): 1}}, {"z": {basis.mono({"y": 1}): 1}}):
        with pytest.raises(ShiftViolation, match=r"height 2 > 1 \+ declared shift 0"):
            subst_op(basis, rules)


def test_beyond_window_truncation_is_silent():
    b = zbasis(4)
    z = op_from_action(b, lambda m: {(m[0] + 1,): F(1)}, 1)
    assert z.certified == 3
    # the top column is simply dropped
    assert 4 not in z.cols or not z.cols[4]


def test_is_zero_refuses_uncertified_window():
    b = zbasis(4)
    z = diffop(b, (1, ("z",), ()))
    with pytest.raises(WindowBeyondCertified):
        is_zero(z, 4)


def test_is_zero_witness_is_first_failing_monomial():
    b = zbasis(4)
    d = diffop(b, (1, (), ("z",)))
    ok, wit = is_zero(d, 4)
    assert not ok
    assert wit == ("z", "(1)*1")


def test_compose_certification_formula():
    b = zbasis(6)
    z = diffop(b, (1, ("z",), ()))  # shift +1, cert 5
    d = diffop(b, (1, (), ("z",)))  # shift -1, cert 6
    zd = compose(z, d)
    # d lowers height, so z only needs certification up to h - 1: full window
    assert zd.certified == min(6, 5 - (-1))
    dz = compose(d, z)
    assert dz.certified == min(5, 6 - 1)
    euler = diffop(b, (1, ("z",), ("z",)))
    ok, wit = is_zero(op_add(zd, euler, -1), 6)
    assert ok, wit
    ok, wit = is_zero(op_add(dz, op_add(euler, identity_op(b)), -1), 5)
    assert ok, wit
    # a result limit caps the formula and is never raised above it
    assert compose_sum(((z, d, 1),), upto=3).certified == 3
    assert compose_sum(((d, z, 1),), upto=9).certified == 5
    assert compose_sum(((zero_op(b), d, 1),), upto=2).certified == 2
    assert max(b.heights[i] for i in compose_sum(((z, d, 1),), upto=3).cols) == 3
    with pytest.raises(TypeError):
        compose_sum(((z, d, 1),), 3)  # keyword-only: a positional limit is refused


def test_compose_against_larger_cap_oracle():
    # composition tabulated at cap 5 must agree with the same composition
    # done at cap 9 wherever the small one is certified
    terms = ((F(2, 3), ("z", "z"), ("z",)), (-1, (), ("z",)), (F(1, 5), ("z",), ()))
    small, big = zbasis(5), zbasis(9)
    a_s = diffop(small, *terms)
    a_b = diffop(big, *terms)
    c_s = compose(a_s, a_s)
    c_b = compose(a_b, a_b)
    for i in range(len(small)):
        if small.heights[i] <= c_s.certified:
            assert c_s.col(i) == {
                small.index[big.monomials[r]]: v
                for r, v in c_b.col(i).items()
                if big.monomials[r] in small.index
            }


def test_add_and_scale():
    b = zbasis(4)
    z = diffop(b, (1, ("z",), ()))
    s = op_add(z, z)
    ok, _ = is_zero(op_add(s, op_scale(z, F(2)), -1), 3)
    assert ok
    assert not op_scale(z, F(0)).cols


def test_basis_mismatch():
    with pytest.raises(BasisMismatch):
        compose(identity_op(zbasis(3)), identity_op(zbasis(4)))


def test_pair_diffop_matches_kron_oracle():
    """A one-site term list tabulated on the pair basis acts on its own
    site's factor of every monomial, as the Kronecker product with the
    identity does."""
    b1, b2 = zbasis(2, "z1"), zbasis(2, "z2")
    pair = tensor_basis(b1, b2)
    n1, n2 = len(b1), len(b2)
    # kron indexes the full box: entry i1 * n2 + i2 is m1*m2
    box = [m1 + m2 for m1 in b1.monomials for m2 in b2.monomials]

    def check(emb, expect):
        checked = 0
        for c, mc in enumerate(box):
            j = pair.index.get(mc)
            if j is None or pair.heights[j] > emb.certified:
                continue
            checked += 1
            for r, mr in enumerate(box):
                i = pair.index.get(mr)
                if i is None:
                    assert not expect[r][c], (mc, mr)
                else:
                    assert emb.col(j).get(i, 0) == expect[r][c], (mc, mr)
        return checked

    # d/dz is certified on all 6 pair columns, z on the 3 of height <= 1
    for der, cols in ((True, 6), (False, 3)):
        t1 = (1, (), ("z1",)) if der else (1, ("z1",), ())
        d1 = diffop(b1, t1)
        dense1 = [[d1.col(c).get(r, 0) for c in range(n1)] for r in range(n1)]
        assert check(diffop(pair, t1), kron(dense1, mat_eye(n2))) == cols
        t2 = (1, (), ("z2",)) if der else (1, ("z2",), ())
        d2 = diffop(b2, t2)
        dense2 = [[d2.col(c).get(r, 0) for c in range(n2)] for r in range(n2)]
        assert check(diffop(pair, t2), kron(mat_eye(n1), dense2)) == cols


def test_pair_swap_involution_and_conjugation():
    b1, b2 = zbasis(3, "z1"), zbasis(3, "z2")
    pair = tensor_basis(b1, b2)
    P = pair_swap(pair)
    ok, _ = is_zero(op_add(compose(P, P), identity_op(pair), -1), pair.cap)
    assert ok
    d1 = diffop(pair, (1, (), ("z1",)))
    d2 = diffop(pair, (1, (), ("z2",)))
    ok, wit = is_zero(op_add(compose(P, compose(d1, P)), d2, -1), pair.cap)
    assert ok, wit


def test_diffop_apply_falling_factorials():
    # d^2/dz^2 on z^5 = 20 z^3; on z gives 0
    out = diffop_apply([(F(1), (0,), (2,))], (5,))
    assert out == {(3,): F(20)}
    assert diffop_apply([(F(1), (0,), (2,))], (1,)) == {}


def test_stage_subst_shift_and_inverse():
    b = enumerate_basis([VarSpec("x"), VarSpec("y", 2)], 4)
    fwd = stage_subst(b, {0: {(1, 0): F(1), (0, 0): F(3)}})   # x -> x + 3
    bwd = stage_subst(b, {0: {(1, 0): F(1), (0, 0): F(-3)}})  # x -> x - 3
    comb = {(2, 1): F(1)}
    assert bwd(fwd(comb)) == comb
    assert fwd(comb) == {(2, 1): F(1), (1, 1): F(6), (0, 1): F(9)}


def test_stage_subst_rejects_negative_exponents():
    b = zbasis(2, "x")
    st = stage_subst(b, {0: {(1,): F(1), (0,): F(1)}})
    with pytest.raises(LaurentLeak):
        st({(-1,): F(1)})


def test_stage_euler_diagonal_and_pole():
    b = zbasis(3)
    st = stage_euler(b, 0, F(3, 2), F(1, 2))
    assert st({(2,): F(1)}) == {(2,): F(5)}
    stp = stage_euler(b, 0, F(1), F(-2))
    with pytest.raises(PoleAtParameter):
        stp({(3,): F(1)})


def test_stage_laurent_flow():
    # exp(+(y/z) d/dx) on x: x + y/z ; terminates on x-degree
    b = enumerate_basis([VarSpec("x"), VarSpec("y", 2), VarSpec("z")], 3)
    st = stage_laurent(b, 1, num=1, den=2, target=0)
    out = st({(1, 0, 0): F(1)})
    assert out == {(1, 0, 0): F(1), (0, 1, -1): F(1)}
    # binomial coefficients on x^2
    out2 = st({(2, 0, 0): F(1)})
    assert out2 == {(2, 0, 0): F(1), (1, 1, -1): F(2), (0, 2, -2): F(1)}


@pytest.mark.parametrize("sign", [1, -1])
def test_stage_laurent_terms_are_exact_binomials(sign):
    # term j of exp(sign (y/z) d/dx) on c x^t y z^2 is
    # c sign^j C(t, j) x^(t-j) y^(1+j) z^(2-j): exact for a Fraction c, an
    # int for an int c
    b = enumerate_basis([VarSpec("x"), VarSpec("y", 2), VarSpec("z")], 3)
    st = stage_laurent(b, sign, num=1, den=2, target=0)
    t = 6
    for c in (F(1, 3), F(-5, 7), 3):
        out = st({(t, 1, 2): c})
        assert out == {
            (t - j, 1 + j, 2 - j): c * sign**j * math.comb(t, j) for j in range(t + 1)
        }
        assert {type(v) for v in out.values()} == {type(c)}


def test_run_pipeline_roundtrip_is_identity():
    b = enumerate_basis([VarSpec("x"), VarSpec("y", 2), VarSpec("z")], 3)
    fwd = stage_subst(b, {0: {(1, 0, 0): F(1), (0, 0, 1): F(1)}})
    bwd = stage_subst(b, {0: {(1, 0, 0): F(1), (0, 0, 1): F(-1)}})
    op = run_pipeline(b, [fwd, bwd])
    ok, wit = is_zero(op_add(op, identity_op(b), -1), b.cap)
    assert ok, wit


def test_run_pipeline_detects_laurent_leak():
    b = enumerate_basis([VarSpec("x"), VarSpec("y", 2), VarSpec("z")], 3)
    st = stage_laurent(b, 1, num=1, den=2, target=0)
    with pytest.raises(LaurentLeak):
        run_pipeline(b, [st])


def test_laxop_shift_band_enforced():
    b = zbasis(3)
    z = diffop(b, (1, ("z",), ()))
    with pytest.raises(ShiftViolation):
        LaxOp([[z, z], [z, z]])
    L = LaxOp([[identity_op(b), zero_op(b)], [z, identity_op(b)]])
    assert verify._equal(verify._blocks(L, L), 2) == 2


def test_lax_mul_blockwise():
    b = zbasis(4)
    one, zero = identity_op(b), zero_op(b)
    z = diffop(b, (1, ("z",), ()))
    A = LaxOp([[one, zero], [z, one]])
    B = LaxOp([[one, zero], [op_scale(z, F(-1)), one]])
    P = lax_mul(A, B)
    assert verify._equal(verify._blocks(P, LaxOp([[one, zero], [zero, one]])), 3) == 3


@pytest.mark.parametrize("lax, pair", [(sl2_lax, sl2_pair(6)), (sl3_lax, sl3_pair(4))])
def test_a_windowed_lax_product_is_the_whole_one_below_its_limit(lax, pair):
    nslots = 2 if lax is sl2_lax else 3
    A = lax(pair, *[F(k + 1, 3) for k in range(nslots)], "1")
    B = lax(pair, *[F(-2, k + 5) for k in range(nslots)], "2")
    whole = lax_mul(A, B)
    heights = pair.heights
    for w in range(pair.cap + 1):
        part = lax_mul(A, B, upto=w)
        for row, whole_row in zip(part.blocks, whole.blocks):
            for blk, ref in zip(row, whole_row):
                assert blk.certified == min(ref.certified, w)
                assert all(heights[i] <= w for i in blk.cols)
                for i in range(len(pair)):
                    if heights[i] <= blk.certified:
                        assert blk.col(i) == ref.col(i)


def test_dense_helpers_and_inverse():
    M = [[F(1), F(2)], [F(3), F(5)]]
    Minv = mat_inv(M)
    assert mat_is_zero(mat_sub(mat_mul(M, Minv), mat_eye(2)))
    with pytest.raises(ZeroDivisionError):
        mat_inv([[F(1), F(2)], [F(2), F(4)]])


def test_int_echelon_nullspace_small():
    # x + y - z = 0 ; y + z = 0  ->  one-dimensional: (2, -1, 1) direction
    eqs = [{0: F(1), 1: F(1), 2: F(-1)}, {1: F(1), 2: F(1)}]
    sols = int_echelon_nullspace(eqs, [0, 1, 2])
    assert len(sols) == 1
    s = sols[0]
    assert s[0] + s[1] - s[2] == 0 and s[1] + s[2] == 0
    # full-rank system: empty nullspace
    eqs2 = eqs + [{0: F(1)}]
    assert int_echelon_nullspace(eqs2, [0, 1, 2]) == []
    # no equations: everything free
    assert len(int_echelon_nullspace([], [0, 1])) == 2


# x0 = x1 = x2 = x3: a one-line kernel, (1, 1, 1, 1)
_CHAIN = [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 3: -1}]


def _counting_inserts(monkeypatch):
    inserted = []
    insert = linop._echelon_insert

    def counting(row, echelon):
        inserted.append(dict(row))
        return insert(row, echelon)

    monkeypatch.setattr(linop, "_echelon_insert", counting)
    return inserted


def test_a_row_orthogonal_to_the_kernel_line_is_not_reduced(monkeypatch):
    inserted = _counting_inserts(monkeypatch)
    eqs = _CHAIN + [{0: 1, 1: 1, 2: -1, 3: -1}]
    sols = int_echelon_nullspace(eqs, [0, 1, 2, 3])
    assert sols == [{0: 1, 1: 1, 2: 1, 3: 1}]
    assert inserted == _CHAIN  # rank 3 of 4 before the longer row


def test_a_row_off_the_kernel_line_empties_the_nullspace(monkeypatch):
    inserted = _counting_inserts(monkeypatch)
    eqs = _CHAIN + [{0: 1, 1: 1, 2: 1, 3: 1}]
    assert int_echelon_nullspace(eqs, [0, 1, 2, 3]) == []
    assert len(inserted) == 4


def test_a_forced_zero_on_a_pivot_lead_is_inserted_not_pinned_over_it():
    # {0: 1, 2: 1} strips to {0: 1} once 2 is pinned; 0 already leads
    # {0: 1, 1: 1}, so the row must be reduced (to x1 = 0), not stored over it
    eqs = [{2: 1}, {0: 1, 1: 1}, {0: 1, 2: 1}]
    assert int_echelon_nullspace(eqs, [0, 1, 2, 3]) == [{3: 1}]


def test_forced_zeros_alone_reach_the_one_line_kernel(monkeypatch):
    inserted = _counting_inserts(monkeypatch)
    pins = [{0: 3}, {1: F(-1, 2)}, {2: 1}]
    dense = {0: 1, 1: 1, 2: -1}
    assert int_echelon_nullspace(pins + [dense], [0, 1, 2, 3]) == [{3: 1}]
    assert inserted == []
    assert int_echelon_nullspace(pins + [dense | {3: 1}], [0, 1, 2, 3]) == []
    assert inserted == [{0: 1, 1: 1, 2: -1, 3: 1}]


@pytest.mark.parametrize("scale", [1, F(2, 3)], ids=["int", "fraction"])
def test_int_echelon_nullspace_leaves_its_equations_unchanged(scale):
    eqs = [{k: scale * v for k, v in eq.items()} for eq in _CHAIN]
    eqs += [{0: scale, 1: 0, 3: -scale}, {}, {2: 0}]
    for system in (eqs, eqs + [{k: scale for k in range(4)}], eqs[1:]):
        before = [dict(eq) for eq in system]
        int_echelon_nullspace(system, [0, 1, 2, 3])
        assert system == before
        assert all(type(a) is type(b) for eq, old in zip(system, before)
                   for a, b in zip(eq.values(), old.values()))


def _fraction_rank(equations, unknowns):
    """Rank by plain Fraction Gauss-Jordan elimination."""
    rows = [[F(eq.get(u, 0)) for u in unknowns] for eq in equations]
    rank = 0
    for col in range(len(unknowns)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i, r in enumerate(rows):
            if i != rank and r[col]:
                c = r[col] / p[col]
                rows[i] = [a - c * b for a, b in zip(r, p)]
        rank += 1
    return rank


_COEFF = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-6, 6), st.integers(1, 5)),
)


@st.composite
def _sparse_system(draw):
    n = draw(st.integers(1, 6))
    base = draw(
        st.lists(
            st.dictionaries(st.integers(0, n - 1), _COEFF, max_size=n),
            max_size=6,
        )
    )
    dups = draw(st.lists(st.sampled_from(base), max_size=3)) if base else []
    zeros = draw(st.lists(st.sampled_from([{}, {0: F(0)}, {0: 0, n - 1: F(0)}]),
                          max_size=2))
    return n, base + [dict(eq) for eq in dups] + zeros


@st.composite
def _pinned_chains(draw):
    """Systems that reach the pin path on a lead: single-entry rows pin some
    unknowns, then each link is a row {u, w} that leads u's pivot and a row
    {u, p} with p pinned, which strips to {u} on that lead. Links share
    unknowns, so they chain."""
    nonzero = _COEFF.filter(bool)
    n = draw(st.integers(3, 6))
    pins = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 2,
                         unique=True))
    free = [u for u in range(n) if u not in pins]
    eqs = [{p: draw(nonzero)} for p in pins]
    for _ in range(draw(st.integers(1, 3))):
        u, w = sorted(draw(st.lists(st.sampled_from(free), min_size=2,
                                    max_size=2, unique=True)))
        eqs.append({u: draw(nonzero), w: draw(nonzero)})
        eqs.append({u: draw(nonzero), draw(st.sampled_from(pins)): draw(nonzero)})
    return n, eqs


@settings(max_examples=150, deadline=None)
@given(_sparse_system() | _pinned_chains(), st.data())
def test_int_echelon_nullspace_ignores_equation_order(system, data):
    n, eqs = system
    unknowns = list(range(n))
    sols = int_echelon_nullspace(eqs, unknowns)
    for eq in eqs:
        for s in sols:
            assert sum(F(c) * s.get(k, 0) for k, c in eq.items()) == 0
    assert len(sols) == n - _fraction_rank(eqs, unknowns)
    for s in sols:  # 1 at its own free unknown, 0 at every other's
        assert any(
            v == 1 and all(t.get(f, 0) == 0 for t in sols if t is not s)
            for f, v in s.items()
        )
    orders = [eqs[::-1], sorted(eqs, key=len, reverse=True)]
    orders += [data.draw(st.permutations(eqs)) for _ in range(3)]
    for order in orders:
        assert int_echelon_nullspace(order, unknowns) == sols


def test_a_negative_in_window_image_is_a_laurent_leak():
    b = zbasis(3)
    with pytest.raises(LaurentLeak):
        op_from_action(b, lambda m: {(m[0] - 1,): F(1)}, 0)


# ---------------------------------------------------------------------------
# The integer kernel against dense Fraction arithmetic

_PAIR = tensor_basis(zbasis(2, "z1"), zbasis(2, "z2"))
# few denominators, so that sums and products cancel often
_ENTRY = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 6]))
_SCALAR = st.sampled_from([F(0), F(-1), F(1), F(2, 3), F(-5, 4), F(6)])


@st.composite
def _rational_ops(draw, basis):
    """(operator, its dense matrix written from the drawn Fractions)."""
    n = len(basis)
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            _ENTRY,
            max_size=2 * n,
        )
    )
    cols = {}
    dense = [[F(0)] * n for _ in range(n)]
    for (r, c), v in entries.items():
        if v:
            cols.setdefault(c, {})[r] = v
            dense[r][c] = v
    shift = draw(st.integers(-1, 1))
    certified = draw(st.integers(0, basis.cap))
    op = rational_op(basis, cols, shift, certified)
    _assert_canonical(op)
    assert _dense(op) == dense
    return op, dense


def _assert_canonical(op):
    nums = [v for col in op.cols.values() for v in col.values()]
    assert type(op.den) is int and op.den >= 1
    assert all(type(v) is int and v for v in nums)
    assert all(op.cols.values())
    assert math.gcd(op.den, *nums) == 1


def _dense(op):
    n = len(op.domain)
    out = [[F(0)] * n for _ in range(n)]
    for c in range(n):
        for r, v in op.col(c).items():
            out[r][c] = v
    return out


def _masked(dense, basis, top):
    """dense with every column above height top cleared."""
    return [
        [v if basis.heights[c] <= top else F(0) for c, v in enumerate(row)]
        for row in dense
    ]


def _zero_reference(dense, basis, window):
    """is_zero's verdict and witness, read off a dense matrix."""
    for c, h in enumerate(basis.heights):
        col = {r: row[c] for r, row in enumerate(dense) if row[c]}
        if h <= window and col:
            return False, (basis.mono_str(basis.monomials[c]), basis.comb_str(col))
    return True, None


@settings(max_examples=150, deadline=None)
@given(_rational_ops(_PAIR), _rational_ops(_PAIR), _SCALAR, st.data())
def test_integer_kernel_matches_dense_fractions(drawn_a, drawn_b, cb, data):
    (a, da), (b, db) = drawn_a, drawn_b
    n = len(_PAIR)

    ab = compose(a, b)
    _assert_canonical(ab)
    assert ab.certified == min(b.certified, a.certified - b.shift)
    assert _dense(ab) == _masked(mat_mul(da, db), _PAIR, ab.certified)

    combos = ((op_add(a, b), F(1)), (op_add(a, b, cb), cb), (op_add(a, b, -1), F(-1)))
    for got, c in combos:
        _assert_canonical(got)
        assert (got.shift, got.certified) == (
            max(a.shift, b.shift), min(a.certified, b.certified)
        )
        sums = [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]
        assert _dense(got) == _masked(sums, _PAIR, got.certified)

    scaled = op_scale(a, cb)
    _assert_canonical(scaled)
    assert _dense(scaled) == _masked(
        [[cb * x for x in row] for row in da], _PAIR, a.certified
    )
    if cb:
        # canonical: equal operators store equal numerators and denominators
        back = op_scale(scaled, 1 / cb)
        want = _certified_part(a, a.certified)
        assert (back.cols, back.den) == (want.cols, want.den)
    gone = op_add(a, a, -1)
    assert (gone.cols, gone.den) == ({}, 1)

    vec = data.draw(st.dictionaries(st.integers(0, n - 1), _ENTRY.filter(bool)))
    assert a.apply_vec(vec) == {
        r: s
        for r, row in enumerate(da)
        if (s := sum((row[c] * v for c, v in vec.items()), F(0)))
    }

    for op, dense in ((a, da), (ab, _dense(ab)), (gone, [[F(0)] * n] * n)):
        if op.certified >= 0:
            window = data.draw(st.integers(0, min(op.certified, _PAIR.cap)))
            assert is_zero(op, window) == _zero_reference(dense, _PAIR, window)


# ---------------------------------------------------------------------------
# The fused kernels against chained compositions and sums

def _factor(drawn, data):
    """A drawn operator, the zero operator or the cached identity."""
    return data.draw(
        st.sampled_from([drawn[0], zero_op(_PAIR), identity_op(_PAIR)]),
        label="factor",
    )


def _certified_part(op, top):
    """op with every column above height top dropped, kept canonical."""
    cols = {i: op.col(i) for i in op.cols if _PAIR.heights[i] <= top}
    return rational_op(_PAIR, cols, op.shift, op.certified)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(_rational_ops(_PAIR), _rational_ops(_PAIR), _SCALAR),
        min_size=1,
        max_size=4,
    ),
    st.none() | st.integers(0, _PAIR.cap),
    st.data(),
)
def test_compose_sum_is_the_chained_compositions_on_its_certified_columns(
    drawn, upto, data
):
    terms = [(_factor(da, data), _factor(db, data), c) for da, db, c in drawn]
    got = compose_sum(terms, upto=upto)
    _assert_canonical(got)
    assert all(_PAIR.heights[i] <= got.certified for i in got.cols)
    chained = zero_op(_PAIR)
    for a, b, c in terms:
        chained = op_add(chained, compose_sum(((a, b, 1),), upto=upto), c)
    want = _certified_part(chained, chained.certified)
    assert (got.cols, got.den, got.shift, got.certified) == (
        want.cols, want.den, want.shift, want.certified
    )
    # the rule itself: a term with a zero factor counts for neither, one with
    # a zero coefficient for both
    live = [
        (a, b) for a, b, _ in terms if NEG_INF not in (a.shift, b.shift)
    ]
    limit = _PAIR.cap if upto is None else upto
    assert got.certified == min(
        [limit] + [min(b.certified, a.certified - b.shift) for a, b in live]
    )
    assert got.shift == max([NEG_INF] + [a.shift + b.shift for a, b in live])
    n = len(_PAIR)
    dense = [[F(0)] * n for _ in range(n)]
    for a, b, c in terms:
        for r, row in enumerate(mat_mul(_dense(a), _dense(b))):
            for k, v in enumerate(row):
                dense[r][k] += c * v
    assert _dense(got) == _masked(dense, _PAIR, got.certified)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_rational_ops(_PAIR), _SCALAR), min_size=1, max_size=4),
    st.data(),
)
def test_op_comb_is_the_chained_sums(drawn, data):
    terms = [(_factor(d, data), c) for d, c in drawn]
    got = op_comb(terms)
    _assert_canonical(got)
    (first, c0), *rest = terms
    chained = op_scale(first, c0) if c0 else op_add(zero_op(_PAIR), first, 0)
    for a, c in rest:
        chained = op_add(chained, a, c)
    assert (got.cols, got.den, got.shift, got.certified) == (
        chained.cols, chained.den, chained.shift, chained.certified
    )
    # a zero coefficient still counts toward the shift and certification
    assert got.shift == max(a.shift for a, _ in terms)
    assert got.certified == min(a.certified for a, _ in terms)
    n = len(_PAIR)
    sums = [
        [sum((c * _dense(a)[r][k] for a, c in terms), F(0)) for k in range(n)]
        for r in range(n)
    ]
    assert _dense(got) == _masked(sums, _PAIR, got.certified)
