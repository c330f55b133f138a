"""Path tables: each elementary R-operator compiled once per basis.

The factors are the five on a pair basis and the third swap reduced to one
site basis (`sl3_r3_single`). The reference is run_pipeline over the same
stage list with every Euler placeholder made a stage_euler at the point,
which is how the factors were built before the tables: the two must give the
same operator wherever the pipeline builds one, carry mutations the same way,
and the table must raise PoleAtParameter wherever the pipeline does. A
mutation is one (Euler stage, exponent) pair whose eigenvalue is doubled.
The degeneracy guard of a factor is read off its table (`pole_bases`): where
it accepts, the table meets no pole.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfactor import linop
from rfactor.exactnum import PoleAtParameter, gamma_ratio_shift
from rfactor.linop import (
    Euler,
    LaurentLeak,
    compile_path_table,
    identity_op,
    path_op,
    path_table,
    pole_bases,
    run_pipeline,
    stage_euler,
)
from rfactor.polyspace import VarSpec, enumerate_basis, tensor_basis
from rfactor.sl2core import _sl2_r1_stages, _sl2_r2_stages, sl2_pair, sl2_r1, sl2_r2
from rfactor.sl3core import (
    _sl3_r1_stages,
    _sl3_r2_stages,
    _sl3_r3_single_stages,
    _sl3_r3_stages,
    sl3_pair,
    sl3_r1,
    sl3_r2,
    sl3_r3,
    sl3_r3_single,
    sl3_site,
)
from rfactor.verify import (
    SL2_MUTATION_TAGS,
    SL3_MUTATION_TAGS,
    degeneracy_guard,
    parse_mutate,
)

# factor -> (builder, stage list, basis, cap)
FACTORS = {
    "sl2-r1": (sl2_r1, _sl2_r1_stages, sl2_pair, 6),
    "sl2-r2": (sl2_r2, _sl2_r2_stages, sl2_pair, 6),
    "sl3-r1": (sl3_r1, _sl3_r1_stages, sl3_pair, 3),
    "sl3-r2": (sl3_r2, _sl3_r2_stages, sl3_pair, 3),
    "sl3-r3": (sl3_r3, _sl3_r3_stages, sl3_pair, 3),
    "sl3-r3-single": (sl3_r3_single, _sl3_r3_single_stages, sl3_site, 3),
}
PAIR_FACTORS = [name for name in FACTORS if FACTORS[name][2] is not sl3_site]


def _doubled_at(stage, var, k):
    """The Euler stage with its eigenvalue at exponent k doubled."""
    return lambda comb: {
        m: 2 * c if m[var] == k else c for m, c in stage(comb).items()
    }


def _reference(table, args, mutate=None):
    """run_pipeline over the table's stage list at `args`; mutate=(s, k)
    doubles the s-th Euler stage's eigenvalue at exponent k."""
    stages, s = [], 0
    for stage in table.stages:
        if isinstance(stage, Euler):
            a, b = (x(*args) if callable(x) else x for x in (stage.a, stage.b))
            var = stage.var
            stage = stage_euler(table.basis, var, a, b)
            if mutate is not None and mutate[0] == s:
                stage = _doubled_at(stage, var, mutate[1])
            s += 1
        stages.append(stage)
    return run_pipeline(table.basis, stages)


def _shift(d):
    """A stage moving the exponent of a one-variable basis by d."""
    return lambda comb: {(m[0] + d,): c for m, c in comb.items()}


def _same(a, b):
    return (a.cols, a.den, a.shift, a.certified) == (
        b.cols, b.den, b.shift, b.certified
    )


def _fresh_pair(algebra):
    """A pair basis no cache has seen."""
    if algebra == "sl2":
        sites = [enumerate_basis([VarSpec(f"z{s}")], 5) for s in "12"]
    else:
        sites = [
            enumerate_basis(
                [VarSpec(f"x{s}", 1), VarSpec(f"y{s}", 2), VarSpec(f"z{s}", 1)], 2
            )
            for s in "12"
        ]
    return tensor_basis(*sites)


@pytest.mark.parametrize("name", PAIR_FACTORS)
def test_second_factor_build_on_a_pair_compiles_nothing(name, monkeypatch):
    build = FACTORS[name][0]
    compiled = []
    real = linop.compile_path_table

    def counting(basis, stages):
        compiled.append(basis)
        return real(basis, stages)

    monkeypatch.setattr(linop, "compile_path_table", counting)
    pair = _fresh_pair(name[:3])
    nargs = 3 if name.startswith("sl2") else 4
    build(pair, *[F(k + 1, 7) for k in range(nargs)])
    assert compiled == [pair]
    compiled.clear()
    build(pair, *[F(-k - 2, 5) for k in range(nargs)])
    assert not compiled


@pytest.mark.parametrize("stage_list", [_sl3_r1_stages, _sl3_r2_stages, _sl3_r3_stages])
def test_laurent_terms_that_do_not_cancel_leak_at_compile_time(stage_list):
    pair = sl3_pair(3)
    stages = stage_list(pair)
    compile_path_table(pair, stages)
    # the closing Euler stage has lower parameter 1: without it, the paths
    # its 1/Gamma zero removed keep their negative exponents, which a later
    # substitution meets or, with the list cut there, the output keeps
    (k,) = [k for k, st in enumerate(stages) if isinstance(st, Euler) and st.b == 1]
    for broken in (stages[:k] + stages[k + 1:], stages[:k]):
        with pytest.raises(LaurentLeak):
            compile_path_table(pair, broken)


@pytest.mark.parametrize(
    "algebra, tag",
    [("sl2", t) for t in SL2_MUTATION_TAGS] + [("sl3", t) for t in SL3_MUTATION_TAGS],
)
def test_a_mutated_table_equals_the_mutated_pipeline(algebra, tag):
    k, stage, exponent = parse_mutate(algebra, tag)
    build, stage_list, pair_of, cap = FACTORS[f"{algebra}-r{k}"]
    pair = pair_of(cap)
    if algebra == "sl2":
        args = (F(7, 3), F(-2, 5), F(1, 4))
    else:
        args = (F(7, 3), F(-2, 5), F(1, 4), F(5, 6))
    got = build(pair, *args, mutate=(stage, exponent))
    want = _reference(path_table(pair, stage_list), args, (stage, exponent))
    assert _same(got, want)
    assert not _same(got, build(pair, *args))


def _point(cap, nargs):
    near_pole = st.integers(-cap - 1, cap + 1).map(F)
    generic = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
    return st.tuples(*[near_pole | generic] * nargs)


@st.composite
def _case(draw, name):
    cap = FACTORS[name][3]
    if name.startswith("sl2"):
        args = draw(_point(cap, 3))
        mutate = draw(st.none() | st.tuples(st.just(0), st.integers(0, cap)))
        return args, mutate
    args = draw(_point(cap, 4))
    mutate = draw(st.none() | st.tuples(st.integers(0, 2), st.integers(-cap, cap)))
    return args, mutate


def _outcome(fn):
    try:
        return fn()
    except PoleAtParameter:
        return None


@pytest.mark.parametrize("name", FACTORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_table_agrees_with_the_pipeline_near_poles(name, data):
    _, stage_list, pair_of, cap = FACTORS[name]
    pair = pair_of(cap)
    table = path_table(pair, stage_list)
    args, mutate = data.draw(_case(name))
    want = _outcome(lambda: _reference(table, args, mutate))
    got = _outcome(lambda: path_op(table, args, mutate))
    accepted, _ = degeneracy_guard(pole_bases(table, args), cap)
    if accepted:
        assert want is not None and got is not None
    if want is None:
        assert got is None
    if got is not None:
        assert _same(got, want)


@pytest.mark.parametrize("name", ["sl3-r1", "sl3-r2", "sl3-r3"])
def test_the_closing_stage_pole_is_raised_only_where_a_kept_path_reaches_it(name):
    build, _, pair_of, cap = FACTORS[name]
    pair = pair_of(cap)
    # the closing stage's upper parameter is 1 at both points: Gamma(e + 1) /
    # Gamma(e + 1) has a pole at every negative exponent e
    with pytest.raises(PoleAtParameter):
        gamma_ratio_shift(F(1), F(1), -1)
    # generic otherwise: the Laurent flows leave negative exponents for it
    generic = {
        "sl3-r1": (F(1, 2), F(1, 3), F(1, 2), F(1, 5)),  # u1 = v2
        "sl3-r2": (F(1, 3), F(1, 2), F(1, 5), F(1, 2)),  # u2 = v3
        "sl3-r3": (F(1, 3), F(1, 2), F(1, 5), F(1, 2)),  # u2 = v3
    }
    with pytest.raises(PoleAtParameter):
        build(pair, *generic[name])
    # all four arguments equal: the first two Euler stages are the identity,
    # the flows cancel, and only dropped paths reach a negative exponent; the
    # pipeline builds the identity there, but the guard rejects the point and
    # the table, which computes every eigenvalue it has a path for, raises
    args = (F(-3),) * 4
    table = path_table(pair, FACTORS[name][1])
    assert _same(_reference(table, args), identity_op(pair))
    assert not degeneracy_guard(pole_bases(table, args), cap)[0]
    with pytest.raises(PoleAtParameter):
        build(pair, *args)


def test_only_a_lower_parameter_of_one_drops_negative_exponents():
    basis = enumerate_basis([VarSpec("z")], 4)  # the stage sees z^-2 ... z^2
    args = (F(1, 2),)
    for b, kept in ((lambda a: a + 1, 5), (1, 3)):
        stages = (_shift(-2), Euler(0, lambda a: a, b), _shift(2))
        table = compile_path_table(basis, stages)
        got = path_op(table, args)
        assert _same(got, _reference(table, args))
        assert len(got.cols) == kept


def test_an_euler_exponent_beyond_the_cap_is_refused():
    basis = enumerate_basis([VarSpec("z")], 2)
    stage = Euler(0, lambda a: a, lambda a: a + 1)
    down = (_shift(-2), stage, _shift(2))
    assert compile_path_table(basis, down).exps == ([-2, -1, 0],)
    with pytest.raises(ValueError, match="beyond cap 2"):
        compile_path_table(basis, (_shift(1), stage, _shift(-1)))


@pytest.mark.parametrize("name", FACTORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_guard_accepted_point_needs_no_fallback_and_meets_no_pole(name, data):
    _, stage_list, pair_of, cap = FACTORS[name]
    table = path_table(pair_of(cap), stage_list)
    args, mutate = data.draw(_case(name))
    ok, _ = degeneracy_guard(pole_bases(table, args), cap)
    assume(ok)
    path_op(table, args, mutate)


@pytest.mark.parametrize("name", FACTORS)
def test_a_factor_at_cap_c_is_the_truncation_of_the_factor_at_c_plus_one(name):
    build, _, pair_of, _ = FACTORS[name]
    sl2 = name.startswith("sl2")
    c = 5 if sl2 else 3
    args = (F(7, 3), F(-2, 5), F(1, 4), F(5, 6))[: 3 if sl2 else 4]

    def entries(op):
        """{column monomial: {row monomial: entry}} on heights <= c."""
        pair = op.domain
        return {
            pair.monomials[i]: {pair.monomials[j]: v for j, v in op.col(i).items()}
            for i, h in enumerate(pair.heights)
            if h <= c
        }

    small, big = (build(pair_of(cap), *args) for cap in (c, c + 1))
    assert entries(small) == entries(big)
