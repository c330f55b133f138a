"""Path tables: each elementary R-operator compiled once per basis.

The factors are those of the checks' own table, `verify._FACTORS`: the five
on a pair basis and the third swap reduced to one site basis (`r3-single`),
each evaluated as path_op(path_table(basis, stage list), args, mutate) with
no guard in front. The reference is run_pipeline over the same stage list
with every Euler placeholder made a stage_euler at the point, which is how
the factors were built before the tables: the two must give the same
operator wherever the pipeline builds one, carry mutations the same way, and
the table must raise PoleAtParameter wherever the pipeline does. A
mutation is one (Euler stage, exponent) pair whose eigenvalue is doubled.
The table states where a factor's poles lie: it raises exactly where the
Fraction sweep of its eigenvalues meets a pole, in the words of the
Pochhammer symbol that vanishes, and the checks' `_factor` turns that into
CheckSkipped, so a factor builds or skips and never raises.
"""

import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfactor import linop
from rfactor.exactnum import PoleAtParameter
from rfactor.linop import (
    Euler,
    LaurentLeak,
    compile_path_table,
    identity_op,
    path_op,
    path_table,
    run_pipeline,
)
from rfactor.polyspace import VarSpec, enumerate_basis, tensor_basis
from rfactor.sl2core import sl2_pair
from rfactor.sl3core import (
    _sl3_r1_stages,
    _sl3_r2_stages,
    _sl3_r3_stages,
    sl3_pair,
    sl3_site,
)
from rfactor.verify import (
    _FACTORS,
    _algebra,
    _factor,
    CheckSkipped,
    SL2_MUTATION_TAGS,
    SL3_MUTATION_TAGS,
    parse_mutate,
)
from termlists import (
    assert_same_op,
    gamma_ratio_shift,
    same_op,
    stage_euler,
    vanishing_pochhammer,
)

CAPS = {"sl2": 6, "sl3": 3}
# factor name -> its key (algebra, factor) in the checks' factor table
KEYS = {
    f"{alg}-{k}" if k == "r3-single" else f"{alg}-r{k}": (alg, k)
    for alg, k in _FACTORS
}
# factor -> (stage list, basis, cap), read from the checks' factor table; the
# one factor without side operators is the third swap on the sl3 site basis
FACTORS = {
    name: (
        _FACTORS[key][0],
        _algebra(key[0]).pair if _FACTORS[key][1] else sl3_site,
        CAPS[key[0]],
    )
    for name, key in KEYS.items()
}
PAIR_FACTORS = [name for name in FACTORS if FACTORS[name][1] is not sl3_site]


def _build(name, basis, args, mutate=None):
    """The factor `name` on `basis` at `args`, unguarded."""
    return path_op(path_table(basis, FACTORS[name][0]), args, mutate)


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
    compiled = []
    real = linop.compile_path_table

    def counting(basis, stages):
        compiled.append(basis)
        return real(basis, stages)

    monkeypatch.setattr(linop, "compile_path_table", counting)
    pair = _fresh_pair(name[:3])
    nargs = 3 if name.startswith("sl2") else 4
    _build(name, pair, [F(k + 1, 7) for k in range(nargs)])
    assert compiled == [pair]
    compiled.clear()
    _build(name, pair, [F(-k - 2, 5) for k in range(nargs)])
    assert not compiled


@pytest.mark.parametrize("name", FACTORS)
def test_tables_compile_in_integers(name):
    # every stage closure keeps the integer paths it is fed integer, so the
    # table's path coefficients are ints and no Fraction is ever formed
    stage_list, basis_of, _ = FACTORS[name]
    basis = basis_of({"sl2": 8, "sl3": 3}[name[:3]])
    seen = set()

    def watched(stage):
        def run(comb):
            out = stage(comb)
            seen.update(map(type, out.values()))
            return out

        return run

    stages = [s if isinstance(s, Euler) else watched(s) for s in stage_list(basis)]
    table = compile_path_table(basis, stages)
    assert seen == {int}
    coefficients = {
        type(c) for col in table.cols.values() for _, terms in col for _, c in terms
    }
    assert coefficients == {int}


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
    name = f"{algebra}-r{k}"
    stage_list, pair_of, cap = FACTORS[name]
    pair = pair_of(cap)
    if algebra == "sl2":
        args = (F(7, 3), F(-2, 5), F(1, 4))
    else:
        args = (F(7, 3), F(-2, 5), F(1, 4), F(5, 6))
    got = _build(name, pair, args, (stage, exponent))
    want = _reference(path_table(pair, stage_list), args, (stage, exponent))
    assert_same_op(got, want)
    assert not same_op(got, _build(name, pair, args))


def _point(cap, nargs):
    near_pole = st.integers(-cap - 1, cap + 1).map(F)
    generic = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
    return st.tuples(*[near_pole | generic] * nargs)


@st.composite
def _case(draw, name):
    cap = FACTORS[name][2]
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


def _eigenvalues_or_pole(fn):
    try:
        return fn()
    except PoleAtParameter as e:
        return str(e)


def _fraction_sweep(a, b, exps, cap):
    """{e: gamma_ratio_shift(a, b, e)} over exps or, where that sweep meets a
    pole, the reason a Pochhammer guard at cap gives for the base of the side
    that meets it: b if a positive exponent does, else a - cap."""
    poles = [e for e in exps if _outcome(lambda: gamma_ratio_shift(a, b, e)) is None]
    if not poles:
        return {e: gamma_ratio_shift(a, b, e) for e in exps}
    reason = vanishing_pochhammer([b if poles[-1] > 0 else a - cap], cap)
    assert reason is not None
    return reason


def _running_eigenvalues(a, b, exps, cap):
    """The eigenvalues N_e / D of _euler_eigenvalues, whose numerators must
    be ints over one positive int D, their least common denominator."""
    nums, den = linop._euler_eigenvalues(a, b, exps, cap)
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    return {e: F(v, den) for e, v in nums.items()}


_EIG_CAP = 8
_EXPONENTS = st.tuples(
    st.integers(-_EIG_CAP, _EIG_CAP), st.integers(-_EIG_CAP, _EIG_CAP)
).map(lambda t: list(range(min(t), max(t) + 1))) | st.sets(
    st.integers(-_EIG_CAP, _EIG_CAP)
).map(sorted)


@settings(max_examples=400, deadline=None)
@given(_point(_EIG_CAP, 1), _point(_EIG_CAP, 1) | st.just((1,)), _EXPONENTS)
def test_running_eigenvalues_are_the_gamma_ratios_or_their_pole(a, b, exps):
    (a,), (b,) = a, b
    got = _eigenvalues_or_pole(lambda: _running_eigenvalues(a, b, exps, _EIG_CAP))
    assert got == _fraction_sweep(a, b, exps, _EIG_CAP)


@pytest.mark.parametrize("a, b, message", [
    (F(1, 2), F(-1), "(-1)_2 = 0"),  # (b)_e = 0 from e = 2 on
    (F(1), F(1, 2), "(-3)_4 = 0"),  # a - 1 = 0 from e = -1 on
    (F(1), F(-1), "(-1)_2 = 0"),  # both sides: the b side is raised
])
def test_a_pole_in_a_gap_of_the_exponents_is_raised_as_the_sweep_raises_it(
    a, b, message
):
    # raised wherever the Fraction sweep raises, in the guard's words: the
    # vanishing symbol is named, not the exponent that first reaches it
    exps = [-4, -2, 0, 3]
    with pytest.raises(PoleAtParameter):
        {e: gamma_ratio_shift(a, b, e) for e in exps}
    with pytest.raises(PoleAtParameter) as raised:
        _running_eigenvalues(a, b, exps, 4)
    assert str(raised.value) == message
    assert _running_eigenvalues(a, b, [0], 4) == {0: 1}


@pytest.mark.parametrize("name", FACTORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_table_agrees_with_the_pipeline_near_poles(name, data):
    stage_list, pair_of, cap = FACTORS[name]
    pair = pair_of(cap)
    table = path_table(pair, stage_list)
    args, mutate = data.draw(_case(name))
    want = _outcome(lambda: _reference(table, args, mutate))
    got = _outcome(lambda: path_op(table, args, mutate))
    # the table raises exactly where the Fraction sweep of the eigenvalues
    # it computes meets a pole, dropped paths included
    eulers = [stage for stage in table.stages if isinstance(stage, Euler)]
    sweeps = [
        _fraction_sweep(
            *(x(*args) if callable(x) else x for x in (stage.a, stage.b)), exps, cap
        )
        for stage, exps in zip(eulers, table.exps)
    ]
    assert (got is None) == any(isinstance(v, str) for v in sweeps)
    if want is None:
        assert got is None
    if got is not None:
        assert_same_op(got, want)


@pytest.mark.parametrize("name", ["sl3-r1", "sl3-r2", "sl3-r3"])
def test_the_closing_stage_pole_is_raised_only_where_a_kept_path_reaches_it(name):
    _, pair_of, cap = FACTORS[name]
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
        _build(name, pair, generic[name])
    # all four arguments equal: the first two Euler stages are the identity,
    # the flows cancel, and only dropped paths reach a negative exponent; the
    # pipeline builds the identity there, but the table, which computes every
    # eigenvalue it has a path for, raises at the closing stage's upper
    # parameter 1, and the factor skips with that reason
    args = (F(-3),) * 4
    table = path_table(pair, FACTORS[name][0])
    assert_same_op(_reference(table, args), identity_op(pair))
    with pytest.raises(PoleAtParameter, match=r"^\(-2\)_3 = 0$"):
        _build(name, pair, args)
    with pytest.raises(CheckSkipped, match=r"^\(-2\)_3 = 0$"):
        _factor(*KEYS[name], pair, args)


def test_only_a_lower_parameter_of_one_drops_negative_exponents():
    basis = enumerate_basis([VarSpec("z")], 4)  # the stage sees z^-2 ... z^2
    args = (F(1, 2),)
    for b, kept in ((lambda a: a + 1, 5), (1, 3)):
        stages = (_shift(-2), Euler(0, lambda a: a, b), _shift(2))
        table = compile_path_table(basis, stages)
        got = path_op(table, args)
        assert_same_op(got, _reference(table, args))
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
def test_a_factor_builds_or_skips_and_never_raises_a_pole(name, data):
    """`_factor` builds the table's operator or raises CheckSkipped, whose
    reason names a Pochhammer symbol of length <= cap that vanishes; a
    PoleAtParameter never gets through."""
    _, pair_of, cap = FACTORS[name]
    pair = pair_of(cap)
    args, mutate = data.draw(_case(name))
    try:
        got = _factor(*KEYS[name], pair, args, mutate)
    except CheckSkipped as e:
        base, length = re.fullmatch(r"\((-?\d+)\)_(\d+) = 0", e.args[0]).groups()
        assert 1 <= int(length) <= cap and int(base) + int(length) - 1 == 0
        return
    assert_same_op(got, _build(name, pair, args, mutate))


def test_a_negative_side_pole_skips_in_the_guards_words():
    # the closing Euler stage's upper parameter u1 - v2 + 1 is 1: (a - 1) = 0
    # at every negative exponent, which (a - cap)_cap = (-2)_3 states
    with pytest.raises(CheckSkipped, match=r"^\(-2\)_3 = 0$"):
        _factor("sl3", 1, sl3_pair(3), (F(1, 2),) * 4)


@pytest.mark.parametrize("name", FACTORS)
def test_a_factor_at_cap_c_is_the_truncation_of_the_factor_at_c_plus_one(name):
    pair_of = FACTORS[name][1]
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

    small, big = (_build(name, pair_of(cap), args) for cap in (c, c + 1))
    assert entries(small) == entries(big)


@pytest.mark.parametrize("name", FACTORS)
def test_a_height_limit_evaluates_the_columns_below_it_and_certifies_there(name):
    """path_op(table, args, upto=h) is the full evaluation restricted to the
    columns of height <= h, certified at h (at most the cap), with no
    column above it, mutated or not."""
    stage_list, basis_of, cap = FACTORS[name]
    basis = basis_of(cap)
    table = path_table(basis, stage_list)
    sl2 = name.startswith("sl2")
    args = (F(7, 3), F(-2, 5), F(1, 4), F(5, 6))[: 3 if sl2 else 4]
    for mutate in (None, (0, 1)):
        full = path_op(table, args, mutate)
        for h in range(-1, cap + 2):
            got = path_op(table, args, mutate, upto=h)
            assert got.certified == min(h, cap) and got.shift == full.shift
            assert all(basis.heights[i] <= h for i in got.cols)
            assert {i: got.col(i) for i in got.cols} == {
                i: full.col(i) for i in full.cols if basis.heights[i] <= h
            }


def test_a_pole_only_columns_above_the_height_limit_reach_is_raised():
    """sl2 r1 at v1 - v2 = -3 divides by (-3)_4 = 0 at exponent 4, which
    only columns of height >= 4 reach: the table evaluated up to height 2
    raises that pole all the same, in the same words."""
    table = path_table(sl2_pair(6), _FACTORS["sl2", 1][0])
    args = (F(1, 2), F(0), F(3))
    with pytest.raises(PoleAtParameter) as full:
        path_op(table, args)
    with pytest.raises(PoleAtParameter) as windowed:
        path_op(table, args, upto=2)
    assert str(windowed.value) == str(full.value) == "(-3)_4 = 0"
