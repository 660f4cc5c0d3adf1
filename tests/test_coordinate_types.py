"""The coordinate type rule, kept by `groups` alone: a Python int on every Z
and cyclic factor, a Fraction on every torus factor, whatever produced the
element."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_finite_group,
    random_matrix_rep,
    random_mixed_matrix_rep,
    random_quadratic_form,
    reference_reduce,
)
from normsim.circuits import (
    AutomorphismGate,
    DesignatedBasis,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
)
from normsim.coset import coset_run
from normsim.dense import dense_run
from normsim.groups import (
    ElementaryGroup,
    GroupError,
    T,
    Z,
    cyclic,
    cyclic_group,
    format_element,
    parse_element,
)

factor_strategy = st.one_of(
    st.just(Z), st.just(T), st.integers(2, 12).map(cyclic)
)
mixed_groups = st.lists(factor_strategy, min_size=1, max_size=4).map(ElementaryGroup)
small_ints = st.integers(-10**20, 10**20)


def assert_typed(coords, group: ElementaryGroup) -> None:
    assert len(coords) == len(group.factors)
    for c, factor in zip(coords, group.factors):
        if factor.kind == "T":
            assert type(c) is Fraction and 0 <= c < 1
        else:
            assert type(c) is int
            if factor.kind == "cyclic":
                assert 0 <= c < factor.modulus


def raw_coord(draw, factor):
    """A raw value valid on `factor`, in any of the types callers pass."""
    if factor.kind == "T":
        return draw(st.fractions(max_denominator=60) | small_ints)
    value = draw(small_ints)
    return draw(st.sampled_from([value, Fraction(value), np.int64(value % 2**62)]))


@st.composite
def group_with_raw(draw, count=1):
    g = draw(mixed_groups)
    return g, [[raw_coord(draw, f) for f in g.factors] for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(group_with_raw(count=2), st.integers(-50, 50))
def test_arithmetic_keeps_the_type_rule(case, k):
    g, (raw_x, raw_y) = case
    x, y = g.reduce(raw_x), g.reduce(raw_y)
    for el in (x, y, x + y, x - y, -x, x * k, k * x, g.identity()):
        assert_typed(el.coords, g)
    assert_typed(parse_element(format_element(x), g).coords, g)
    assert parse_element(format_element(x), g) == x


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 6).map(cyclic), min_size=1, max_size=3).map(ElementaryGroup))
def test_elements_are_ints(g):
    for el in g.elements():
        assert_typed(el.coords, g)


@settings(max_examples=100, deadline=None)
@given(group_with_raw(), st.integers(0, 2**32 - 1))
def test_matrix_apply_keeps_the_type_rule(case, seed):
    g, (raw,) = case
    rep = random_mixed_matrix_rep(g, np.random.default_rng(seed))
    for row, target in zip(rep.matrix, g.factors):
        for entry, source in zip(row, g.factors):
            if not (target.kind == "T" and source.kind != "T"):
                assert type(entry) is int
    assert_typed(rep.apply(g.reduce(raw)).coords, g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_engine_outcomes_are_ints(seed):
    rng = np.random.default_rng(seed)
    g = random_finite_group(rng, max_order=64, max_factors=3)
    registers = tuple(range(len(g.factors)))
    circuit = NormalizerCircuit(
        DesignatedBasis(g),
        [
            QFTGate(registers),
            AutomorphismGate(rep=random_matrix_rep(g, rng)),
            QuadraticGate(form=random_quadratic_form(g, rng)),
            QFTGate(registers[:1]),
        ],
    )
    start = g.random_element(rng)
    state = dense_run(circuit, start.coords)
    for i in range(state.amplitudes.size):
        assert_typed(state.points([i])[0], g)
    for point in coset_run(circuit, start).sample(20, rng):
        assert_typed(point, g)


def test_numpy_integers_become_python_ints():
    g = ElementaryGroup([Z, cyclic(5)])
    el = g.reduce([np.int64(-7), np.int64(13)])
    assert el.coords == (-7, 3)
    assert_typed(el.coords, g)
    assert_typed((el * np.int64(3)).coords, g)


@pytest.mark.parametrize("factor", [Z, cyclic(4)])
@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5])
def test_non_integers_on_integer_factors_raise(factor, bad):
    with pytest.raises(GroupError):
        ElementaryGroup([factor]).reduce([bad])


def test_integral_fractions_and_ints_give_one_element():
    g = ElementaryGroup([Z, T, cyclic(7)])
    from_fraction = g.reduce([Fraction(3), Fraction(3), Fraction(3)])
    from_int = g.reduce([3, 3, 3])
    assert from_fraction == from_int
    assert hash(from_fraction) == hash(from_int)
    assert_typed(from_fraction.coords, g)


# Every type a caller may hand to reduce, valid or not on a given factor.
any_coord = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.integers(-(2**70), 2**70).map(Fraction),
    st.fractions(max_denominator=12),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
cyclic_groups = st.lists(st.integers(1, 12).map(cyclic), min_size=1, max_size=4).map(
    ElementaryGroup
)


def _reduced(run):
    """Coordinates and their types, or the GroupError message."""
    try:
        coords = run()
    except GroupError as exc:
        return "GroupError", str(exc)
    return coords, [type(c) for c in coords]


@settings(max_examples=400, deadline=None)
@given(st.one_of(cyclic_groups, mixed_groups), st.integers(-1, 1), st.data())
def test_reduce_equals_the_per_factor_reference(g, extra, data):
    # Mostly plain ints (the fast path on cyclic groups), else any mix.
    coord = st.integers(-(2**70), 2**70) | any_coord
    coords = data.draw(st.lists(coord, min_size=len(g) + extra, max_size=len(g) + extra))
    got = _reduced(lambda: g.reduce(coords).coords)
    assert got == _reduced(lambda: reference_reduce(g, coords))
    if got[0] != "GroupError":
        assert_typed(got[0], g)


def test_reduce_of_plain_ints_on_cyclic_factors():
    g = cyclic_group(5, 7, 1)
    el = g.reduce([-3, 2**64 + 1, -(2**70)])
    assert el.coords == (2, (2**64 + 1) % 7, 0)
    assert [type(c) for c in el.coords] == [int, int, int]
    assert g.reduce((4, 6, 0)).coords == (4, 6, 0)
    assert g.reduce([True, np.int64(-1), Fraction(9)]).coords == (1, 6, 0)
    with pytest.raises(GroupError, match="^expected 3 coordinates, got 2$"):
        g.reduce([1, 2])
