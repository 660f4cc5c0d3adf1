"""The table-driven coset-promise check: equivalence with the pairwise check,
and exact oracle-query accounting."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import certify_pairwise, is_coset_labeling
from normsim.algorithms import (
    HSPError,
    HSPInstance,
    OracularGroup,
    decompose_group,
    solve_hsp,
)
from normsim.blackbox import ZNStarGroup
from normsim.groups import cyclic_group

MAX_ORDER = 64


@st.composite
def labelings(draw):
    """(domain, labels): a planted subgroup's coset labels on a random Z_n^k
    of order <= 64, possibly bent into a near-homomorphism."""
    moduli = []
    order = 1
    for _ in range(draw(st.integers(1, 3))):
        if MAX_ORDER // order < 2:
            break
        n = draw(st.integers(2, MAX_ORDER // order))
        moduli.append(n)
        order *= n
    domain = cyclic_group(*moduli)
    points = list(itertools.product(*(range(n) for n in moduli)))
    gens = draw(st.lists(st.sampled_from(points), max_size=3))

    def add(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, moduli))

    hidden = {points[0]}
    frontier = [points[0]]
    while frontier:
        current = frontier.pop()
        for gen in gens:
            nxt = add(current, gen)
            if nxt not in hidden:
                hidden.add(nxt)
                frontier.append(nxt)
    labels = {x: min(add(x, h) for h in hidden) for x in points}

    cosets = sorted(set(labels.values()))
    fresh = ("fresh",)
    mutation = draw(st.sampled_from(["none", "relabel", "merge", "split"]))
    if mutation == "relabel":
        point = draw(st.sampled_from(points))
        labels[point] = draw(st.sampled_from(cosets + [fresh]))
    elif mutation == "merge" and len(cosets) > 1:
        a, b = draw(st.lists(st.sampled_from(cosets), min_size=2, max_size=2, unique=True))
        labels = {x: a if v == b else v for x, v in labels.items()}
    elif mutation == "split" and len(hidden) > 1:
        chosen = draw(st.sampled_from(cosets))
        coset = sorted(x for x, v in labels.items() if v == chosen)
        moved = draw(st.lists(st.sampled_from(coset), min_size=1, max_size=len(coset) - 1, unique=True))
        for x in moved:
            labels[x] = fresh
    return domain, labels


def oracle_for(labels):
    return lambda coords: labels[tuple(int(c) for c in coords)]


@settings(max_examples=120, deadline=None)
@given(labelings())
def test_certify_agrees_with_pairwise_check(case):
    domain, labels = case
    oracle = oracle_for(labels)
    certified = OracularGroup(domain, oracle).certify_homomorphism()
    assert certified == certify_pairwise(domain, oracle)
    assert certified == is_coset_labeling(domain, oracle)


@pytest.mark.parametrize(
    "moduli, label",
    [
        # H = {0, 2} in Z_4, one point relabelled into H
        ((4,), lambda x: 0 if x == (1,) else x[0] % 2),
        # H = {0, 3} in Z_6, the cosets of 0 and 1 merged
        ((6,), lambda x: 0 if x[0] % 3 == 1 else x[0] % 3),
        # H = 0 x Z_4 in Z_2 x Z_4, the coset 1 x Z_4 split in two
        ((2, 4), lambda x: 9 if x in ((1, 0), (1, 1)) else x[0]),
    ],
)
def test_certify_rejects_near_homomorphisms(moduli, label):
    domain = cyclic_group(*moduli)
    labels = {x: label(x) for x in itertools.product(*(range(n) for n in moduli))}
    oracle = oracle_for(labels)
    assert not is_coset_labeling(domain, oracle)
    assert not certify_pairwise(domain, oracle)
    assert not OracularGroup(domain, oracle).certify_homomorphism()
    with pytest.raises(HSPError):
        solve_hsp(HSPInstance(group=domain, oracle=oracle), np.random.default_rng(0))


@pytest.mark.parametrize("hides_subgroup", [True, False])
def test_oracular_group_queries_each_point_once(hides_subgroup):
    domain = cyclic_group(4, 6)
    calls = []

    def oracle(coords):
        calls.append(coords)
        x, y = (int(c) for c in coords)
        if hides_subgroup:
            return (x % 2, y % 3)
        return 0 if (x, y) == (1, 1) else (x % 2, y % 3)

    oracular = OracularGroup(domain, oracle)
    assert oracular.certify_homomorphism() == hides_subgroup
    assert len(calls) == domain.order()
    assert sorted(calls) == sorted(el.coords for el in domain.elements())


@pytest.mark.parametrize("modulus, generators", [(15, [2, 7]), (21, [2, 5])])
def test_decompose_logs_every_oracle_call(modulus, generators):
    group = ZNStarGroup(modulus)
    run = decompose_group(group, generators, np.random.default_rng(3))
    kernel = next(s for s in run.log["steps"] if s["step"] == "kernel")
    assert "dense" in kernel["route"]
    assert run.log["oracle_calls"] == group.counter.total
