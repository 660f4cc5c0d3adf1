"""End-to-end tests for the algorithm suite against brute-force oracles."""

import math
import time
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    random_finite_group,
    reference_cayley_relations,
    reference_exponent_kernel,
    reference_multivariate_dlog,
    reference_oracular_inv,
    reference_oracular_mul,
    solve_hsp_reference,
    table_entries,
)
from normsim import algorithms, blackbox
from normsim.algorithms import (
    AlgorithmError,
    DiscreteLogError,
    FactoringError,
    HSPInstance,
    OracularGroup,
    OrderFindingError,
    decompose_group,
    discrete_log,
    ec_discrete_log,
    factor,
    find_order,
    multivariate_dlog,
    solve_hkp,
    solve_hsp,
    solve_linear_system_bb,
)
from normsim.blackbox import (
    BlackBoxError,
    EllipticCurveGroup,
    ZNStarGroup,
    bb_decompose_bruteforce,
    bb_order,
)
from normsim.groups import Z, cyclic, cyclic_group, group as make_group
from normsim.linalg import hermite_reduce, prime_factors


def rng_for(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# order finding
# ---------------------------------------------------------------------------


def test_find_order_z15():
    group = ZNStarGroup(15)
    run = find_order(group, 2, rng_for(1))
    assert run.order == 4
    assert run.log["rounds"] >= 1
    assert all(0 <= p < 1 for p in run.samples)


def test_find_order_identity():
    group = ZNStarGroup(15)
    assert find_order(group, 1, rng_for(2)).order == 1


def test_find_order_ec_point():
    curve = EllipticCurveGroup(5, 1, 1)
    run = find_order(curve, (0, 1), rng_for(3))
    assert run.order == 9


def test_find_order_matches_brute_force_all_elements():
    group = ZNStarGroup(21)
    rng = rng_for(4)
    for a in group.elements():
        assert find_order(group, a, rng).order == bb_order(group, a)


def test_find_order_logs_its_confirming_powers_alone(monkeypatch):
    """The simulator reads the period at no oracle call, so every call the
    run logs is one of the algorithm's confirming `power` calls."""
    from normsim.blackbox import BlackBoxGroup

    powered = []
    power = BlackBoxGroup.power

    def counted_power(self, x, k):
        before = self.counter.total
        result = power(self, x, k)
        powered.append(self.counter.total - before)
        return result

    monkeypatch.setattr(BlackBoxGroup, "power", counted_power)
    rng = rng_for(8)
    for group in [ZNStarGroup(n) for n in (15, 21, 91, 127)] + [EllipticCurveGroup(17, 2, 4)]:
        powered.clear()
        for a in group.elements():
            run = find_order(group, a, rng)
        assert run.log["oracle_calls"] == group.counter.total == sum(powered) > 0, group


def test_find_order_on_a_large_semiprime_within_a_second():
    # phi(N) is known once trial division factors N: the period comes from
    # it, not from a walk of 178,864,140 powers on the oracle.
    n = 65521 * 65519
    start = time.perf_counter()
    run = find_order(ZNStarGroup(n), 3, rng_for(0))
    elapsed = time.perf_counter() - start
    assert run.order == 178864140 and pow(3, run.order, n) == 1
    assert run.log["oracle_calls"] <= 400
    assert elapsed < 1, f"find_order took {elapsed:.2f}s"


def test_find_order_refuses_a_walk_past_its_cap(monkeypatch):
    # N = 999999937 * 1000000007 is not factored below 2^16, so the period
    # is walked on the oracle, at most DEFAULT_ORDER_CAP steps.
    monkeypatch.setattr(blackbox, "DEFAULT_ORDER_CAP", 64)
    group = ZNStarGroup(HUGE_SEMIPRIME)
    with pytest.raises(OrderFindingError, match="^simulator: order of 2 exceeds cap 64$"):
        find_order(group, 2, rng_for(0))
    assert group.counter.total == 64
    assert find_order(group, HUGE_SEMIPRIME - 1, rng_for(0)).order == 2


def test_find_order_rejects_non_element():
    with pytest.raises(OrderFindingError):
        find_order(ZNStarGroup(15), 3, rng_for(5))


def test_find_order_reproducible():
    group = ZNStarGroup(33)
    a = find_order(group, 2, rng_for(77))
    b = find_order(group, 2, rng_for(77))
    assert a.order == b.order and a.samples == b.samples


def test_find_order_runs_in_bounded_memory():
    # a = N - 1 has order 2 and r_max = 2^9, so M = 2 r_max^2 and about
    # L = 2^19 comb teeth survive, on a grid of 2^24 or 2^25 cells: one
    # float64 array over it would take 128 MB or more.
    tracemalloc.start()
    try:
        run = find_order(ZNStarGroup(391), 390, rng_for(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.order == 2
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [1003, 4087])
def test_factor_past_the_old_grid_limit(n):
    run = factor(n, rng_for(n))
    assert 1 < run.divisor < n and n % run.divisor == 0


# ---------------------------------------------------------------------------
# factoring
# ---------------------------------------------------------------------------


def test_factor_15():
    run = factor(15, rng_for(1))
    assert run.divisor in (3, 5)
    assert 15 % run.divisor == 0


def test_factor_21():
    run = factor(21, rng_for(7))
    assert run.divisor in (3, 7)


def test_factor_rejects_bad_inputs():
    with pytest.raises(FactoringError, match="prime power"):
        factor(9, rng_for(1))
    with pytest.raises(FactoringError, match="prime"):
        factor(13, rng_for(1))
    with pytest.raises(FactoringError):
        factor(16, rng_for(1))  # even


def test_factor_refuses_only_prime_powers():
    for n, power in [(9, "3^2"), (81, "3^4")]:
        with pytest.raises(FactoringError) as excinfo:
            factor(n, rng_for(1))
        assert str(excinfo.value) == f"{n} is a prime power: {power}"
    for n in (225, 3375):  # 15^2 and 15^3: perfect powers, not prime powers
        for seed in range(4):
            run = factor(n, rng_for(seed))
            assert 1 < run.divisor < n and n % run.divisor == 0


def test_the_first_gcd_splits_every_nontrivial_square_root():
    # factor keeps gcd(x - 1, n) for x = a^(r/2) != n - 1: with r the exact
    # order, x != 1 and x^2 = 1, so n divides (x - 1)(x + 1) but neither.
    checked = 0
    for n in range(15, 200, 2):
        if len(prime_factors(n)) < 2:
            continue  # prime or prime power
        group = ZNStarGroup(n)
        for a in group.elements():
            r = bb_order(group, a)
            x = pow(a, r // 2, n)
            if r % 2 == 0 and x != n - 1:
                assert 1 < math.gcd(x - 1, n) < n, (n, a)
                checked += 1
    assert checked > 1000


def test_factor_transcript_names_each_event():
    run = factor(21, rng_for(0), attempts=10)
    events = [entry["event"] for entry in run.log["transcript"]]
    assert events == ["trivial square root", "odd order", "split"]
    assert run.log["transcript"][-1]["divisor"] == run.divisor == 7


def test_factor_verified_by_trial_division():
    for n, seed in [(15, 0), (21, 1), (33, 2), (35, 3)]:
        run = factor(n, rng_for(seed))
        assert 1 < run.divisor < n and n % run.divisor == 0
        assert run.attempts <= 10


# ---------------------------------------------------------------------------
# discrete logarithm
# ---------------------------------------------------------------------------


def test_dlog_p7_examples():
    assert discrete_log(7, 3, 6, rng_for(1)).exponent == 3  # 3^3 = 27 = 6 mod 7
    assert discrete_log(7, 3, 1, rng_for(2)).exponent == 0
    assert discrete_log(11, 2, 9, rng_for(3)).exponent == 6  # 2^6 = 64 = 9 mod 11


def test_dlog_rejects_nonpositive_repetitions():
    with pytest.raises(DiscreteLogError, match="repetitions"):
        discrete_log(7, 3, 6, rng_for(1), repetitions=0)
    curve = EllipticCurveGroup(5, 1, 1)
    with pytest.raises(DiscreteLogError, match="repetitions"):
        ec_discrete_log(curve, (0, 1), (4, 2), rng_for(1), repetitions=-1)


def test_dlog_rejects_non_generator():
    with pytest.raises(DiscreteLogError):
        discrete_log(7, 2, 3, rng_for(1))  # |2| = 3 mod 7
    with pytest.raises(DiscreteLogError):
        discrete_log(8, 3, 3, rng_for(1))  # 8 is not prime


def test_dlog_generator_check_matches_the_order():
    # cap=1 stops an accepted generator at the dense cap, after the check.
    from normsim.circuits import CircuitError

    for p in [q for q in range(3, 100) if all(q % d for d in range(2, q))]:
        group = ZNStarGroup(p)
        for a in range(1, p):
            if bb_order(group, a) == p - 1:
                with pytest.raises(CircuitError, match="exceeds cap"):
                    discrete_log(p, a, 1, rng_for(0), cap=1)
            else:
                with pytest.raises(DiscreteLogError, match="does not generate"):
                    discrete_log(p, a, 1, rng_for(0), cap=1)


def test_dlog_rejects_a_non_unit_base():
    from normsim.blackbox import BlackBoxError

    for p, a in [(2, 0), (7, 0), (7, 7), (7, 9), (11, -3)]:
        with pytest.raises(BlackBoxError, match=rf"^{a} is not a unit modulo {p}$"):
            discrete_log(p, a, 1, rng_for(0))


@st.composite
def pooled_pair_sets(draw):
    """(pairs, n): pairs (k, ks) mod n, each consistent with one planted s
    or drawn at random, so all outcomes (none, one, several s) occur."""
    n = draw(st.integers(1, 64))
    s = draw(st.integers(0, n - 1))
    planted = draw(st.booleans())
    size = draw(st.integers(0, 32))
    pairs = []
    for _ in range(size):
        k = draw(st.integers(0, n - 1))
        if planted or draw(st.booleans()):
            pairs.append((k, k * s % n))
        else:
            pairs.append((k, draw(st.integers(0, n - 1))))
    return pairs, n


@settings(max_examples=400, deadline=None)
@given(pooled_pair_sets())
@example(([], 1))
@example(([(0, 0)], 1))
@example(([(0, 0)] * 5, 12))
@example(([(0, 0), (5, 3)], 12))
@example(([(0, 3)], 12))
@example(([(4, 8), (6, 6)], 12))
def test_pooled_solve_matches_a_scan(case):
    pairs, n = case
    fits = [s for s in range(n) if all((k * s - ks) % n == 0 for k, ks in pairs)]
    if len(fits) > 1:
        degenerate = rf"^samples do not determine the exponent \(all {len(pairs)} pairs degenerate\)$"
        with pytest.raises(DiscreteLogError, match=degenerate):
            algorithms._solve_pooled_pairs(pairs, n)
    else:
        assert algorithms._solve_pooled_pairs(pairs, n) == (fits[0] if fits else None)


def test_dlog_exhaustive_p5_p7():
    rng = rng_for(11)
    for p in (5, 7):
        group = ZNStarGroup(p)
        generators = [a for a in group.elements() if bb_order(group, a) == p - 1]
        for a in generators:
            for s in range(p - 1):
                b = pow(a, s, p)
                run = discrete_log(p, a, b, rng)
                assert run.exponent == s
                for k1, k2 in run.samples:
                    assert k2 == (k1 * s) % (p - 1)


def test_dlog_pairs_have_the_promised_shape():
    run = discrete_log(7, 3, 6, rng_for(21), repetitions=32)
    assert all(k2 == (3 * k1) % 6 for k1, k2 in run.samples)


def test_dlog_larger_primes_sampled():
    # Spot checks at the top of the desk-scale range (dim (p-1)^2 (p-1)).
    rng = rng_for(23)
    for p, a in [(17, 3), (31, 3)]:
        group = ZNStarGroup(p)
        assert bb_order(group, a) == p - 1
        for s in (1, p - 2):
            b = pow(a, s, p)
            run = discrete_log(p, a, b, rng, cap=1 << 16)
            assert run.exponent == s


def test_algorithm_circuits_have_two_qft_layers():
    from normsim.algorithms import dlog_circuit, ec_dlog_circuit, hsp_circuit

    assert dlog_circuit(7, 3, 6).qft_layers() == 2
    curve = EllipticCurveGroup(5, 1, 1)
    assert ec_dlog_circuit(curve, (0, 1), (4, 2), 9).qft_layers() == 2
    domain = cyclic_group(2, 2)
    instance = HSPInstance(group=domain, oracle=lambda c: (int(c[0]) + int(c[1])) % 2)
    oracular = OracularGroup(domain, instance.oracle)
    circuit = hsp_circuit(instance, oracular)
    assert circuit.qft_layers() == 2
    circuit.validate()


# ---------------------------------------------------------------------------
# elliptic-curve discrete logarithm
# ---------------------------------------------------------------------------


def test_ec_dlog_examples():
    curve = EllipticCurveGroup(5, 1, 1)
    a = (0, 1)
    run = ec_discrete_log(curve, a, (4, 2), rng_for(1))
    assert run.exponent == 2  # doubling example
    assert ec_discrete_log(curve, a, None, rng_for(2)).exponent == 0
    assert ec_discrete_log(curve, a, a, rng_for(3)).exponent == 1


def test_ec_dlog_all_multiples_f5():
    curve = EllipticCurveGroup(5, 1, 1)
    a = (0, 1)
    rng = rng_for(9)
    acc = curve.identity()
    for s in range(9):
        run = ec_discrete_log(curve, a, acc, rng)
        assert run.exponent == s
        acc = curve.mul(acc, a)


def test_ec_dlog_rejects_outside_subgroup():
    curve = EllipticCurveGroup(7, 2, 3)  # order 9, but pick a in a proper subgroup
    points = list(curve.elements())
    orders = {p: bb_order(curve, p) for p in points if p is not None}
    smallest = min(orders.values())
    if smallest < max(orders.values()):
        a = next(p for p, o in orders.items() if o == smallest)
        outside = next(p for p, o in orders.items() if o == max(orders.values()))
        with pytest.raises(DiscreteLogError, match="not a multiple"):
            ec_discrete_log(curve, a, outside, rng_for(1))


def test_ec_dlog_rejects_same_order_point_outside_subgroup():
    # y^2 = x^3 + x over F_5 is Z2 x Z2: b has the order of a but is not in <a>.
    curve = EllipticCurveGroup(5, 1, 0)
    assert sorted(curve.elements(), key=str) == [(0, 0), (2, 0), (3, 0), None]
    with pytest.raises(DiscreteLogError, match=r"\(2, 0\) is not a multiple of \(0, 0\)"):
        ec_discrete_log(curve, (0, 0), (2, 0), rng_for(4))


@pytest.mark.parametrize("modulus", [21, 35])  # Z2 x Z6 and Z2 x Z12: not cyclic
def test_black_box_dlog_on_non_cyclic_units(modulus):
    # One base per element order; every b in <a> gives its least exponent
    # and every b outside <a> is refused.
    group = ZNStarGroup(modulus)
    elements = list(group.elements())
    bases = {}
    for x in elements:
        bases.setdefault(bb_order(group, x), x)
    rng = rng_for(modulus)
    for order, a in sorted(bases.items()):
        powers = [pow(a, s, modulus) for s in range(order)]
        for b in elements:
            if b in powers:
                run = ec_discrete_log(group, a, b, rng)
                assert (run.exponent, run.order) == (powers.index(b), order)
            else:
                with pytest.raises(DiscreteLogError, match=rf"^{b} is not a multiple of {a}$"):
                    ec_discrete_log(group, a, b, rng)


class _UnitsOfUnknownOrder(ZNStarGroup):
    """Z_N^* as the black-box model gives it: the order is withheld."""

    def order(self):
        raise AssertionError("the group order was asked for")


def test_black_box_algorithms_do_not_ask_for_the_group_order():
    """ec_discrete_log, solve_hkp and decompose_group bound the unknown
    order by the encoding length alone; the dense engine sizes its state
    through `order_within`."""
    rng = rng_for(29)
    for p, a in ((7, 3), (11, 2), (13, 2)):
        group = _UnitsOfUnknownOrder(p)
        for s in range(p - 1):
            run = ec_discrete_log(group, a, pow(a, s, p), rng)
            assert (run.exponent, run.order) == (s, p - 1)
    # f: Z x Z4 -> Z_15^*, f(x) = 2^x0 7^x1, with kernel <(2, 2), (4, 0)>.
    domain = make_group(Z, cyclic(4))
    run = solve_hkp(
        domain,
        _UnitsOfUnknownOrder(15),
        lambda x: pow(2, int(x[0]), 15) * pow(7, int(x[1]), 15) % 15,
        rng,
    )
    gens = [[int(c) for c in g.coords] for g in run.generators]
    assert hermite_reduce(gens + [[0, 4]]) == hermite_reduce([[2, 2], [4, 0], [0, 4]])
    run = decompose_group(_UnitsOfUnknownOrder(35), [2, 6], rng)
    kernel = next(step for step in run.log["steps"] if step["step"] == "kernel")
    assert kernel["route"] == "hidden-subgroup rounds (dense)"
    assert run.table.isomorphism_type() == [2, 12]


def test_dlog_queries_fall_on_one_counter(monkeypatch):
    counters = []

    class RecordedCounter(blackbox.OracleCounter):
        def __init__(self) -> None:
            super().__init__()
            counters.append(self)

    monkeypatch.setattr(blackbox, "OracleCounter", RecordedCounter)
    discrete_log(17, 3, 5, rng_for(0))
    # The generator check's 3^8 costs 3 mul (three squarings from 3) and the
    # word_exp gate 17 (test_dense pins the circuit's count).  Re-recorded
    # from 5 + 32 when `power` stopped multiplying by the identity, and from
    # 3 + 32 when the dense engine began to walk the coset y0 <3, 5> (16 - 1
    # + 2 mul) instead of building one translation table of Z_17^* per base.
    assert [counter.total for counter in counters] == [3 + 17]


# ---------------------------------------------------------------------------
# hidden subgroup problem
# ---------------------------------------------------------------------------


def subgroup_closure(group, gens):
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        current = frontier.pop()
        for gen in gens:
            nxt = current + gen
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def all_subgroups(group):
    """Oracle: every subgroup of a small finite group, by closure of subsets."""
    elements = list(group.elements())
    found = {}
    import itertools

    for size in range(0, min(len(elements), 3) + 1):
        for subset in itertools.combinations(elements, size):
            closure = frozenset(subgroup_closure(group, subset))
            found[closure] = list(subset)
    return list(found)


def planted_oracle(group, subgroup_elements):
    """Coset-labelling oracle hiding exactly the given subgroup."""
    label = {}
    representatives = {}
    for el in group.elements():
        coset = frozenset((el + h) for h in subgroup_elements)
        if coset not in representatives:
            representatives[coset] = f"c{len(representatives)}"
        label[el.coords] = representatives[coset]
    return lambda coords: label[tuple(Fraction(c) for c in coords)]


def test_simon_style_instance():
    group = cyclic_group(2, 2)
    h = subgroup_closure(group, [group.element(1, 1)])
    instance = HSPInstance(group=group, oracle=planted_oracle(group, h))
    run = solve_hsp(instance, rng_for(1))
    assert run.subgroup_elements() == h
    assert run.log["homomorphism_certified"]


def test_hsp_trivial_and_full():
    group = cyclic_group(2, 2, 2)
    # H = G: constant oracle.
    instance = HSPInstance(group=group, oracle=lambda coords: "x")
    run = solve_hsp(instance, rng_for(2))
    assert run.subgroup_elements() == set(group.elements())
    # H = {0}: injective oracle.
    instance = HSPInstance(group=group, oracle=lambda coords: tuple(coords))
    run = solve_hsp(instance, rng_for(3))
    assert run.generators == []


def test_hsp_all_subgroups_z2_cubed():
    group = cyclic_group(2, 2, 2)
    rng = rng_for(5)
    for subgroup in all_subgroups(group):
        oracle = planted_oracle(group, subgroup)
        run = solve_hsp(HSPInstance(group=group, oracle=oracle), rng)
        assert run.subgroup_elements() == set(subgroup)


def test_hsp_all_subgroups_z4_z2():
    group = cyclic_group(4, 2)
    rng = rng_for(6)
    for subgroup in all_subgroups(group):
        oracle = planted_oracle(group, subgroup)
        run = solve_hsp(HSPInstance(group=group, oracle=oracle), rng)
        assert run.subgroup_elements() == set(subgroup)


def test_hsp_rejects_non_coset_oracle():
    group = cyclic_group(4)
    values = {0: "a", 1: "a", 2: "b", 3: "c"}  # {0,1} is not a subgroup coset split

    with pytest.raises(Exception):
        solve_hsp(
            HSPInstance(group=group, oracle=lambda c: values[int(c[0])]), rng_for(1)
        )


@st.composite
def planted_instances(draw):
    """Z_n^k of order <= 64 with a planted subgroup from up to three generators."""
    moduli = draw(
        st.lists(st.integers(2, 16), min_size=1, max_size=3).filter(
            lambda m: math.prod(m) <= 64
        )
    )
    group = cyclic_group(*moduli)
    gens = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in moduli)), max_size=3))
    hidden = subgroup_closure(group, [group.reduce(list(g)) for g in gens])
    return HSPInstance(group=group, oracle=planted_oracle(group, hidden))


def _hsp_outcome(solve, instance, seed):
    rng = rng_for(seed)
    try:
        run = solve(instance, rng)
        outcome = (run.generators, run.log["batches"], run.log["samples"])
    except algorithms.HSPError as exc:
        outcome = str(exc)
    return outcome, int(rng.integers(1 << 62))


@settings(max_examples=80, deadline=None)
@given(planted_instances(), st.sampled_from([1, 2, 16]), st.integers(0, 2**32 - 1))
def test_solve_hsp_matches_the_closure_batch_loop(instance, rounds, seed):
    # Stopping on the Hermite form of the samples stops at the same batch as
    # comparing enumerated estimates; few rounds per batch force long loops.
    with patch.object(algorithms, "HSP_ROUNDS", rounds):
        new = _hsp_outcome(solve_hsp, instance, seed)
    old = _hsp_outcome(lambda i, r: solve_hsp_reference(i, r, rounds=rounds), instance, seed)
    assert new == old


def test_oracular_group_is_isomorphic_to_quotient():
    group = cyclic_group(4, 2)
    h = subgroup_closure(group, [group.element(2, 0)])
    oracle = planted_oracle(group, h)
    oracular = OracularGroup(group, oracle)
    assert oracular.order() == len(list(group.elements())) // len(h)
    assert oracular.certify_homomorphism()
    table = bb_decompose_bruteforce(oracular, list(oracular.elements()))
    assert table.order() == oracular.order()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), labels=st.integers(1, 6))
@example(seed=0, labels=1)
def test_oracular_products_equal_the_group_element_path(seed, labels):
    """Every product and inverse, with the oracle seeing the same tuples of
    ints as GroupElement arithmetic hands it.  Products only read the
    representatives, so any labelling serves, the coset promise or not."""
    rng = np.random.default_rng(seed)
    domain = random_finite_group(rng, max_order=48)
    if seed % 4 == 0:
        domain = cyclic_group(1, *(f.modulus for f in domain.factors))
    table = {el.coords: int(rng.integers(labels)) for el in domain.elements()}
    queries: list = []

    def oracle(coords):
        queries.append(coords)
        return table[coords]

    oracular = OracularGroup(domain, oracle)
    values = list(oracular.elements())
    for x in values:
        for y in values:
            del queries[:]
            got = oracular._mul(x, y)
            asked = queries[:]
            assert got == reference_oracular_mul(oracular, x, y)
            assert asked == queries[1:] and len(asked) == 1
        del queries[:]
        assert oracular._inv(x) == reference_oracular_inv(oracular, x)
        assert queries[0] == queries[1]
        assert all(type(c) is int for query in queries for c in query)


# ---------------------------------------------------------------------------
# group decomposition
# ---------------------------------------------------------------------------


def test_decompose_z15():
    group = ZNStarGroup(15)
    run = decompose_group(group, [2, 7], rng_for(1))
    table = run.table
    assert sorted(table.c) == [2, 4]
    table.verify(group, exhaustive=True)
    assert table_entries(table) == table_entries(bb_decompose_bruteforce(group, [2, 7]))


def test_decompose_z8():
    group = ZNStarGroup(8)
    run = decompose_group(group, [3, 5], rng_for(2))
    assert sorted(run.table.c) == [2, 2]
    run.table.verify(group, exhaustive=True)


def test_decompose_cyclic_single_generator():
    group = ZNStarGroup(5)
    run = decompose_group(group, [2], rng_for(3))
    assert run.table.c == [4]
    assert run.table.a == [[1]]
    assert run.table.b == [[1]]


def test_decompose_round_trip_words():
    group = ZNStarGroup(35)
    rng = rng_for(8)
    run = decompose_group(group, [2, 6], rng)
    table = run.table
    table.verify(group, exhaustive=True)
    for _ in range(30):
        x = [int(rng.integers(-8, 8)) for _ in range(len(table.alpha))]
        bx = [
            sum(table.b[i][j] * x[j] for j in range(len(x)))
            for i in range(len(table.beta))
        ]
        assert group.word(table.alpha, x) == group.word(table.beta, bx)


def test_decompose_uses_classical_fallback_when_too_big():
    group = ZNStarGroup(91)  # order 72; quantum kernel route would be huge
    run = decompose_group(group, [2, 3], rng_for(4), cap=512)
    routes = [s for s in run.log["steps"] if s["step"] == "kernel"]
    assert "classical" in routes[0]["route"]
    run.table.verify(group)
    assert table_entries(run.table) == table_entries(bb_decompose_bruteforce(group, [2, 3]))


def test_decompose_a_large_prime_modulus_takes_the_classical_route():
    # phi(N) needs trial division to 10^6 here, but the dense engine refuses
    # the circuit on the floor isqrt(N // 2) alone.
    n = 10**12 + 39
    group = ZNStarGroup(n)
    run = decompose_group(group, [n - 1], rng_for(0))
    routes = [s for s in run.log["steps"] if s["step"] == "kernel"]
    assert "classical" in routes[0]["route"]
    assert run.table.isomorphism_type() == [2]


HUGE_SEMIPRIME = 999999937 * 1000000007  # trial division to its factors takes hours


def test_decompose_a_huge_semiprime_takes_the_classical_route_without_its_order():
    n = HUGE_SEMIPRIME
    run = decompose_group(_UnitsOfUnknownOrder(n), [n - 1], rng_for(0))
    routes = [s["route"] for s in run.log["steps"] if s["step"] == "kernel"]
    assert routes == ["classical kernel oracle (dense cap exceeded)"]
    assert run.table.c == [2]


def test_sample_generators_refuses_a_huge_group_before_drawing():
    rng = rng_for(0)
    before = rng.bit_generator.state
    with pytest.raises(BlackBoxError, match="^group order exceeds cap 1048576$"):
        _UnitsOfUnknownOrder(HUGE_SEMIPRIME).sample_generators(rng)
    assert rng.bit_generator.state == before


def test_bruteforce_decomposition_of_a_huge_group_ends_after_its_walk():
    n = HUGE_SEMIPRIME
    with pytest.raises(BlackBoxError, match="^generators do not generate the group$"):
        bb_decompose_bruteforce(_UnitsOfUnknownOrder(n), [n - 1])


@pytest.mark.parametrize("cap", [64, 512, 4096])
def test_decompose_route_is_dense_exactly_when_the_circuit_fits_the_cap(cap):
    # The dense engine's rule written out as the test's oracle: the circuit
    # over Z_d^k x Z_N^* fits when d^k phi(N) <= cap.
    routes = set()
    for n in range(2, 65):
        group = ZNStarGroup(n)
        generators = group.sample_generators(np.random.default_rng(n))
        d = math.lcm(*(bb_order(group, g) for g in generators))
        run = decompose_group(group, generators, rng_for(n), cap=cap)
        route = next(s["route"] for s in run.log["steps"] if s["step"] == "kernel")
        dense = d ** len(generators) * group.order() <= cap
        assert route.endswith("(dense)" if dense else "(dense cap exceeded)"), (n, cap)
        routes.add(dense)
    assert routes == {True, False}


def test_decompose_elliptic_curve_gives_the_brute_force_table():
    curve = EllipticCurveGroup(7, 0, 1)  # Z2 x Z6
    generators = [(4, 3), (2, 3)]
    run = decompose_group(curve, generators, rng_for(5))
    routes = [s["route"] for s in run.log["steps"] if s["step"] == "kernel"]
    assert routes == ["hidden-subgroup rounds (dense)"]
    assert run.table.isomorphism_type() == [2, 6]
    run.table.verify(curve, exhaustive=True)
    assert table_entries(run.table) == table_entries(bb_decompose_bruteforce(curve, generators))


# The Z_N^* with N <= 64 whose kernel takes the dense route on the
# generators `sample_generators(default_rng(N))` draws (the rest exceed the
# dense cap), the curves E(5, 1, 1) and E(11, 1, 1) of the shor workload,
# and a given generator list that holds the identity.
DENSE_MODULI = [
    2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23,
    24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 39, 40, 42, 44, 45, 48, 60,
]
DENSE_KERNEL_CASES = [
    pytest.param(lambda n=n: ZNStarGroup(n), None, n, id=f"zn_star {n}") for n in DENSE_MODULI
] + [
    pytest.param(lambda: EllipticCurveGroup(5, 1, 1), None, 5, id="ec 5 1 1"),
    pytest.param(lambda: EllipticCurveGroup(11, 1, 1), None, 11, id="ec 11 1 1"),
    pytest.param(lambda: ZNStarGroup(15), [2, 1, 7], 6, id="zn_star 15 with the identity"),
]


def _decompose_outputs(make_group, generators, seed) -> tuple:
    """Table, log steps (kernel rows included) and the next rng draw of one
    decomposition on a fresh group."""
    group = make_group()
    rng = rng_for(seed)
    if generators is None:
        generators = group.sample_generators(rng)
    run = decompose_group(group, generators, rng)
    return table_entries(run.table), run.log["steps"], rng.random()


@pytest.mark.parametrize("make_group, generators, seed", DENSE_KERNEL_CASES)
def test_dense_kernel_equals_the_word_table_route(make_group, generators, seed, monkeypatch):
    outputs = _decompose_outputs(make_group, generators, seed)
    kernel = next(step for step in outputs[1] if step["step"] == "kernel")
    assert kernel["route"] == "hidden-subgroup rounds (dense)"
    monkeypatch.setattr(algorithms, "_exponent_kernel", reference_exponent_kernel)
    assert _decompose_outputs(make_group, generators, seed) == outputs


@pytest.mark.parametrize(
    "make_group, generators",
    [
        pytest.param(lambda: ZNStarGroup(15), [2, 1, 7], id="zn_star 15 with the identity"),
        pytest.param(lambda: EllipticCurveGroup(11, 1, 1), [(0, 1), (4, 5)], id="ec 11 1 1"),
    ],
)
def test_dense_kernel_costs_one_coset_walk(make_group, generators, monkeypatch):
    # The generators generate the group, so the walk from the identity costs
    # |G| - 1 + (active generators) mul and no inv.
    built = []
    construct = OracularGroup.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(OracularGroup, "__init__", spy)
    group = make_group()
    d = math.lcm(*(bb_order(group, g) for g in generators))
    mul, inv = group.counter.mul, group.counter.inv
    rows, route = algorithms._exponent_kernel(group, generators, d, rng_for(0), None)
    assert route == "hidden-subgroup rounds (dense)"
    active = sum(g != group.identity() for g in generators)
    assert (group.counter.mul - mul, group.counter.inv - inv) == (group.order() - 1 + active, 0)
    assert built == []
    # The spy sees the word-table route's OracularGroup, with the same rows.
    assert reference_exponent_kernel(group, generators, d, rng_for(0), None) == (rows, route)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# hidden kernel problem and linear systems
# ---------------------------------------------------------------------------


def test_hkp_example():
    # f: Z_4 -> Z_8^*, f(x) = 3^x has kernel <2> since 3^2 = 1 mod 8.
    domain = cyclic_group(4)
    group = ZNStarGroup(8)
    run = solve_hkp(domain, group, lambda coords: pow(3, int(coords[0]), 8), rng_for(1))
    assert run.subgroup_elements() == subgroup_closure(domain, [domain.element(2)])


def test_hkp_over_integers():
    # f: Z -> Z_8^*, f(x) = 3^x: the kernel is the lattice 2 Z.
    domain = make_group(Z)
    bb = ZNStarGroup(8)
    run = solve_hkp(domain, bb, lambda coords: pow(3, int(coords[0]) % 2, 8), rng_for(2))
    gens = {tuple(int(c) for c in g.coords) for g in run.generators}
    assert (2,) in gens
    assert all(pow(3, g[0] % 2, 8) == 1 for g in gens)


def test_linear_system_example():
    # alpha: Z_2 -> Z_15^*, alpha(x) = 4^x, b = 4 -> x0 = 1, trivial kernel.
    domain = cyclic_group(2)
    group = ZNStarGroup(15)
    run = solve_linear_system_bb(
        domain, group, lambda coords: pow(4, int(coords[0]), 15), 4, rng_for(2)
    )
    assert not run.infeasible
    assert run.solution.coords == (1,)
    assert run.kernel == []


def test_linear_system_identity_target():
    domain = cyclic_group(4)
    group = ZNStarGroup(15)
    run = solve_linear_system_bb(
        domain, group, lambda coords: pow(4, int(coords[0]), 15), 1, rng_for(3)
    )
    assert run.solution.is_identity()
    # 4 has order 2 mod 15, so the kernel of x -> 4^x on Z_4 is <2>.
    assert subgroup_closure(domain, run.kernel) == subgroup_closure(
        domain, [domain.element(2)]
    )


def test_linear_system_infeasible():
    domain = cyclic_group(2)
    group = ZNStarGroup(15)
    # alpha(x) = 4^x never hits 2.
    run = solve_linear_system_bb(
        domain, group, lambda coords: pow(4, int(coords[0]), 15), 2, rng_for(4)
    )
    assert run.infeasible


def test_linear_system_over_a_trivial_group():
    # Z_2^* is trivial, so the congruence system has no rows; every x solves.
    run = solve_linear_system_bb(cyclic_group(3), ZNStarGroup(2), lambda x: 1, 1, rng_for(0))
    assert run.solution.coords == (0,)
    assert [k.coords for k in run.kernel] == [(1,)]


def test_linear_system_matches_brute_force():
    domain = cyclic_group(4, 2)
    group = ZNStarGroup(15)

    def f(coords):
        return (pow(2, int(coords[0]), 15) * pow(14, int(coords[1]), 15)) % 15

    rng = rng_for(5)
    for target in ZNStarGroup(15).elements():
        expected = {
            el.coords for el in domain.elements() if f(el.coords) == target
        }
        run = solve_linear_system_bb(domain, group, f, target, rng)
        if run.infeasible:
            assert expected == set()
            continue
        got = {
            (run.solution + combo).coords
            for combo in subgroup_closure(domain, run.kernel)
        }
        assert got == expected


# ---------------------------------------------------------------------------
# multivariate discrete logarithm
# ---------------------------------------------------------------------------


def test_multivariate_dlog_examples():
    group = ZNStarGroup(15)
    x = multivariate_dlog(group, [2, 14], 7)
    assert group.word([2, 14], x) == 7
    assert multivariate_dlog(group, [2, 14], 1) == [0, 0]
    assert multivariate_dlog(group, [2, 14], 14) == [0, 1]
    with pytest.raises(AlgorithmError):
        multivariate_dlog(group, [4], 7)  # 7 is not a power of 4


def _multivariate_dlog_corpus():
    """(N, beta) for N = 3..64: six seeded draws of 1-3 units of Z_N^*, then
    beta with the identity, with a unit repeated and with a dependent pair."""
    rng = np.random.default_rng(36)
    for n in range(3, 65):
        units = list(ZNStarGroup(n).elements())
        for _ in range(6):
            yield n, [int(x) for x in rng.choice(units, size=int(rng.integers(1, 4)))]
        g = units[1]
        yield n, [1, g]
        yield n, [g, g]
        yield n, [g, g * g % n, units[-1]]


def _outcome(call):
    """What `call` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


def test_multivariate_dlog_equals_the_bridge_decode_at_the_cost_of_the_walk():
    """Every residue b (units and non-units) against the identity table's
    bridge decode with `bb_order` orders: the same exponents, or the same
    error and message.  On a fresh group each call costs the walk of beta,
    |<beta>| - 1 + k `mul`."""
    cases = 0
    for n, beta in _multivariate_dlog_corpus():
        reference_group = ZNStarGroup(n)
        size = len(reference_cayley_relations(ZNStarGroup(n), beta)[1])
        for b in range(n):
            group = ZNStarGroup(n)
            got = _outcome(lambda: multivariate_dlog(group, beta, b))
            assert got == _outcome(lambda: reference_multivariate_dlog(reference_group, beta, b)), (
                n, beta, b)
            assert group.counter.mul == size - 1 + len(beta), (n, beta, b)
            cases += 1
    assert cases == 9 * sum(range(3, 65))

