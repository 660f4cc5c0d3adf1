"""Conformance tests for the black-box group backends."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import all_subgroups, reference_bb_order, reference_cayley_relations
from normsim import blackbox
from normsim.blackbox import (
    DEFAULT_ORDER_CAP,
    BlackBoxError,
    DecompositionTable,
    EllipticCurveGroup,
    ZNStarGroup,
    bb_decompose_bruteforce,
    bb_order,
    cayley_relations,
    coset_walk,
    simulator_order,
)
from normsim.groups import cyclic_group
from normsim.linalg import hermite_reduce, prime_factors

F5_CURVE = (5, 1, 1)  # y^2 = x^3 + x + 1 over F_5


def brute_points(p, a, b):
    """Oracle: all affine points plus O by exhausting F_p x F_p."""
    pts = [None]
    for x in range(p):
        for y in range(p):
            if (y * y - x**3 - a * x - b) % p == 0:
                pts.append((x, y))
    return pts


def test_zn_mul_inv_examples():
    g = ZNStarGroup(15)
    assert g.mul(2, 8) == 1
    assert g.inv(7) == 13  # 7 * 13 = 91 = 1 mod 15
    for x in g.elements():
        assert g.mul(x, 1) == x
        assert g.mul(x, g.inv(x)) == 1


def test_zn_rejects_non_units():
    g = ZNStarGroup(15)
    with pytest.raises(BlackBoxError):
        g.mul(3, 2)
    with pytest.raises(BlackBoxError):
        g.inv(0)
    with pytest.raises(BlackBoxError):
        ZNStarGroup(1)


def test_zn_encodings_unique():
    g = ZNStarGroup(21)
    codes = [g.encode(x) for x in g.elements()]
    assert len(codes) == len(set(codes))
    assert all(len(c) == g.encoding_length for c in codes)
    assert g.order() <= 2**g.encoding_length


def test_ec_double_example():
    e = EllipticCurveGroup(*F5_CURVE)
    # Tangent slope (3 x^2 + a) / (2 y) at (0, 1) is 1/2 = 3 mod 5, so
    # x_R = 9 - 0 - 0 = 4 and the reflected y gives the point (4, 2).
    assert e.mul((0, 1), (0, 1)) == (4, 2)
    assert e.is_element((4, 2))


def test_ec_identity_and_inverse_pair():
    e = EllipticCurveGroup(*F5_CURVE)
    p = (0, 1)
    assert e.mul(p, None) == p
    assert e.mul(None, p) == p
    assert e.mul((0, 1), (0, 4)) is None  # 4 = -1 mod 5
    assert e.inv((0, 1)) == (0, 4)


def test_ec_rejects_bad_curves_and_points():
    with pytest.raises(BlackBoxError):
        EllipticCurveGroup(5, 0, 0)  # discriminant 0
    with pytest.raises(BlackBoxError):
        EllipticCurveGroup(4, 1, 1)  # not prime
    with pytest.raises(BlackBoxError):
        EllipticCurveGroup(3, 1, 1)  # p must exceed 3
    e = EllipticCurveGroup(*F5_CURVE)
    with pytest.raises(BlackBoxError):
        e.mul((1, 1), (0, 1))


def test_ec_point_count_matches_enumeration():
    for p, a, b in [(5, 1, 1), (7, 2, 3), (11, 1, 6), (13, 1, 1), (97, 2, 3)]:
        e = EllipticCurveGroup(p, a, b)
        assert sorted(map(str, e.elements())) == sorted(map(str, brute_points(p, a, b)))


@pytest.mark.parametrize(
    "curve",
    [(5, 1, 1), (7, 3, 1), (11, 1, 1), (13, 2, 2), (17, 2, 4), (1009, 2, 3)],
    ids=lambda curve: f"E{curve}",
)
def test_ec_elements_in_the_order_of_the_pair_enumeration(curve):
    # The order fixes random_element draws and the dense engine's labels.
    assert list(EllipticCurveGroup(*curve).elements()) == brute_points(*curve)


def test_zn_star_order_is_the_unit_count():
    for n in range(2, 513):
        group = ZNStarGroup(n)
        assert group.order() == sum(1 for _ in group.elements()), n


def test_zn_star_order_bound_is_exact_once_small_primes_factor_n():
    # Each of these leaves a cofactor of 1 or a prime below 2^32 after trial
    # division below 2^16, so even a limit of 0 gets the order.
    for n in [*range(2, 600), 2**16 * 3, 10**30, 65521 * 65537, 3 * 65521**2, 2**31 - 1]:
        assert ZNStarGroup(n).order_within(0) == (ZNStarGroup(n).order(), True), n


@pytest.mark.parametrize(
    "n", [65537**2, 65537 * 65539, 10**12 + 39, 9999991 * 10000019, 999999937 * 1000000007]
)
def test_zn_star_order_bound_is_isqrt_half_n_past_the_small_primes(n):
    group = ZNStarGroup(n)
    floor = math.isqrt(n // 2)
    assert group.order_within(floor - 1) == (floor, False)
    assert group._order is None  # nothing was factored past 2^16
    if n < 10**13:  # a limit the floor does not pass gets phi(N)
        assert group.order_within(floor) == (group.order(), True)
        assert floor <= group.order()


def test_zn_star_order_bound_divides_a_huge_n_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return prime_factors(*args)

    monkeypatch.setattr(blackbox, "prime_factors", counted)
    n = 999999937 * 1000000007
    group = ZNStarGroup(n)
    floor = math.isqrt(n // 2)
    assert group.order_within(0) == group.order_within(0) == (floor, False)
    assert group.order_within(floor - 1) == (floor, False)
    assert calls == [(n, blackbox.SMALL_TRIAL_BOUND)]
    # A limit the floor does not pass still factors N in full.
    small = ZNStarGroup(65537 * 65539)
    assert small.order_within(0) == (math.isqrt(small.modulus // 2), False)
    assert small.order_within(math.inf) == (65536 * 65538, True)
    assert len(calls) == 3


@pytest.mark.parametrize(
    "curve",
    [(5, 1, 1), (7, 3, 1), (11, 1, 1), (13, 2, 2), (17, 2, 4), (1009, 2, 3)],
    ids=lambda curve: f"E{curve}",
)
def test_ec_order_counts_the_points_and_draws_keep_their_stream(curve):
    group = EllipticCurveGroup(*curve)
    points = list(group.elements())
    # order() is the length of the group's own point table, so the count
    # comes from the independent F_p x F_p enumeration.
    assert group.order() == len(brute_points(*curve))
    # random_element draws the index it drew when it listed every point.
    rng, reference = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(20):
        assert group.random_element(rng) == points[int(reference.integers(len(points)))]


def test_ec_point_table_is_built_once_across_draws(monkeypatch):
    # y^2 = x^3 + 2x + 3 over F_10007: rebuilding the table of square roots
    # on every draw costs O(p) each, so the tuple of points is built once.
    prop = EllipticCurveGroup._point_tuple
    builds = []
    build = prop.func
    monkeypatch.setattr(prop, "func", lambda group: builds.append(group) or build(group))
    group = EllipticCurveGroup(10007, 2, 3)
    rng, reference = np.random.default_rng(7), np.random.default_rng(7)
    draws = [group.random_element(rng) for _ in range(100)]
    points = list(group.elements())
    assert len(builds) == 1 and len(points) == group.order()
    assert draws == [points[int(reference.integers(len(points)))] for _ in range(100)]


def test_ec_associativity_random():
    rng = np.random.default_rng(5)
    for p, a, b in [(5, 1, 1), (7, 2, 3), (11, 1, 6), (97, 2, 3)]:
        e = EllipticCurveGroup(p, a, b)
        pts = list(e.elements())
        for _ in range(200):
            x, y, z = (pts[int(rng.integers(len(pts)))] for _ in range(3))
            assert e.mul(e.mul(x, y), z) == e.mul(x, e.mul(y, z))


def test_backends_conformance_random_triples():
    rng = np.random.default_rng(11)
    backends = [ZNStarGroup(15), ZNStarGroup(32), EllipticCurveGroup(7, 2, 3)]
    for g in backends:
        identity = g.identity()
        for _ in range(10_000):
            x = g.random_element(rng)
            y = g.random_element(rng)
            z = g.random_element(rng)
            assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
            assert g.mul(x, y) == g.mul(y, x)
            assert g.mul(x, identity) == x
            assert g.mul(x, g.inv(x)) == identity
            assert g.is_element(g.mul(x, y))
            assert g.encode(g.mul(x, y)) == g.encode(g.mul(y, x))


def test_oracle_counter():
    g = ZNStarGroup(15)
    mul, inv, total = g.counter.mul, g.counter.inv, g.counter.total
    g.mul(2, 2)
    g.inv(2)
    g.power(2, 5)
    assert g.counter.mul - mul >= 2 and g.counter.inv - inv == 1
    assert g.counter.total - total == g.counter.mul - mul + g.counter.inv - inv


def _power_groups():
    from normsim.algorithms import OracularGroup
    from normsim.groups import cyclic_group

    domain = cyclic_group(6, 4)
    oracular = OracularGroup(domain, lambda c: (int(c[0]) % 3, int(c[1]) % 2))
    return [
        (ZNStarGroup(15), 2),
        (ZNStarGroup(97), 5),
        (EllipticCurveGroup(*F5_CURVE), (0, 1)),
        (oracular, (1, 1)),
    ]


def _power_mul_count(k):
    """`mul` calls of power(x, k): a squaring per bit after the leading one
    and a product per set bit after it."""
    m = abs(k)
    return m.bit_length() + bin(m).count("1") - 2 if m else 0


def test_power_counts_two_less_than_bit_length_plus_popcount():
    for group, x in _power_groups():
        for k in range(-40, 41):
            before_mul, before_inv = group.counter.mul, group.counter.inv
            group.power(x, k)
            assert group.counter.mul - before_mul == _power_mul_count(k)
            assert group.counter.inv - before_inv == (k < 0)
        assert group.power(x, 0) == group.identity()


def test_power_matches_repeated_multiplication():
    for group, x in _power_groups():
        acc = group.identity()
        for k in range(30):
            assert group.power(x, k) == acc
            acc = group.mul(acc, x)


def test_word_is_the_naive_product_at_its_powers_plus_one_mul_per_join():
    rng = np.random.default_rng(23)
    for group, x in _power_groups():
        elements = list(group.elements())
        for _ in range(200):
            size = int(rng.integers(0, 5))
            generators = [elements[int(rng.integers(len(elements)))] for _ in range(size)]
            exponents = [int(e) for e in rng.integers(-20, 21, size) * (rng.random(size) < 0.7)]
            expected = group.identity()
            for g, e in zip(generators, exponents):
                step = g if e > 0 else group.inv(g)
                for _ in range(abs(e)):
                    expected = group.mul(expected, step)
            before = group.counter.total
            assert group.word(generators, exponents) == expected
            nonzero = [e for e in exponents if e]
            joins = max(len(nonzero) - 1, 0)
            cost = sum(_power_mul_count(e) + (e < 0) for e in nonzero) + joins
            assert group.counter.total - before == cost, (group, exponents)


def test_power_rejects_a_non_element_once_with_the_mul_error():
    from normsim.algorithms import OracularGroup
    from normsim.groups import cyclic_group

    z15 = ZNStarGroup(15)
    for bad in (0, 6, 15, 20, -2):
        for k in (1, 2, 7, 8):
            with pytest.raises(BlackBoxError, match=rf"^{bad} is not a unit modulo 15$"):
                z15.power(bad, k)
    assert z15.power(6, 0) == 1  # k = 0 never looks at x, as before
    curve = EllipticCurveGroup(*F5_CURVE)
    for bad in ((1, 1), (5, 0), (0, 1, 2)):
        for k in (1, 2, 5):
            message = rf"^{re.escape(str(bad))} is not on the curve$"
            with pytest.raises(BlackBoxError, match=message):
                curve.power(bad, k)
    oracular = OracularGroup(cyclic_group(4), lambda c: int(c[0]) % 2)
    for k in (1, 2, 3):
        with pytest.raises(KeyError) as info:
            oracular.power(7, k)
        assert info.value.args == (7,)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 300), i=st.integers(0, 10**6), j=st.integers(0, 10**6))
def test_zn_product_of_units_is_a_unit(n, i, j):
    group = ZNStarGroup(n)
    units = list(group.elements())
    x, y = units[i % len(units)], units[j % len(units)]
    assert group.is_element(group._product(x, y))


SMALL_PRIMES = [p for p in range(5, 60) if all(p % q for q in range(2, p))]


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from(SMALL_PRIMES),
    a=st.integers(0, 60),
    b=st.integers(0, 60),
    i=st.integers(0, 10**6),
    j=st.integers(0, 10**6),
)
def test_curve_product_of_points_is_a_point(p, a, b, i, j):
    assume((4 * a**3 + 27 * b**2) % p)
    curve = EllipticCurveGroup(p, a, b)
    points = list(curve.elements())
    x, y = points[i % len(points)], points[j % len(points)]
    assert curve.is_element(curve._product(x, y))
    assert curve.is_element(curve._product(x, x))


def test_bb_order_examples():
    g = ZNStarGroup(15)
    assert bb_order(g, 2) == 4  # powers 2, 4, 8, 1
    assert bb_order(g, 1) == 1
    e = EllipticCurveGroup(*F5_CURVE)
    assert e.order() == 9
    assert bb_order(e, (0, 1)) == 9
    with pytest.raises(BlackBoxError):
        bb_order(g, 2, cap=3)


def order_oracle(group, x):
    """Oracle: smallest r >= 1 with x^r = identity, by plain iteration."""
    acc = x
    r = 1
    while acc != group.identity():
        acc = group.mul(acc, x)
        r += 1
    return r


def test_bb_order_matches_oracle_everywhere():
    for g in [ZNStarGroup(21), ZNStarGroup(16), EllipticCurveGroup(7, 2, 3)]:
        for x in g.elements():
            assert bb_order(g, x) == order_oracle(g, x)


def _counted(group, call):
    """What `call` returns or raises (type and message), and the `mul` calls
    it counts on `group`."""
    before = group.counter.mul
    try:
        outcome = call(), None
    except Exception as exc:  # the error itself is compared
        outcome = None, (type(exc), str(exc))
    return outcome, group.counter.mul - before


def _order_cases():
    from normsim.algorithms import OracularGroup
    from normsim.groups import cyclic_group

    oracular = OracularGroup(cyclic_group(6, 4), lambda c: (c[0] % 3, c[1] % 2))
    return [
        (ZNStarGroup(21), [0, 7, 21, -1, 2.0]),
        (ZNStarGroup(16), [8]),
        (EllipticCurveGroup(7, 2, 3), [(1, 1), (0, 1, 2), (7, 0)]),
        (EllipticCurveGroup(*F5_CURVE), [(1, 1)]),
        (oracular, [(5, 5), 3]),
    ]


def test_bb_order_equals_the_checked_mul_loop():
    """Result, `mul` count and error against one checked `mul` per step, on
    every element (the identity among them), non-elements, cap = 1, caps
    below and at each order, and caps below 1."""
    for group, non_elements in _order_cases():
        for x in [*group.elements(), *non_elements]:
            order = reference_bb_order(group, x, cap=1 << 10) if group.is_element(x) else 3
            for cap in sorted({-1, 0, 1, 2, order - 1, order, order + 1}):
                got = _counted(group, lambda: bb_order(group, x, cap=cap))
                expected = _counted(group, lambda: reference_bb_order(group, x, cap=cap))
                assert got == expected, (group, x, cap)
        assert group.counter.inv == 0


def test_bb_order_counts_cap_calls_when_the_order_exceeds_it():
    g = ZNStarGroup(15)
    for cap in (1, 2, 3):
        before = g.counter.mul
        with pytest.raises(BlackBoxError, match=f"exceeds cap {cap}$"):
            bb_order(g, 2, cap=cap)  # 2 has order 4
        assert g.counter.mul - before == cap
    before = g.counter.mul
    assert bb_order(g, 2, cap=4) == 4
    assert g.counter.mul - before == 3


def test_decompose_z15():
    g = ZNStarGroup(15)
    table = bb_decompose_bruteforce(g, [2, 7])
    table.verify(g, exhaustive=True)
    assert sorted(table.c) == [2, 4]  # Z_15^* = Z_4 x Z_2
    assert table.isomorphism_type() == [2, 4]


def test_isomorphism_type():
    # The invariant factors of Z_c1 x ... x Z_ck, sorted by divisibility.
    for c, expected in [([2, 3], [6]), ([2, 2], [2, 2]), ([1, 4], [4]), ([], [])]:
        table = DecompositionTable(alpha=[], beta=[], a=[], b=[], c=c)
        assert table.isomorphism_type() == expected


def test_exhaustive_verify_rejects_a_dependent_beta():
    # beta = (2, 4) in Z_15^* with orders (4, 2): every identity the cheap
    # checks test holds (beta = alpha A, alpha = beta B, the orders), but
    # 4 = 2^2, so the 4 x 2 box covers only <2>, four elements.
    g = ZNStarGroup(15)
    table = DecompositionTable(alpha=[2], beta=[2, 4], a=[[1, 2]], b=[[1], [0]], c=[4, 2])
    table.verify(g)
    with pytest.raises(BlackBoxError, match="not independent"):
        table.verify(g, exhaustive=True)


def test_exhaustive_verify_rejects_a_dependent_beta_after_a_decomposition():
    g = ZNStarGroup(15)
    bb_decompose_bruteforce(g, [2, 7])  # the group keeps the walk of [2, 7]
    table = DecompositionTable(alpha=[2], beta=[2, 4], a=[[1, 2]], b=[[1], [0]], c=[4, 2])
    with pytest.raises(BlackBoxError, match="not independent"):
        table.verify(g, exhaustive=True)
    # beta = alpha = (2, 7) with orders (4, 4) passes the cheap checks, but
    # 2^2 = 7^2 = 4: the kept walk of [2, 7] reaches 8 elements, not 16.
    eye = [[1, 0], [0, 1]]
    table = DecompositionTable(alpha=[2, 7], beta=[2, 7], a=eye, b=eye, c=[4, 4])
    table.verify(g)
    bb_decompose_bruteforce(g, [2, 7])
    with pytest.raises(BlackBoxError, match="not independent"):
        table.verify(g, exhaustive=True)


def test_exhaustive_verify_walks_alpha_once():
    g = ZNStarGroup(63)
    table = bb_decompose_bruteforce(g, g.sample_generators(np.random.default_rng(1)))
    before = g.counter.total
    table.verify(g)
    cheap = g.counter.total - before
    before = g.counter.total
    table.verify(g, exhaustive=True)  # the group keeps the walk of alpha
    assert g.counter.total - before == cheap
    fresh = ZNStarGroup(63)
    table.verify(fresh, exhaustive=True)
    assert fresh.counter.total == cheap + fresh.order() - 1 + len(table.alpha)


def test_exhaustive_verify_accepts_a_curve_table_on_a_fresh_group():
    generators = [(4, 3), (2, 3)]  # E(7, 0, 1) = Z2 x Z6
    table = bb_decompose_bruteforce(EllipticCurveGroup(7, 0, 1), generators)
    fresh = EllipticCurveGroup(7, 0, 1)
    table.verify(fresh)
    cheap = fresh.counter.total
    table.verify(fresh, exhaustive=True)
    assert fresh.counter.total == 2 * cheap + fresh.order() - 1 + len(generators)


def test_exhaustive_verify_of_an_empty_table():
    g = ZNStarGroup(2)  # the group {1}
    DecompositionTable(alpha=[], beta=[], a=[], b=[], c=[]).verify(g, exhaustive=True)
    assert g.counter.total == 0


def _one_generator_table(beta, c):
    return DecompositionTable(alpha=[beta], beta=[beta], a=[[1]], b=[[1]], c=[c])


def _verifies(group, table):
    try:
        table.verify(group)
    except BlackBoxError as exc:
        assert str(exc) == f"order of beta[0] is not {table.c[0]}"
        return False
    return True


def _reaches_its_cap(group, x, c):
    try:
        return bb_order(group, x, cap=c) == c
    except BlackBoxError:
        return False


def test_verify_order_certificate_agrees_with_the_walk_on_small_unit_groups():
    """ord(beta) = c by the prime certificate exactly when the walk capped
    at c reaches c, for every unit of Z_N^* with N < 80 and c <= 2 ord + 2."""
    pairs = 0
    for n in range(2, 80):
        group, walk = ZNStarGroup(n), ZNStarGroup(n)
        for x in group.elements():
            order = bb_order(walk, x)
            for c in range(1, 2 * order + 3):
                assert _verifies(group, _one_generator_table(x, c)) == _reaches_its_cap(
                    walk, x, c
                ), (n, x, c)
                pairs += 1
    assert pairs == 72102


def _certificate_case(name):
    """(group, g) with g of an even order that has two primes."""
    from normsim.algorithms import OracularGroup

    return {
        "zn_star": lambda: (ZNStarGroup(97), 5),  # order 96 = 2^5 * 3
        "curve": lambda: (EllipticCurveGroup(11, 1, 1), (1, 5)),  # order 14
        "oracular": lambda: (OracularGroup(cyclic_group(12), lambda c: int(c[0]) % 12), 1),
    }[name]()


@pytest.mark.parametrize("name", ["zn_star", "curve", "oracular"])
def test_verify_rejects_each_wrong_order_claim(name):
    group, g = _certificate_case(name)
    c = bb_order(group, g)
    assert _verifies(group, _one_generator_table(g, c))
    for q in prime_factors(c):  # beta of order c / q
        assert not _verifies(group, _one_generator_table(group.power(g, q), c)), q
    assert not _verifies(group, _one_generator_table(g, c // 2))  # beta of order 2c
    assert not _verifies(group, _one_generator_table(g, 0))
    assert not _verifies(group, _one_generator_table(group.identity(), 0))


def test_decompose_z5_cyclic():
    g = ZNStarGroup(5)
    table = bb_decompose_bruteforce(g, [2])
    table.verify(g, exhaustive=True)
    assert table.c == [4]
    assert table.beta == [g.word([2], table.a[0])]
    assert table.a == [[1]] or table.beta[0] in (2, 3)  # any generator works


def test_decompose_rejects_non_generating():
    g = ZNStarGroup(15)
    with pytest.raises(BlackBoxError):
        bb_decompose_bruteforce(g, [4])  # <4> = {1, 4} is proper


def test_decompose_trivial_group():
    g = ZNStarGroup(2)  # the group {1}
    table = bb_decompose_bruteforce(g, [1])
    assert table.c == [] and table.beta == []
    assert table.order() == 1


def test_decomposition_round_trip_words():
    rng = np.random.default_rng(3)
    for g, gens in [
        (ZNStarGroup(15), [2, 7]),
        (ZNStarGroup(35), [2, 6]),
        (EllipticCurveGroup(7, 2, 3), None),
    ]:
        if gens is None:
            gens = g.sample_generators(rng)
        table = bb_decompose_bruteforce(g, gens)
        table.verify(g, exhaustive=True)
        k, ell = len(table.alpha), len(table.beta)
        for _ in range(50):
            x = [int(rng.integers(-10, 10)) for _ in range(k)]
            # alpha-word(x) = beta-word(B x)
            bx = [sum(table.b[i][j] * x[j] for j in range(k)) for i in range(ell)]
            assert g.word(table.alpha, x) == g.word(table.beta, bx)
            y = [int(rng.integers(-10, 10)) for _ in range(ell)]
            ay = [sum(table.a[i][j] * y[j] for j in range(ell)) for i in range(k)]
            assert g.word(table.beta, y) == g.word(table.alpha, ay)


def walk_items(walk) -> list:
    """(key, (element, word)) for each element of a walk, in position order."""
    items = zip(walk.position.items(), walk.elements)
    return [(key, (value, walk.word(p))) for (key, p), value in items]


def test_cayley_walk_is_kept_for_the_same_generators():
    g = ZNStarGroup(15)
    walk = cayley_relations(g, [2, 14])
    assert g.counter.total == 8 - 1 + 2 and len(walk) == 8  # n - 1 + k mul
    for key, (value, word) in walk_items(walk):
        assert key == g.encode(value) and value == g.word([2, 14], list(word))
    calls = g.counter.total
    assert cayley_relations(g, [2, 14]) is walk
    assert g.counter.total == calls
    # The same length with another generator walks <4, 14> = {1, 4, 11, 14}.
    smaller = cayley_relations(g, [4, 14])
    assert sorted(smaller.elements) == [1, 4, 11, 14]
    assert g.counter.total == calls + 4 - 1 + 2


SHOR_CURVES = [(5, 1, 1), (7, 3, 1), (11, 1, 1), (13, 2, 2), (17, 2, 4)]


def _criterion_10_groups():
    """The OracularGroup of every planted subgroup of Z2^3 and Z4 x Z2, its
    oracle naming each coset (the acceptance suite's hidden subgroups)."""
    from normsim.algorithms import OracularGroup

    for domain in (cyclic_group(2, 2, 2), cyclic_group(4, 2)):
        for subgroup in all_subgroups(domain):
            labels, names = {}, {}
            for el in domain.elements():
                coset = frozenset(el + h for h in subgroup)
                labels[el.coords] = names.setdefault(coset, f"c{len(names)}")
            yield lambda labels=labels, d=domain: OracularGroup(d, lambda c: labels[tuple(c)])


FOLD_CORPUS = {
    "zn_star": [lambda n=n: ZNStarGroup(n) for n in range(2, 129)],
    "shor curves": [lambda c=c: EllipticCurveGroup(*c) for c in SHOR_CURVES],
    "criterion 10": list(_criterion_10_groups()),
}


def assert_fold_contract(make, generators):
    """cayley_relations on a fresh group against the breadth-first walk:
    the same reached keys and relation lattice, every word evaluating to its
    element, k lower-triangular relations with diagonal product n, and
    n - 1 + k `mul`."""
    group = make()
    walk = cayley_relations(group, generators)
    relations, n, k = walk.relations, len(walk), len(generators)
    assert (group.counter.mul, group.counter.inv) == (n - 1 + k, 0)
    ref_relations, ref_reached = reference_cayley_relations(make(), generators)
    assert walk.position.keys() == ref_reached.keys()
    assert hermite_reduce(relations) == hermite_reduce(ref_relations)
    assert len(relations) == k
    assert all(not any(row[i + 1:]) for i, row in enumerate(relations))
    assert math.prod(row[i] for i, row in enumerate(relations)) == n
    for key, (value, word) in walk_items(walk):
        assert key == group.encode(value) and group.word(generators, list(word)) == value


@pytest.mark.parametrize("corpus", sorted(FOLD_CORPUS))
def test_cayley_fold_matches_the_breadth_first_walk(corpus):
    for index, make in enumerate(FOLD_CORPUS[corpus]):
        group = make()
        seed = group.modulus if corpus == "zn_star" else index
        assert_fold_contract(make, group.sample_generators(np.random.default_rng(seed)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 80), st.data())
def test_cayley_fold_with_identity_duplicated_and_redundant_generators(n, data):
    units = list(ZNStarGroup(n).elements())
    drawn = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=3))
    extra = [1, drawn[0], drawn[0] * drawn[-1] % n]  # identity, duplicate, product
    generators = data.draw(st.permutations(drawn + extra))
    assert_fold_contract(lambda: ZNStarGroup(n), generators)


@pytest.mark.parametrize("corpus", sorted(FOLD_CORPUS))
def test_a_resumed_walk_equals_a_fresh_walk(corpus):
    """Walking the prefixes of a generator list one after another, each
    resuming the kept walk, gives the fresh walk's relations, elements, keys
    and words (order included) at the fresh walk's n - 1 + k `mul`."""
    for index, make in enumerate(FOLD_CORPUS[corpus]):
        group = make()
        seed = group.modulus if corpus == "zn_star" else index
        sampled = group.sample_generators(np.random.default_rng(seed))
        generators = sampled + [group.identity(), sampled[0]]
        resumed = make()
        for j in range(1, len(generators) + 1):
            walk = cayley_relations(resumed, generators[:j])
        fresh = make()
        expected_walk = cayley_relations(fresh, generators)
        assert walk.relations == expected_walk.relations
        assert walk_items(walk) == walk_items(expected_walk)
        assert resumed.counter.total == fresh.counter.total == len(walk) - 1 + len(generators)


@pytest.mark.parametrize("corpus", sorted(FOLD_CORPUS))
def test_a_walk_from_y0_is_y0_times_the_walk_from_the_identity(corpus):
    """The fold of y0 <gens> from every start y0: element by element y0 times
    the fold from the identity, with its relations, at |<gens>| - 1 + k `mul`."""
    for index, make in enumerate(FOLD_CORPUS[corpus]):
        group = make()
        seed = group.modulus if corpus == "zn_star" else index
        generators = group.sample_generators(np.random.default_rng(seed))
        base = coset_walk(group, group.encode, group.identity(), generators)
        for y0 in group.elements():
            before = group.counter.mul
            walk = coset_walk(group, group.encode, y0, generators)
            assert group.counter.mul - before == len(base) - 1 + len(generators)
            assert walk.elements == [group._product(y0, x) for x in base.elements]
            assert walk.relations == base.relations


@pytest.mark.parametrize("corpus", sorted(FOLD_CORPUS))
def test_the_dense_walk_is_the_cayley_walk_keyed_by_label(corpus):
    """dense._coset_walk from the identity's label, read through the label
    list, lists the Cayley walk's elements and gives its relations."""
    from normsim.circuits import DesignatedBasis, NormalizerCircuit, word_exp_func
    from normsim.dense import _coset_walk, dense_run

    for index, make in enumerate(FOLD_CORPUS[corpus]):
        group = make()
        seed = group.modulus if corpus == "zn_star" else index
        generators = group.sample_generators(np.random.default_rng(seed))
        generators = [g for g in generators if g != group.identity()]
        if not generators:  # the trivial group
            continue
        walk = cayley_relations(make(), generators)
        basis = DesignatedBasis(cyclic_group(*[2] * len(generators)), group)
        point = (0,) * len(generators) + (group.identity(),)
        state = dense_run(NormalizerCircuit(basis, []), point)
        start = state.bb_labels.index(group.identity())
        labels, dense_walk = _coset_walk(state, word_exp_func(basis, generators), start)
        assert [state.bb_labels[i] for i in labels] == walk.elements
        assert dense_walk.relations == walk.relations


INDEX_GROUPS = [lambda n=n: ZNStarGroup(n) for n in range(2, 65)] + FOLD_CORPUS["shor curves"]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(INDEX_GROUPS), st.integers(0, 2**16), st.data())
def test_walk_index_inverts_word_and_reduces_any_exponents(make, seed, data):
    """On the kept walk of sampled generators, `index` inverts `word` at
    every position, reads group.word(gens, x) for exponents in [-3n, 3n],
    and gives the same positions on numpy arrays, entry by entry."""
    group = make()
    gens = group.sample_generators(np.random.default_rng(seed))
    walk = cayley_relations(group, gens)
    n = len(walk)
    assert [walk.index(walk.word(p)) for p in range(n)] == list(range(n))
    assert walk.index(walk.word(np.arange(n))).tolist() == list(range(n))
    vector = st.lists(st.integers(-3 * n, 3 * n), min_size=len(gens), max_size=len(gens))
    vectors = data.draw(st.lists(vector, min_size=1, max_size=8))
    positions = [walk.index(x) for x in vectors]
    for x, p in zip(vectors, positions):
        assert walk.elements[p] == group.word(gens, x), (x, p)
    columns = [np.array(column) for column in zip(*vectors)]
    assert walk.index(columns).tolist() == positions


def test_cayley_walk_refuses_past_the_cap_at_the_boundary(monkeypatch):
    # |<2>| = 12 in Z_13^*; |<2, 20>| = 6 * 2 = 12 in Z_21^*.  The refusal
    # counts every product made: 2^1, .., 2^11 in Z_13^*, and in Z_21^* the
    # six of <2> and 20, whose coset would take the walk to 12.
    for n, generators, refused in ((13, [2], 11), (21, [2, 20], 7)):
        monkeypatch.setattr(blackbox, "DEFAULT_ORDER_CAP", 12)
        assert len(cayley_relations(ZNStarGroup(n), generators)) == 12
        monkeypatch.setattr(blackbox, "DEFAULT_ORDER_CAP", 11)
        group = ZNStarGroup(n)
        with pytest.raises(BlackBoxError, match="^group order exceeds cap 11$"):
            cayley_relations(group, generators)
        assert group.counter.total == refused
    # Refused at its fourth coset, a resumed walk of <3> = {1, 3, 9} by 2
    # is not kept half-extended: <3> is walked again, alone.
    group = ZNStarGroup(13)
    cayley_relations(group, [3])
    with pytest.raises(BlackBoxError, match="^group order exceeds cap 11$"):
        cayley_relations(group, [3, 2])
    assert len(cayley_relations(group, [3])) == 3


def test_cayley_walk_refuses_a_cyclic_group_past_the_cap():
    p = 1048583  # prime, so Z_p^* is cyclic of order p - 1 > 2^20
    assert p - 1 > DEFAULT_ORDER_CAP
    with pytest.raises(BlackBoxError, match="^group order exceeds cap 1048576$"):
        cayley_relations(ZNStarGroup(p), [5])


ORDER_CORPUS = {
    "zn_star": [lambda n=n: ZNStarGroup(n) for n in range(2, 513)],
    "shor curves": FOLD_CORPUS["shor curves"],
    "criterion 10": FOLD_CORPUS["criterion 10"],
}


@pytest.mark.parametrize("corpus", sorted(ORDER_CORPUS))
def test_simulator_order_equals_bb_order_at_no_oracle_call(corpus):
    for make in ORDER_CORPUS[corpus]:
        group = make()
        for x in group.elements():
            assert simulator_order(group, x) == bb_order(make(), x), (group, x)
        assert group.counter.total == 0


def test_simulator_order_walks_the_oracle_when_the_order_is_not_exact(monkeypatch):
    p = 4294967311  # the least prime past 2^32: trial division below 2^16 leaves it
    group = ZNStarGroup(p)
    assert group.order_within(0) == (math.isqrt(p // 2), False)
    assert simulator_order(group, p - 1) == 2
    assert group.counter.total == 1  # bb_order's a^2
    monkeypatch.setattr(blackbox, "DEFAULT_ORDER_CAP", 16)
    with pytest.raises(BlackBoxError, match="^order of 2 exceeds cap 16$"):
        simulator_order(group, 2)  # 2^32 = -15 mod p: the order passes 32
    assert group.counter.total == 1 + 16


def test_sample_generators_generate():
    rng = np.random.default_rng(17)
    for modulus in [15, 21, 24]:
        g = ZNStarGroup(modulus)
        gens = g.sample_generators(rng)
        table = bb_decompose_bruteforce(g, gens)
        assert table.order() == g.order()


# (group, seed) -> (generators, oracle calls).  The generators were recorded
# with the Cayley walk sample_generators used before it read subgroup sizes
# from cayley_relations.  The counts were recorded when each kept generator
# began to resume the walk of the generators before it, so sampling costs
# |<gens>| - 1 + len(gens) mul in all; before, each kept generator walked its
# whole prefix again (zn_star 91 seed 0: 91 calls, now 74).
SAMPLED_GENERATORS = {
    ("zn_star 91", 0): ([57, 46, 24], 74),
    ("zn_star 91", 1): ([43, 46, 68], 74),
    ("zn_star 91", 2): ([76, 23, 27], 74),
    ("zn_star 91", 3): ([73, 16, 72], 74),
    ("zn_star 91", 4): ([66, 85], 73),
    ("zn_star 63", 0): ([53, 40], 37),
    ("zn_star 63", 1): ([29, 32, 47], 38),
    ("zn_star 63", 2): ([52, 16, 26], 38),
    ("zn_star 63", 3): ([5, 11, 50], 38),
    ("zn_star 63", 4): ([59, 55, 5], 38),
    ("zn_star 7", 0): ([5], 6),
    ("zn_star 7", 1): ([3], 6),
    ("zn_star 7", 2): ([5], 6),
    ("zn_star 7", 3): ([5], 6),
    ("zn_star 7", 4): ([5], 6),
    ("ec 17 2 4", 0): ([(15, 14), (10, 15)], 17),
    ("ec 17 2 4", 1): ([(7, 2)], 16),
    ("ec 17 2 4", 2): ([(15, 14), (2, 13)], 17),
    ("ec 17 2 4", 3): ([(15, 3), (2, 4)], 17),
    ("ec 17 2 4", 4): ([(13, 0), (16, 16)], 17),
}


@pytest.mark.parametrize("name,seed", sorted(SAMPLED_GENERATORS))
def test_sample_generators_pinned(name, seed):
    kind, *params = name.split()
    params = [int(v) for v in params]
    group = ZNStarGroup(*params) if kind == "zn_star" else EllipticCurveGroup(*params)
    gens = group.sample_generators(np.random.default_rng(seed))
    assert (gens, group.counter.total) == SAMPLED_GENERATORS[(name, seed)]
