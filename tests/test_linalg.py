"""Tests for the exact linear-algebra kernel.

Brute-force oracles (exhaustive search over small boxes) pin down every
derived expectation before the fast path is trusted.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import leibniz_det, reference_continued_fraction_reconstruct
from normsim.linalg import (
    GroupLinearSystem,
    LinalgError,
    continued_fraction_reconstruct,
    finite_presentation,
    hermite_reduce,
    identity_matrix,
    is_prime,
    mat_mul,
    prime_factors,
    smith_normal_form,
    solve_group_system,
)


def brute_force_solutions(a, b, moduli, box):
    """Oracle: all solutions of the congruence system with coords in range(box)."""
    cols = len(a[0])
    out = []
    for x in itertools.product(range(box), repeat=cols):
        ok = True
        for row, rhs, m in zip(a, b, moduli):
            lhs = sum(c * v for c, v in zip(row, x))
            if m == 0:
                ok = lhs == rhs
            else:
                ok = (lhs - rhs) % m == 0
            if not ok:
                break
        if ok:
            out.append(tuple(x))
    return set(out)


def span_solutions(x0, kernel, moduli_box):
    """Expand x0 + span(kernel) inside the same box as the oracle."""
    cols = len(x0)
    box = moduli_box
    points = set()
    # Enough multiples of each generator to wrap around the box.
    coeff_range = range(-2 * box, 2 * box + 1)
    for coeffs in itertools.product(coeff_range, repeat=len(kernel)):
        x = list(x0)
        for c, gen in zip(coeffs, kernel):
            for j in range(cols):
                x[j] += c * gen[j]
        if all(0 <= v < box for v in x):
            points.add(tuple(x))
    return points


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_trivial_examples():
    snf = smith_normal_form([[2, 0], [0, 4]])
    assert snf.diagonal == [2, 4]
    snf.verify([[2, 0], [0, 4]])

    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.diagonal == [0, 0]
    assert snf.u == identity_matrix(2) and snf.v == identity_matrix(2)


def test_snf_diag_2_3():
    # By-hand elementary reduction: gcd(2,3)=1 so diag(2,3) ~ diag(1,6).
    a = [[2, 0], [0, 3]]
    snf = smith_normal_form(a)
    assert snf.diagonal == [1, 6]
    snf.verify(a)


def test_snf_rectangular():
    a = [[2, 4, 4], [-6, 6, 12]]
    snf = smith_normal_form(a)
    snf.verify(a)
    assert all(
        snf.diagonal[i + 1] % snf.diagonal[i] == 0
        for i in range(len(snf.diagonal) - 1)
        if snf.diagonal[i] != 0
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_random_matrices(rows, cols, data):
    a = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)
    ]
    snf = smith_normal_form(a)
    snf.verify(a)


def test_snf_1000_random_small():
    rng = random.Random(20240917)
    for _ in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        smith_normal_form(a).verify(a)


def lattice_mod(relations, rank, n):
    """Oracle: the image of the lattice spanned by `relations` in Z_n^rank,
    closed under addition point by point."""
    gens = [tuple(x % n for x in row) for row in relations]
    seen = {(0,) * rank}
    frontier = list(seen)
    while frontier:
        point = frontier.pop()
        for gen in gens:
            step = tuple((p + g) % n for p, g in zip(point, gen))
            if step not in seen:
                seen.add(step)
                frontier.append(step)
    return seen


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.data())
def test_finite_presentation_against_brute_force(rank, count, data):
    relations = [
        [data.draw(st.integers(-3, 3)) for _ in range(rank)] for _ in range(count)
    ]
    minors = [
        abs(leibniz_det([relations[i] for i in rows]))
        for rows in itertools.combinations(range(count), rank)
    ]
    presentation = finite_presentation(relations, rank)
    if not any(minors):
        assert presentation is None  # L has rank < rank, the quotient is infinite
        return
    snf, keep, orders = presentation
    # A nonzero maximal minor n puts n Z^rank inside L, so Z^rank / L is
    # Z_n^rank modulo the image of L.
    n = min(m for m in minors if m)
    image = lattice_mod(relations, rank, n)
    assert math.prod(orders) * len(image) == n**rank
    for i, order in zip(keep, orders):
        column = [row[i] for row in snf.u]
        multiples = (tuple(m * x % n for x in column) for m in range(1, n + 1))
        assert next(m for m, point in enumerate(multiples, 1) if point in image) == order


def test_finite_presentation_examples():
    assert finite_presentation([], 2) is None
    assert finite_presentation([[2, 4]], 2) is None
    snf, keep, orders = finite_presentation([[2, 0], [0, 3]], 2)
    assert orders == [6]
    assert finite_presentation([[1, 0], [0, 1]], 2)[1:] == ([], [])


# ---------------------------------------------------------------------------
# Hermite reduction
# ---------------------------------------------------------------------------


def test_hermite_reduce_echelon():
    basis = hermite_reduce([[2, 4], [4, 2], [0, 6]])
    assert basis == [[2, 4], [0, 6]]
    assert hermite_reduce([[0, 0], [0, 0]]) == []


def test_hermite_reduce_deterministic_lattice():
    gens = [[3, 1, 0], [1, 2, 1], [0, 0, 5]]
    b1 = hermite_reduce(gens)
    b2 = hermite_reduce(list(reversed(gens)))
    assert b1 == b2


# ---------------------------------------------------------------------------
# Group linear systems
# ---------------------------------------------------------------------------


def test_solve_2x_eq_2_mod_4():
    # Oracle: x in Z_4 with 2x = 2 (mod 4) -> {1, 3}.
    assert brute_force_solutions([[2]], [2], [4], 4) == {(1,), (3,)}
    x0, kernel = solve_group_system(GroupLinearSystem([[2]], [2], [4], 1))
    assert x0 == [1]
    assert kernel == [[2]]


def test_solve_over_z():
    x0, kernel = solve_group_system(GroupLinearSystem([[1]], [3], [0], 1))
    assert x0 == [3]
    assert kernel == []


def test_solve_infeasible():
    # Oracle: no x in Z_4 with 2x = 1 (mod 4).
    assert brute_force_solutions([[2]], [1], [4], 4) == set()
    assert solve_group_system(GroupLinearSystem([[2]], [1], [4], 1)) is None


def test_solve_matches_brute_force_exhaustively():
    rng = random.Random(7)
    for _ in range(150):
        rows = rng.randint(1, 2)
        cols = rng.randint(1, 3)
        box = rng.choice([2, 3, 4, 6])
        a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randint(-3, 3) for _ in range(rows)]
        moduli = [box for _ in range(rows)]
        expected = brute_force_solutions(a, b, moduli, box)
        solved = solve_group_system(GroupLinearSystem(a, b, moduli, cols))
        if solved is None:
            assert expected == set()
            continue
        x0, kernel = solved
        # Wrap-around inside the box needs box * e_j in the lattice; it is
        # whenever the system constrains x_j mod the box, which these do.
        kernel = kernel + [
            [box if i == j else 0 for i in range(cols)] for j in range(cols)
        ]
        assert span_solutions(x0, hermite_reduce(kernel), box) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_solve_group_system_equals_the_double_hermite_path(rows, cols, data):
    # The sweep's output depends only on the solution set, so it equals the
    # Smith-form reference: Hermite form of the wide kernel, projected and
    # reduced again.
    from helpers import reference_solve_group_system

    small = st.sampled_from([0, 1, 2, 3, 4, 6, 8, 9, 12, 30])
    entries = st.one_of(st.integers(-12, 12), st.integers(-(2**40), 2**40))
    a = [[data.draw(entries) for _ in range(cols)] for _ in range(rows)]
    b = [data.draw(entries) for _ in range(rows)]
    moduli = [data.draw(st.one_of(small, st.integers(0, 2**40))) for _ in range(rows)]
    system = GroupLinearSystem(a, b, moduli, cols)
    assert solve_group_system(system) == reference_solve_group_system(system)


def test_solve_group_system_needs_no_smith_form(monkeypatch):
    import normsim.linalg as linalg

    calls = []
    real = linalg.smith_normal_form

    def spy(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(linalg, "smith_normal_form", spy)
    # 3x = 3 over Z and 2x + 4y = 2 (mod 6): x = 1 and y = 0 (mod 3).
    assert solve_group_system(GroupLinearSystem([[2, 4], [3, 0]], [2, 3], [6, 0], 2)) == (
        [1, 0],
        [[0, 3]],
    )
    assert solve_group_system(GroupLinearSystem([[2]], [1], [4], 1)) is None
    assert calls == []


def test_solve_integer_system_shapes():
    from helpers import reference_solve_integer_system

    x0, kernel = reference_solve_integer_system([[1, 0], [0, 1]], [5, 7], 2)
    assert x0 == [5, 7] and kernel == []
    assert reference_solve_integer_system([[2]], [1], 1) is None
    x0, kernel = reference_solve_integer_system([[0, 0]], [0], 2)
    assert kernel == [[1, 0], [0, 1]]


def test_system_with_no_rows_keeps_its_width():
    # Every x in Z^3 solves the empty system: x0 = 0, kernel the identity.
    assert solve_group_system(GroupLinearSystem([], [], [], 3)) == (
        [0, 0, 0],
        identity_matrix(3),
    )


def test_malformed_system_raises():
    with pytest.raises(LinalgError):
        GroupLinearSystem([[1, 2], [3]], [1, 2], [0, 0], 2)
    with pytest.raises(LinalgError):
        GroupLinearSystem([[1]], [1, 2], [0], 1)
    with pytest.raises(LinalgError):
        GroupLinearSystem([[1, 2]], [1], [0], 3)


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


def test_cf_exact_fraction():
    assert continued_fraction_reconstruct(Fraction(3, 4), 4) == Fraction(3, 4)


def test_cf_noisy_sample():
    # |0.7403 - 3/4| = 0.0097 < 1/32.
    assert continued_fraction_reconstruct(Fraction(7403, 10000), 4) == Fraction(3, 4)


def test_cf_no_convergent():
    # Only 0/1 is available with r_max = 1 and |0.5001 - 0| > 1/2.
    assert continued_fraction_reconstruct(Fraction(5001, 10000), 1) is None


def test_cf_all_small_fractions_with_noise():
    for r in range(1, 21):
        for k in range(r):
            if Fraction(k, r).denominator != r:
                continue  # only test fractions already in lowest terms
            for eps_num in (-1, 0, 1):
                eps = Fraction(eps_num, 2 * r * r + 1)  # |eps| < 1/(2 r^2)
                p = Fraction(k, r) + eps
                if p < 0 or p >= 1:
                    continue
                assert continued_fraction_reconstruct(p, r) == Fraction(k, r)


@settings(max_examples=400, deadline=None)
@given(
    num=st.integers(0, 2**70),
    den=st.integers(1, 2**70),
    r_max=st.integers(1, 2**24),
)
@example(num=25, den=32, r_max=4)  # exactly 1/32 = 1/(2 r_max^2) above 3/4
@example(num=23, den=32, r_max=4)  # exactly 1/32 below 3/4
@example(num=1, den=2, r_max=1)  # 0/1 exactly at the bound 1/2
@example(num=0, den=1, r_max=1)
@example(num=0, den=7, r_max=5)
@example(num=6, den=7, r_max=1)
def test_cf_integer_euclid_equals_the_fraction_reference(num, den, r_max):
    p = Fraction(num % den, den)
    got = continued_fraction_reconstruct(p, r_max)
    assert repr(got) == repr(reference_continued_fraction_reconstruct(p, r_max))


def test_cf_equals_the_fraction_reference_on_every_small_sample():
    for den in range(1, 80):
        for num in range(den):
            for r_max in range(1, 7):
                p = Fraction(num, den)
                expected = reference_continued_fraction_reconstruct(p, r_max)
                assert continued_fraction_reconstruct(p, r_max) == expected, (p, r_max)


def test_cf_rejects_bad_rmax():
    with pytest.raises(LinalgError):
        continued_fraction_reconstruct(Fraction(1, 2), 0)


def test_prime_factors_are_the_prime_divisors():
    # Oracle: the divisors of n that is_prime accepts, in increasing order.
    for n in range(1, 2000):
        primes = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
        assert prime_factors(n) == primes, n
    assert prime_factors(2 * 3**5 * (10**10 + 19)) == [2, 3, 10**10 + 19]
