"""Equivalence of the structured simulator with the dense oracle."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_coset_invariants,
    phase_exponent,
    random_circuit,
    random_finite_group,
    random_matrix_rep,
    random_quadratic_form,
    reference_phase_exponent,
    reference_sample,
)

from normsim.circuits import (
    AutomorphismGate,
    DesignatedBasis,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
    validate_matrix_rep,
    validate_quadratic,
)
from normsim.coset import (
    CosetSimulationError,
    CosetPhaseState,
    coset_run,
    states_equal_up_to_global_phase,
)
from normsim import coset
from normsim.dense import dense_run
from normsim.groups import cyclic_group, group, Z
from normsim.linalg import mat_mul


def assert_matches_dense(circuit, input_coords):
    element = circuit.initial_basis.elementary.reduce(input_coords)
    coset = coset_run(circuit, element)
    assert_coset_invariants(coset)
    dense = dense_run(circuit, input_coords, cap=1 << 14)
    assert states_equal_up_to_global_phase(dense.amplitudes, coset), (
        f"mismatch on {circuit.initial_basis.elementary} with input {input_coords}"
    )
    return coset


def test_qft_on_zero_gives_full_coset():
    g = cyclic_group(4)
    circuit = NormalizerCircuit(DesignatedBasis(g), [QFTGate((0,))])
    state = assert_matches_dense(circuit, (0,))
    assert state.support_size() == 4
    assert state.shift == [0]
    assert all(phase_exponent(state, t) == 0 for t in [(0,), (1,), (2,), (3,)])


def test_identity_circuit_is_a_point():
    g = cyclic_group(4, 3)
    circuit = NormalizerCircuit(DesignatedBasis(g), [])
    state = assert_matches_dense(circuit, (2, 1))
    assert state.support_size() == 1
    assert state.support_points() == [(2, 1)]


def test_double_qft_reflects():
    # F^2 maps |x> to |-x>: support must be the reflected point.
    g = cyclic_group(5)
    circuit = NormalizerCircuit(DesignatedBasis(g), [QFTGate((0,)), QFTGate((0,))])
    state = assert_matches_dense(circuit, (2,))
    assert state.support_points() == [(3,)]


def test_character_phase_interferes_to_a_point():
    # QFT, multiply by the character exp(2 pi i k x / N), QFT again:
    # the support collapses onto a single shifted label.
    n, k = 6, 2
    g = cyclic_group(n)
    form = validate_quadratic([[0]], [Fraction(k, n)], g)
    circuit = NormalizerCircuit(
        DesignatedBasis(g), [QFTGate((0,)), QuadraticGate(form=form), QFTGate((0,))]
    )
    state = assert_matches_dense(circuit, (0,))
    assert state.support_size() == 1


def test_gauss_sum_support_on_even_modulus():
    # M = [1/2] on Z_4 makes the second QFT a genuine Gauss sum whose
    # support is a proper coset; the dense oracle pins it down.
    g = cyclic_group(4)
    form = validate_quadratic([[Fraction(1, 2)]], [0], g)
    circuit = NormalizerCircuit(
        DesignatedBasis(g), [QFTGate((0,)), QuadraticGate(form=form), QFTGate((0,))]
    )
    assert_matches_dense(circuit, (0,))
    assert_matches_dense(circuit, (1,))


def test_shear_entangles_registers():
    g = cyclic_group(4, 4)
    rep = validate_matrix_rep([[1, 0], [1, 1]], g)
    circuit = NormalizerCircuit(
        DesignatedBasis(g),
        [QFTGate((0,)), AutomorphismGate(rep=rep), QFTGate((1,))],
    )
    state = assert_matches_dense(circuit, (0, 1))
    assert state.support_size() == 16 or state.support_size() == 8


def test_mixed_moduli_cross_terms():
    g = cyclic_group(4, 6)
    form = validate_quadratic(
        [[Fraction(1, 4), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 6)]],
        [Fraction(1, 4), Fraction(5, 6)],
        g,
    )
    circuit = NormalizerCircuit(
        DesignatedBasis(g),
        [QFTGate((0, 1)), QuadraticGate(form=form), QFTGate((0,)), QFTGate((1,))],
    )
    assert_matches_dense(circuit, (0, 0))
    assert_matches_dense(circuit, (3, 5))


def test_odd_modulus_gauss_sums():
    g = cyclic_group(9)
    form = validate_quadratic([[Fraction(2, 9)]], [Fraction(1, 3)], g)
    circuit = NormalizerCircuit(
        DesignatedBasis(g),
        [QFTGate((0,)), QuadraticGate(form=form), QFTGate((0,)), QuadraticGate(form=form), QFTGate((0,))],
    )
    for x in range(9):
        assert_matches_dense(circuit, (x,))


def test_global_phase_comparison_says_no_to_any_other_ray():
    # QFT on register 0 of Z4 x Z6 from (1, 2): support (x, 2), phases i^x.
    g = cyclic_group(4, 6)
    circuit = NormalizerCircuit(DesignatedBasis(g), [QFTGate((0,))])
    coset = coset_run(circuit, g.reduce((1, 2)))
    dense = dense_run(circuit, (1, 2)).amplitudes
    reference = int(np.argmax(np.abs(dense)))  # the function's reference point
    assert states_equal_up_to_global_phase(dense, coset)
    assert states_equal_up_to_global_phase(dense * np.exp(0.7j), coset)
    moved = dense.copy()  # label 0 = (0, 0) is off the support
    moved.flat[0], moved.flat[reference] = dense.flat[reference], 0
    assert not states_equal_up_to_global_phase(moved, coset)
    assert not states_equal_up_to_global_phase(2 * dense, coset)
    flipped = dense.copy()
    other = np.flatnonzero(dense)[-1]
    assert other != reference
    flipped.flat[other] *= -1
    assert not states_equal_up_to_global_phase(flipped, coset)


def test_random_circuits_match_dense_z4_z2_z9():
    # 500 ten-gate circuits on the fixed mixed-modulus group: zero mismatches.
    rng = np.random.default_rng(20240501)
    g = cyclic_group(4, 2, 9)
    for trial in range(500):
        circuit = random_circuit(g, rng, gate_count=10)
        coords = tuple(int(rng.integers(f.modulus)) for f in g.factors)
        assert_matches_dense(circuit, coords)


def test_random_circuits_match_dense_random_groups():
    rng = np.random.default_rng(7)
    for trial in range(50):
        # The last ten run on a group with a trivial factor Z1.
        g = random_finite_group(rng, max_order=256) if trial < 40 else cyclic_group(1, 4, 3)
        circuit = random_circuit(g, rng, gate_count=8)
        coords = tuple(int(rng.integers(f.modulus)) for f in g.factors)
        assert_matches_dense(circuit, coords)


@pytest.mark.parametrize("n", [3**25, 10**12 + 39])
def test_phase_exponent_exact_when_the_squared_denominator_passes_int64(n):
    # D = 2n, so the numerator sums pass 2^63 and must leave int64.
    g = cyclic_group(n)
    form = validate_quadratic([[Fraction(2, n)]], [Fraction(1, n)], g)
    circuit = NormalizerCircuit(
        DesignatedBasis(g), [QFTGate((0,)), QuadraticGate(form=form), QFTGate((0,))]
    )
    state = coset_run(circuit, g.identity())
    assert state.moduli == [n]
    d = state.denominator
    quad = [[Fraction(x, d) for x in row] for row in state.quad]
    lin = [Fraction(x, d) for x in state.lin]
    for t in ([n - 2], [n // 2], [12345678901]):
        assert phase_exponent(state, t) == reference_phase_exponent(quad, lin, t)


def test_sampling_is_uniform_on_support():
    g = cyclic_group(8)
    circuit = NormalizerCircuit(DesignatedBasis(g), [QFTGate((0,))])
    state = coset_run(circuit, g.element(0))
    counts = state.sample(800, np.random.default_rng(3))
    assert set(counts) == set(state.support_points())
    for count in counts.values():
        assert abs(count - 100) < 4 * np.sqrt(800 * 0.125 * 0.875)


def test_direct_sampling_equals_grid_indexing():
    # Same draws, same dict, same key order as indexing the parameter grid.
    rng = np.random.default_rng(31)
    for trial in range(40):
        g = random_finite_group(rng, max_order=512)
        state = coset_run(random_circuit(g, rng, gate_count=6), g.random_element(rng))
        seed = int(rng.integers(1 << 32))
        drawn = state.sample(200, np.random.default_rng(seed))
        reference = reference_sample(state, 200, np.random.default_rng(seed))
        assert list(drawn.items()) == list(reference.items()), f"trial {trial}"


def test_direct_sampling_without_parameters():
    state = CosetPhaseState.basis_state(cyclic_group(4, 3).element(2, 1))
    assert state.num_params == 0
    drawn = state.sample(25, np.random.default_rng(5))
    assert drawn == reference_sample(state, 25, np.random.default_rng(5)) == {(2, 1): 25}


def test_distribution_is_exact_rationals():
    g = cyclic_group(6)
    circuit = NormalizerCircuit(DesignatedBasis(g), [QFTGate((0,))])
    dist = coset_run(circuit, g.element(2)).distribution()
    assert all(p == Fraction(1, 6) for p in dist.values())


def test_rejects_black_box_and_infinite():
    g = cyclic_group(4)
    circuit = NormalizerCircuit(
        DesignatedBasis(g), [AutomorphismGate(func=lambda pt: pt, name="bb")]
    )
    with pytest.raises(CosetSimulationError, match="normal form"):
        coset_run(circuit, g.element(0))
    infinite = NormalizerCircuit(DesignatedBasis(group(Z)), [])
    with pytest.raises(CosetSimulationError):
        coset_run(infinite, group(Z).element(0))


def test_basis_state_constructor_rejects_infinite():
    with pytest.raises(CosetSimulationError):
        CosetPhaseState.basis_state(group(Z).element(0))


def test_trivial_factor_edge_case():
    g = cyclic_group(1, 4)
    circuit = NormalizerCircuit(DesignatedBasis(g), [QFTGate((0, 1)), QFTGate((1,))])
    state = assert_matches_dense(circuit, (0, 1))
    assert state.support_size() <= 4


def _spy_on_solves(monkeypatch) -> list:
    """Record the result of every solve_group_system call the engine makes."""
    solves = []
    solve = coset.solve_group_system

    def spy(system):
        solved = solve(system)
        solves.append(solved)
        return solved

    monkeypatch.setattr(coset, "solve_group_system", spy)
    return solves


def _count_solves(monkeypatch, moduli, gates, coords) -> int:
    solves = _spy_on_solves(monkeypatch)
    circuit = NormalizerCircuit(DesignatedBasis(cyclic_group(*moduli)), gates)
    assert_matches_dense(circuit, coords)
    return len(solves)


def test_qft_solve_counts(monkeypatch):
    # An empty row opens no collision and costs no solve; otherwise one
    # collision solve and one integration (two solves) per register.
    assert _count_solves(monkeypatch, (4, 4, 4), [QFTGate((0, 1, 2))], (1, 2, 3)) == 0
    assert _count_solves(monkeypatch, (5,), [QFTGate((0,)), QFTGate((0,))], (2,)) == 3
    assert _count_solves(monkeypatch, (4, 6), [QFTGate((0, 1))] * 2, (1, 1)) == 6


def test_collision_kernel_needs_a_combined_generator(monkeypatch):
    # On Z3 x Z6 the shear leaves columns (1, 0) and (1, 1).  The QFT on
    # register 1 opens K = {t : t_0 + t_1 = 0 mod 3}, whose Hermite
    # generators (1, 2) and (0, 3) have register-1 values 2 and 3: neither
    # generates K, and the one integration must use their combination
    # (2, 1), of value 1.
    g = cyclic_group(3, 6)
    rep = validate_matrix_rep([[1, 1], [0, 1]], g)
    circuit = NormalizerCircuit(
        DesignatedBasis(g), [QFTGate((0, 1)), AutomorphismGate(rep=rep), QFTGate((1,))]
    )
    integrated = []
    integrate_out = CosetPhaseState._integrate_out

    def spy(state, w):
        integrated.append(list(w))
        integrate_out(state, w)

    monkeypatch.setattr(CosetPhaseState, "_integrate_out", spy)
    solves = _spy_on_solves(monkeypatch)
    for element in g.elements():
        integrated.clear()
        solves.clear()
        assert_matches_dense(circuit, element.coords)
        assert solves[0][1] == [[1, 2], [0, 3]]
        assert integrated == [[2, 1, 0]]


@st.composite
def small_circuits(draw):
    moduli = draw(
        st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
            lambda m: math.prod(m) <= 256
        )
    )
    g = cyclic_group(*moduli)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuit = random_circuit(g, rng, gate_count=draw(st.integers(1, 8)))
    return circuit, tuple(int(rng.integers(n)) for n in moduli)


@settings(max_examples=60, deadline=None)
@given(small_circuits())
def test_invariants_hold_after_every_gate(case):
    circuit, coords = case
    for k in range(1, len(circuit.gates) + 1):
        prefix = NormalizerCircuit(circuit.initial_basis, circuit.gates[:k])
        assert_coset_invariants(
            coset_run(prefix, prefix.initial_basis.elementary.reduce(coords))
        )
    assert_matches_dense(circuit, coords)


def test_draws_past_2_to_63_are_exact_and_uniform():
    # The sampler's big-support path: uniform indices of any size, and their
    # C-order coordinates in the box.
    rng = np.random.default_rng(1)
    counts = np.bincount([coset._uniform_below(6, rng) for _ in range(6000)], minlength=6)
    assert len(counts) == 6 and counts.min() > 850
    bound = 3 << 100
    draws = [coset._uniform_below(bound, rng) for _ in range(200)]
    assert all(0 <= draw < bound for draw in draws)
    assert max(draws) > bound // 2  # all 102 bits are used
    box = [5, 6, 7]
    for index in range(math.prod(box)):
        assert coset._unravel(index, box) == list(np.unravel_index(index, box))


WIDE = 10**10 + 19  # prime; products of two coordinates pass 2^63


@settings(max_examples=40, deadline=None)
@given(
    moduli=st.lists(st.integers(2, 10**12), min_size=1, max_size=2),
    qft=st.sets(st.integers(0, 1), min_size=1),
    units=st.tuples(st.integers(1, 10**12), st.integers(1, 10**12)),
    shears=st.tuples(st.integers(0, 10**12), st.integers(0, 10**12)),
    shots=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(moduli=[WIDE], qft={0}, units=(9999999967, 1), shears=(0, 0), shots=20, seed=0)
@example(moduli=[WIDE, WIDE], qft={0, 1}, units=(3, 5), shears=(WIDE - 2, 7), shots=20, seed=1)
@example(moduli=[WIDE, 6], qft={0}, units=(WIDE - 1, 5), shears=(1, 1), shots=20, seed=2)
def test_draws_are_exact_past_int64(moduli, qft, units, shears, shots, seed):
    # Oracle: the parameters redrawn from the same seed (one rng.integers
    # call below 2^63 support points, exact limbs past it), unravelled in
    # C order, and x0 + P t taken in Python integers.
    k = len(moduli)
    units = [u % n for u, n in zip(units, moduli)]
    assume(all(math.gcd(u, n) == 1 for u, n in zip(units, moduli)))
    matrix = [[units[i] if i == j else 0 for j in range(k)] for i in range(k)]
    if k == 2:
        steps = [moduli[i] // math.gcd(*moduli) for i in range(2)]
        upper = [[1, steps[0] * shears[0]], [0, 1]]
        lower = [[1, 0], [steps[1] * shears[1], 1]]
        matrix = mat_mul(lower, mat_mul(upper, matrix))
    g = cyclic_group(*moduli)
    registers = tuple(sorted({r % k for r in qft}))
    rep = validate_matrix_rep(matrix, g)
    gates = [QFTGate(registers), AutomorphismGate(rep=rep)]
    state = coset_run(NormalizerCircuit(DesignatedBasis(g), gates), g.identity())
    drawn = state.sample(shots, np.random.default_rng(seed))

    rng, size = np.random.default_rng(seed), state.support_size()
    if size < 1 << 63:
        indices = rng.integers(size, size=shots).tolist()
    else:
        indices = [coset._uniform_below(size, rng) for _ in range(shots)]
    reference = Counter()
    for index in indices:
        point = list(state.shift)
        for column, t in zip(state.columns, coset._unravel(index, state.moduli)):
            point = [x + c * t for x, c in zip(point, column)]
        reference[tuple(x % n for x, n in zip(point, g.chars))] += 1
    assert Counter(drawn) == reference
