"""Tests for the dense state-vector oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from normsim.blackbox import ZNStarGroup
from normsim.circuits import (
    AutomorphismGate,
    CircuitError,
    DesignatedBasis,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
    validate_matrix_rep,
    validate_quadratic,
    word_exp_func,
)
from normsim.dense import dense_run, dense_sample
from normsim.groups import cyclic_group, group, Z


def test_qft_on_z2_gives_uniform_superposition():
    basis = DesignatedBasis(cyclic_group(2))
    circuit = NormalizerCircuit(basis, [QFTGate((0,))])
    state = dense_run(circuit, (0,))
    expected = 1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, [expected, expected])


def test_automorphism_permutes_labels():
    basis = DesignatedBasis(cyclic_group(8))
    rep = validate_matrix_rep([[3]], cyclic_group(8))
    circuit = NormalizerCircuit(basis, [AutomorphismGate(rep=rep)])
    state = dense_run(circuit, (2,))
    assert state.amplitude((6,)) == pytest.approx(1.0)


def test_quadratic_phases_are_diagonal():
    g = cyclic_group(4)
    basis = DesignatedBasis(g)
    form = validate_quadratic([[Fraction(1, 4)]], [0], g)
    circuit = NormalizerCircuit(basis, [QFTGate((0,)), QuadraticGate(form=form)])
    state = dense_run(circuit, (0,))
    for x in range(4):
        expected = 0.5 * np.exp(2j * np.pi * float(form.exponent(g.element(x))))
        assert state.amplitude((x,)) == pytest.approx(expected)


def test_qft_matches_explicit_dft_on_arbitrary_state():
    # Oracle: build the DFT by hand on a state prepared by a few gates.
    g = cyclic_group(5)
    basis = DesignatedBasis(g)
    form = validate_quadratic([[Fraction(2, 5)]], [Fraction(1, 5)], g)
    prep = NormalizerCircuit(basis, [QFTGate((0,)), QuadraticGate(form=form)])
    prepared = dense_run(prep, (0,)).amplitudes
    full = NormalizerCircuit(
        basis, [QFTGate((0,)), QuadraticGate(form=form), QFTGate((0,))]
    )
    result = dense_run(full, (0,)).amplitudes
    dft = np.exp(2j * np.pi * np.outer(np.arange(5), np.arange(5)) / 5) / np.sqrt(5)
    assert np.allclose(result, dft @ prepared)


def test_norm_preserved_on_100_random_circuits():
    from helpers import random_circuit, random_finite_group

    rng = np.random.default_rng(42)
    for _ in range(100):
        g = random_finite_group(rng, max_order=256)
        circuit = random_circuit(g, rng, gate_count=6)
        coords = tuple(int(rng.integers(f.modulus)) for f in g.factors)
        state = dense_run(circuit, coords)
        assert abs(state.norm() - 1.0) < 1e-12


def build_dlog_circuit(p: int, a: int, b: int):
    """Normalizer circuit of the discrete-log run over Z_{p-1}^2 x Z_p^*."""
    bb = ZNStarGroup(p)
    basis = DesignatedBasis(cyclic_group(p - 1, p - 1), bb)
    return NormalizerCircuit(
        basis,
        [
            QFTGate((0, 1)),
            AutomorphismGate(
                func=word_exp_func(basis, [a, b]),
                name="word_exp",
                params={"bases": [a, b]},
            ),
            QFTGate((0, 1)),
        ],
    )


def test_dlog_circuit_support_p7():
    # p = 7, a = 3, b = 6 = 3^3: support should be pairs (k, 3k mod 6).
    circuit = build_dlog_circuit(7, 3, 6)
    state = dense_run(circuit, (0, 0, 1))
    support = state.support(tol=1e-9)
    pairs = {(int(pt[0]), int(pt[1])) for pt in support}
    assert pairs == {(k, (3 * k) % 6) for k in range(6)}


def test_dlog_circuit_structure():
    circuit = build_dlog_circuit(7, 3, 6)
    assert circuit.qft_layers() == 2
    assert not any(isinstance(g, QuadraticGate) for g in circuit.gates)


def test_dense_sample_distribution():
    basis = DesignatedBasis(cyclic_group(2))
    circuit = NormalizerCircuit(basis, [QFTGate((0,))])
    state = dense_run(circuit, (0,))
    rng = np.random.default_rng(7)
    counts = dense_sample(state, 1000, rng)
    assert sum(counts.values()) == 1000
    for point, count in counts.items():
        assert count == pytest.approx(500, abs=4 * 0.5 * np.sqrt(1000))


def test_dense_rejects_infinite_and_oversized():
    basis = DesignatedBasis(group(Z))
    with pytest.raises(CircuitError):
        dense_run(NormalizerCircuit(basis, []), (0,))
    big = DesignatedBasis(cyclic_group(128, 128))
    with pytest.raises(CircuitError, match="cap"):
        dense_run(NormalizerCircuit(big, []), (0, 0))


def test_dense_cap_env_override(monkeypatch):
    big = DesignatedBasis(cyclic_group(128, 64))
    monkeypatch.setenv("NORMSIM_CAP", "10000")
    state = dense_run(NormalizerCircuit(big, []), (0, 0))
    assert state.amplitudes.size == 8192


def _oracle_calls(circuit, point) -> int:
    group = circuit.initial_basis.blackbox
    before = group.counter.total
    dense_run(circuit, point)
    return group.counter.total - before


def test_black_box_gates_run_only_on_the_support():
    # Counts recorded before normal-form gates became whole-array operations.
    # Black-box callables see only the nonzero support: tabulating word_exp on
    # all 4096 labels of the p = 17 circuit would spend about 16 times more.
    from normsim.algorithms import (
        HSPInstance,
        OracularGroup,
        dlog_circuit,
        ec_dlog_circuit,
        hsp_circuit,
    )
    from normsim.blackbox import EllipticCurveGroup

    assert _oracle_calls(dlog_circuit(17, 3, 5), (0, 0, 1)) == 3104
    curve = EllipticCurveGroup(7, 2, 3)
    assert _oracle_calls(ec_dlog_circuit(curve, (2, 1), (3, 6), 6), (0, 0, None)) == 288
    domain = cyclic_group(4, 2)
    instance = HSPInstance(group=domain, oracle=lambda c: (int(c[0]) % 2, int(c[1])))
    oracular = OracularGroup(domain, instance.oracle)
    circuit = hsp_circuit(instance, oracular)
    assert _oracle_calls(circuit, (0, 0, oracular.identity())) == 42
