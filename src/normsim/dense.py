"""Dense state-vector execution of normalizer circuits on finite bases.

This is the brute-force oracle the structured simulator is judged against:
amplitudes are complex floats indexed by every basis label.  Normal-form
gates act on the whole array at once: an automorphism is one integer index
permutation of the label grid, a quadratic phase one array of integer
numerators k(g) mod d followed by exp(2 pi i k/d).  Black-box gates run here
directly through their callables, label by label on the nonzero support only,
which is what makes the engine usable on circuits that have not been
de-black-boxed yet.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    AutomorphismGate,
    CircuitError,
    DesignatedBasis,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
    label_grid,
)
from .config import dense_cap


@dataclass
class DenseState:
    """Amplitude tensor over a finite designated basis, one axis per register."""

    basis: DesignatedBasis
    amplitudes: np.ndarray
    bb_labels: list | None
    _bb_index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.bb_labels is not None and not self._bb_index:
            self._bb_index = {label: i for i, label in enumerate(self.bb_labels)}

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def flat_index(self, point) -> int:
        """Position of a basis point in the C-order flattened amplitudes."""
        point = self.basis.make_point(point)
        n = len(self.basis.elementary.factors)
        index = list(point[:n])
        if self.bb_labels is not None:
            index.append(self._bb_index[point[n]])
        return int(np.ravel_multi_index(index, self.amplitudes.shape))

    def point(self, flat_index: int) -> tuple:
        """Basis point at a flat position: exact coordinates plus bb label."""
        index = [i.item() for i in np.unravel_index(flat_index, self.amplitudes.shape)]
        n = len(self.basis.elementary.factors)
        point = tuple(index[:n])
        if self.bb_labels is not None:
            point = point + (self.bb_labels[index[n]],)
        return point

    def amplitude(self, point) -> complex:
        return complex(self.amplitudes.flat[self.flat_index(point)])

    def probabilities(self, tol: float = 1e-12) -> dict[tuple, float]:
        probs = np.abs(self.amplitudes.reshape(-1)) ** 2
        return {self.point(i): float(probs[i]) for i in np.flatnonzero(probs > tol)}

    def support(self, tol: float = 1e-9) -> set[tuple]:
        return set(self.probabilities(tol=tol))


def _initial_state(basis: DesignatedBasis, point, cap: int) -> DenseState:
    dims = [f.modulus for f in basis.elementary.factors]
    bb_labels = None
    if basis.blackbox is not None:
        dims.append(basis.blackbox.order())
        bb_labels = sorted(basis.blackbox.elements(), key=basis.blackbox.encode)
    total = math.prod(dims)
    if total > cap:
        raise CircuitError(f"dense dimension {total} exceeds cap {cap}")
    amplitudes = np.zeros(dims, dtype=np.complex128)
    state = DenseState(basis=basis, amplitudes=amplitudes, bb_labels=bb_labels)
    amplitudes.flat[state.flat_index(point)] = 1.0
    return state


def _apply_qft(state: DenseState, registers) -> None:
    for r in registers:
        n = state.amplitudes.shape[r]
        x = np.arange(n)
        f = np.exp(2j * np.pi * np.outer(x, x) / n) / np.sqrt(n)
        moved = np.tensordot(f, state.amplitudes, axes=([1], [r]))
        state.amplitudes = np.moveaxis(moved, 0, r)


def _apply_automorphism(state: DenseState, gate: AutomorphismGate, grid: np.ndarray) -> None:
    shape = state.amplitudes.shape
    flat = state.amplitudes.reshape(-1)
    out = np.zeros_like(flat)
    if gate.is_black_box:
        support = np.flatnonzero(flat)
        targets = [state.flat_index(gate.func(state.point(i))) for i in support.tolist()]
        np.add.at(out, targets, flat[support])
    else:
        n = len(grid)
        matrix = np.array(gate.rep.matrix, dtype=np.int64).reshape(n, n)
        image = (matrix @ grid) % np.array(shape[:n], dtype=np.int64)[:, None]
        rows = np.ravel_multi_index(image, shape[:n]).reshape(-1)
        # A black-box label, the trailing axis, stays put: rows move whole.
        np.add.at(out.reshape(len(rows), -1), rows, flat.reshape(len(rows), -1))
    state.amplitudes = out.reshape(shape)


def _apply_quadratic(state: DenseState, gate: QuadraticGate, grid: np.ndarray) -> None:
    shape = state.amplitudes.shape
    flat = state.amplitudes.reshape(-1)
    if gate.is_black_box:
        for i in np.flatnonzero(flat).tolist():
            flat[i] *= np.exp(2j * np.pi * float(gate.func(state.point(i))))
    else:
        k, d = gate.form.numerators(grid)
        flat = (flat.reshape(len(k), -1) * np.exp(2j * np.pi * (k / d))[:, None]).reshape(-1)
    state.amplitudes = flat.reshape(shape)


def dense_run(
    circuit: NormalizerCircuit, input_point, cap: int | None = None
) -> DenseState:
    """Run a finite-register circuit on one basis state, exactly by brute force."""
    cap = dense_cap(cap)
    trace = circuit.validate()
    if any(not b.is_finite for b in trace):
        raise CircuitError("dense simulation needs every register finite")
    state = _initial_state(circuit.initial_basis, input_point, cap)
    grid = label_grid([f.modulus for f in circuit.initial_basis.elementary.factors])
    for gate in circuit.gates:
        if isinstance(gate, QFTGate):
            _apply_qft(state, gate.registers)
        elif isinstance(gate, AutomorphismGate):
            _apply_automorphism(state, gate, grid)
        elif isinstance(gate, QuadraticGate):
            _apply_quadratic(state, gate, grid)
        else:
            raise CircuitError(f"unknown gate type {type(gate).__name__}")
        if abs(state.norm() - 1.0) > 1e-9:
            raise CircuitError(f"norm drifted to {state.norm()}")
    return state


def dense_sample(state: DenseState, shots: int, rng) -> Counter:
    """Measure in the final designated basis `shots` times."""
    flat = np.abs(state.amplitudes.reshape(-1)) ** 2
    flat = flat / flat.sum()
    draws = rng.choice(len(flat), size=shots, p=flat)
    counts: Counter = Counter()
    for flat_index, count in Counter(draws.tolist()).items():
        counts[state.point(flat_index)] += count
    return counts
