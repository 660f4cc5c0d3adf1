"""Dense state-vector execution of normalizer circuits on finite bases.

This is the brute-force oracle the structured simulator is judged against:
amplitudes are complex floats indexed by every basis label.  Normal-form
gates act on the whole array at once: a QFT is numpy's inverse FFT with
norm="ortho", one `np.fft.ifft` per register, last register first (the loop
`np.fft.ifftn` runs, so the same bytes), an automorphism one integer index
permutation of the label grid, a quadratic phase one array of integer
numerators k(g) mod d followed by exp(2 pi i k/d).  The label grid is built
only when such a gate runs.  Black-box gates run here directly, which is
what makes the engine usable on circuits that have not been de-black-boxed
yet.  A `word_exp` gate permutes the black-box axis by one
`blackbox.coset_walk` of y0 <b_1, .., b_k>, keyed by label index, per coset
the support meets: |<b>| - 1 + k `mul`, no `power`.  A label at walk
position p moves to position `walk.index(walk.word(p) + its exponents)`,
exactly for every exponent.  (Called point by point, as deblackbox
extraction does, it keeps its cached-power cost instead.)  Any other
black-box callable runs once per label of the nonzero support; each image
goes through `make_point`, and all are encoded into flat positions in one
array pass.

Fourier sampling opens every `fourier_circuit`: a QFT over every elementary
register, then `word_exp`, from |0, y0>.  Its state is known in closed form,
c at (x, f(x) y0) for every x, so `dense_run` writes it directly, reading
f(x) y0 at position `index(x)` of the coset walk from y0, and spends one
FFT on the whole circuit instead of two.  c is the product of the
1/sqrt(n_i) multiplied last register first, the order numpy's transform
scales its axes in, so the bytes are those of the FFT.  The opening skips
the norm check of black-box gates, which cannot fail there: each x slice
holds one label before `word_exp`, which never moves x, so no two labels
meet.  Every other gate, and every other opening, runs one by one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .blackbox import CosetWalk, coset_walk
from .circuits import (
    AutomorphismGate,
    CircuitError,
    DesignatedBasis,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
    WordExp,
    label_grid,
)
from .config import DEFAULT_DENSE_CAP


class DenseCapExceeded(CircuitError):
    """The state would have more amplitudes than the dense cap allows."""


@dataclass
class DenseState:
    """Amplitude tensor over a finite designated basis, one axis per register."""

    basis: DesignatedBasis
    amplitudes: np.ndarray
    bb_labels: list | None
    _bb_index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._bb_index = {label: i for i, label in enumerate(self.bb_labels or ())}

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def flat_indices(self, points) -> np.ndarray:
        """Positions of basis points in the C-order flattened amplitudes.

        Every point goes through `make_point`, which rejects a wrong length
        or a black-box value outside the group; one `ravel_multi_index` then
        encodes them all.
        """
        columns = [list(c) for c in zip(*map(self.basis.make_point, points))]
        if not columns:  # no points, or a basis without registers
            return np.zeros(len(points), dtype=np.intp)
        if self.bb_labels is not None:
            columns[-1] = [self._bb_index[label] for label in columns[-1]]
        return np.ravel_multi_index(columns, self.amplitudes.shape)

    def points(self, flat_indices) -> list[tuple]:
        """Basis points at flat positions: exact coordinates plus bb label."""
        flat_indices = np.asarray(flat_indices, dtype=np.intp)
        if not self.amplitudes.shape:
            return [()] * flat_indices.size
        columns = [c.tolist() for c in np.unravel_index(flat_indices, self.amplitudes.shape)]
        if self.bb_labels is not None:
            columns[-1] = [self.bb_labels[i] for i in columns[-1]]
        return list(zip(*columns))

    def flat_index(self, point) -> int:
        return int(self.flat_indices([point])[0])

    def probabilities(self, tol: float = 1e-12) -> dict[tuple, float]:
        probs = np.abs(self.amplitudes.reshape(-1)) ** 2
        support = np.flatnonzero(probs > tol)
        return dict(zip(self.points(support), probs[support].tolist()))


def _initial_state(basis: DesignatedBasis, point, cap: int) -> tuple[DenseState, int]:
    """The basis state |point> and the point's flat index."""
    blackbox = basis.blackbox
    dims = [f.modulus for f in basis.elementary.factors]
    exact = True
    if blackbox is not None:
        order, exact = blackbox.order_within(cap // math.prod(dims))  # Z_N^*: no huge factoring
        dims.append(order)
    total = math.prod(dims)
    if total > cap:  # before the labels are listed: a huge group must fail at once
        floor = "" if exact else "at least "
        raise DenseCapExceeded(f"dense dimension {floor}{total} exceeds cap {cap}")
    bb_labels = None if blackbox is None else list(blackbox.elements())
    amplitudes = np.zeros(dims, dtype=np.complex128)
    state = DenseState(basis=basis, amplitudes=amplitudes, bb_labels=bb_labels)
    start = state.flat_index(point)
    amplitudes.flat[start] = 1.0
    return state, start


def _apply_qft(state: DenseState, registers) -> None:
    """exp(2 pi i x y / n) / sqrt(n) on each register: numpy's unitary
    inverse FFT along one axis at a time, last register first.  That is the
    loop `np.fft.ifftn(a, axes=registers, norm="ortho")` runs, so the bytes
    are its bytes, without its argument handling."""
    amplitudes = state.amplitudes
    for r in reversed(registers):
        amplitudes = np.fft.ifft(amplitudes, axis=r, norm="ortho")
    state.amplitudes = amplitudes


def _coset_walk(state: DenseState, func: WordExp, start: int) -> tuple[np.ndarray, CosetWalk]:
    """The `coset_walk` of label index `start` under the active bases, capped
    at |B|, and its label indices in position order.  An image outside the
    group fails with `make_point`'s error."""
    group, index = func.group, state._bb_index
    try:
        walk = coset_walk(group, index.__getitem__, state.bb_labels[start],
                          [b for _, b in func.active], cap=len(index))
    except KeyError as miss:
        state.basis.check_blackbox_values(miss.args)
        raise
    return np.fromiter(walk.position, dtype=np.intp, count=len(walk)), walk


def _word_exp_targets(state: DenseState, func: WordExp, support: np.ndarray) -> np.ndarray:
    """Flat images of the support labels under a `word_exp` gate: one coset
    walk from the first support label no walk has reached, until none is
    left, and each label moves from its place in its walk by its exponents."""
    shape = state.amplitudes.shape
    columns = list(np.unravel_index(support, shape))
    j = columns[-1]
    if func.active:
        images, todo = j.copy(), np.ones(len(j), dtype=bool)
        while todo.any():
            labels, walk = _coset_walk(state, func, int(j[todo][0]))
            place = np.full(len(state.bb_labels), -1, dtype=np.intp)
            place[labels] = np.arange(len(labels))
            mine = todo & (place[j] >= 0)
            digits = walk.word(place[j[mine]])
            exponents = [d + columns[r][mine] for d, (r, _) in zip(digits, func.active)]
            images[mine] = labels[walk.index(exponents)]
            todo &= ~mine
        columns[-1] = images
    return np.ravel_multi_index(columns, shape)


def _apply_automorphism(state: DenseState, gate: AutomorphismGate, grid: np.ndarray | None) -> None:
    shape = state.amplitudes.shape
    flat = state.amplitudes.reshape(-1)
    out = np.zeros_like(flat)
    if gate.is_black_box:
        support = np.flatnonzero(flat)
        if isinstance(gate.func, WordExp):
            targets = _word_exp_targets(state, gate.func, support)
        else:
            targets = state.flat_indices([gate.func(p) for p in state.points(support)])
        np.add.at(out, targets, flat[support])
    else:
        n = len(grid)
        matrix = np.array(gate.rep.matrix, dtype=np.int64).reshape(n, n)
        image = (matrix @ grid) % np.array(shape[:n], dtype=np.int64)[:, None]
        rows = np.ravel_multi_index(image, shape[:n]).reshape(-1)
        # A black-box label, the trailing axis, stays put: rows move whole.
        np.add.at(out.reshape(len(rows), -1), rows, flat.reshape(len(rows), -1))
    state.amplitudes = out.reshape(shape)


def _apply_quadratic(state: DenseState, gate: QuadraticGate, grid: np.ndarray | None) -> None:
    shape = state.amplitudes.shape
    flat = state.amplitudes.reshape(-1)
    if gate.is_black_box:
        support = np.flatnonzero(flat)
        q = np.array([float(gate.func(p)) for p in state.points(support)], dtype=float)
        # One scalar product per label: numpy's array complex multiply can
        # round differently in the last bit, and amplitudes stay bit-stable.
        for i, phase in zip(support.tolist(), np.exp(2j * np.pi * q)):
            flat[i] *= phase
    else:
        k, d = gate.form.numerators(grid)
        flat = (flat.reshape(len(k), -1) * np.exp(2j * np.pi * (k / d))[:, None]).reshape(-1)
    state.amplitudes = flat.reshape(shape)


def _fourier_opening_label(circuit: NormalizerCircuit, state: DenseState, start: int) -> int | None:
    """The input's black-box label index when the circuit opens with Fourier
    sampling from a point that is 0 on every elementary register: a QFT over
    every elementary register, then a `word_exp` gate.  None otherwise.
    `start` is the input's flat index."""
    gates = circuit.gates
    if not (
        len(gates) >= 2
        and isinstance(gates[0], QFTGate)
        and sorted(gates[0].registers) == list(range(len(state.basis.elementary.factors)))
        and isinstance(gates[1], AutomorphismGate)
        and isinstance(gates[1].func, WordExp)
    ):
        return None
    # C order puts the black-box axis last, so the input is 0 on every
    # elementary register exactly when its flat index is below |B|.
    return start if start < len(state.bb_labels) else None


def _apply_fourier_opening(state: DenseState, qft: QFTGate, func: WordExp, label: int) -> None:
    """The QFT and `word_exp` gates of a Fourier opening on |0, y0>, in
    closed form: amplitude c at (x, f(x) y0) for every x, j the label index
    of f(x) y0 at the walk's `index(x)`, x_r broadcast along register r."""
    shape = state.amplitudes.shape
    k = len(shape) - 1  # elementary registers; the black-box axis is last
    c = 1.0
    for r in reversed(qft.registers):  # the order np.fft.ifftn scales its axes in
        c *= 1 / math.sqrt(shape[r])
    labels, walk = _coset_walk(state, func, label)
    # x_r along axis r of the grid
    x = [np.arange(shape[r]).reshape((-1,) + (1,) * (k - 1 - r)) for r, _ in func.active]
    j = np.broadcast_to(labels[walk.index(x)], shape[:k])
    size = state.amplitudes.size
    out = np.zeros(size, dtype=np.complex128)
    out[np.arange(0, size, len(state.bb_labels)) + j.reshape(-1)] = c
    state.amplitudes = out.reshape(shape)


def dense_run(
    circuit: NormalizerCircuit, input_point, cap: int | None = None
) -> DenseState:
    """Run a finite-register circuit on one basis state, exactly by brute force.

    A Fourier opening (a QFT over every elementary register, then
    `word_exp`) on a point 0 on every elementary register is written in
    closed form, scaled last register first as numpy's FFT is, with the
    same bytes and oracle calls; its norm check is dropped because no two
    labels can meet there.  Every other gate runs one by one.
    """
    cap = DEFAULT_DENSE_CAP if cap is None else cap
    trace = circuit.validate()
    if any(not b.is_finite for b in trace):
        raise CircuitError("dense simulation needs every register finite")
    state, start = _initial_state(circuit.initial_basis, input_point, cap)
    gates = circuit.gates
    label = _fourier_opening_label(circuit, state, start)
    if label is not None:
        _apply_fourier_opening(state, gates[0], gates[1].func, label)
        gates = gates[2:]
    grid = None  # the label grid, for normal-form automorphisms and phases only
    if any(not isinstance(gate, QFTGate) and not gate.is_black_box for gate in gates):
        grid = label_grid([f.modulus for f in circuit.initial_basis.elementary.factors])
    for gate in gates:
        if isinstance(gate, QFTGate):
            _apply_qft(state, gate.registers)
        elif isinstance(gate, AutomorphismGate):
            _apply_automorphism(state, gate, grid)
            # Only a black-box callable can send two labels to one; every
            # other gate is unitary by construction.
            if gate.is_black_box:
                norm = state.norm()
                if abs(norm - 1.0) > 1e-9:
                    raise CircuitError(f"norm drifted to {norm}")
        else:
            _apply_quadratic(state, gate, grid)
    return state


def dense_sample(state: DenseState, shots: int, rng) -> Counter:
    """Measure in the final designated basis `shots` times.

    The draws are the steps `rng.choice(len(flat), size=shots, p=flat)`
    takes, without its checks on a distribution normalized here: the same
    outcomes, and the generator left in the same state.
    """
    flat = np.abs(state.amplitudes.reshape(-1)) ** 2
    total = flat.sum()
    if not 0 < total < math.inf:
        raise ValueError(f"cannot sample a state of squared norm {total}")
    cdf = (flat / total).cumsum()
    cdf /= cdf[-1]
    draws = cdf.searchsorted(rng.random(shots), side="right")
    drawn = Counter(draws.tolist())
    return Counter(dict(zip(state.points(list(drawn)), drawn.values())))
