"""Structured simulation of finite normalizer circuits.

A state is kept as a uniform-magnitude superposition over a coset with a
quadratic phase profile:

    |psi>  ~  sum_t  exp(2 pi i q(t)) |x0 + P t>

where t runs over a box Z_{m_1} x ... x Z_{m_k} of parameters, P maps
parameters to group coordinates injectively, and q is an exact rational
quadratic polynomial.  Automorphism gates push P and x0 forward, quadratic
gates add to q, and a partial QFT introduces one fresh parameter and rewires
one coordinate row.

The QFT step temporarily breaks injectivity; restoring it is the only
nontrivial update.  Summing the phase over one collision direction w of
order nu is a quadratic Gauss sum over Z_nu, and two classical facts about
such sums drive the reduction:

  *  the sum vanishes unless a linear condition holds on the remaining
     parameters (the character must be trivial on the radical of the
     restricted bilinear form), and
  *  on its support the sum obeys a first-order recurrence in the character
     offset, so all surviving amplitudes share one magnitude and their
     relative phases are again a quadratic polynomial.

No closed-form Gauss-sum evaluation is ever needed: only ratios enter, and
the global magnitude is fixed by normalization.  Correctness rests on the
dense-oracle equivalence suite, not on the derivation above.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .circuits import (
    AutomorphismGate,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
    label_grid,
    phase_numerators,
)
from .groups import ElementaryGroup, GroupElement
from .linalg import GroupLinearSystem, smith_normal_form, solve_group_system


class CosetSimulationError(ValueError):
    pass


def _lcm_denominators(values) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, Fraction(v).denominator)
    return out


@dataclass
class CosetPhaseState:
    """Coset support x0 + span(P) with a quadratic phase over the parameters."""

    group: ElementaryGroup
    shift: list[int]
    columns: list[list[int]]  # generator columns of P, length-m each
    moduli: list[int]  # parameter box; moduli[i] annihilates columns[i]
    quad: list[list[Fraction]]  # symmetric parameter quadratic
    lin: list[Fraction]

    # -- construction ---------------------------------------------------------

    @classmethod
    def basis_state(cls, element: GroupElement) -> CosetPhaseState:
        group = element.group
        if not group.is_finite:
            raise CosetSimulationError("structured simulation handles finite groups")
        return cls(
            group=group,
            shift=list(element.coords),
            columns=[],
            moduli=[],
            quad=[],
            lin=[],
        )

    # -- bookkeeping ----------------------------------------------------------

    @property
    def num_params(self) -> int:
        return len(self.columns)

    def support_size(self) -> int:
        return math.prod(self.moduli) if self.moduli else 1

    def _chars(self) -> list[int]:
        return [f.modulus for f in self.group.factors]

    def _reduce_coords(self, coords) -> list[int]:
        return [c % n for c, n in zip(coords, self._chars())]

    def phase_exponent(self, t) -> Fraction:
        """q(t) = t quad t + lin t mod 1 at one parameter vector t."""
        k, d = phase_numerators(self.quad, self.lin, np.reshape(t, (len(t), 1)))
        return Fraction(int(k[0]), d)

    # -- gate updates -----------------------------------------------------------

    def apply_automorphism(self, rep) -> None:
        if rep.group != self.group:
            raise CosetSimulationError("automorphism over the wrong group")
        self.shift = list(rep.apply(self.group.reduce(self.shift)).coords)
        self.columns = [
            self._reduce_coords([sum(map(mul, row, column)) for row in rep.matrix])
            for column in self.columns
        ]

    def apply_quadratic(self, form) -> None:
        if form.group != self.group:
            raise CosetSimulationError("phase gate over the wrong group")
        m = len(self.group.factors)
        k = self.num_params
        c = form.c
        # q2(x0 + P t) expanded: constant dropped (global phase).
        mx0 = [
            sum(form.m[i][j] * self.shift[j] for j in range(m)) for i in range(m)
        ]
        for a in range(k):
            col_a = self.columns[a]
            self.lin[a] += sum(
                (mx0[i] + Fraction(c[i], 2) + form.v[i]) * col_a[i] for i in range(m)
            )
            for b in range(k):
                col_b = self.columns[b]
                value = sum(
                    col_a[i] * form.m[i][j] * col_b[j]
                    for i in range(m)
                    for j in range(m)
                )
                self.quad[a][b] += Fraction(value, 2)

    def apply_qft(self, register: int) -> None:
        factor = self.group.factors[register]
        n = factor.modulus
        # Exponent polynomial gains (x0_j + (P t)_j) s / N before row j is
        # replaced by the fresh parameter s.
        old_shift = self.shift[register]
        old_row = [column[register] for column in self.columns]
        k = self.num_params
        for row in self.quad:
            row.append(Fraction(0))
        self.quad.append([Fraction(0)] * (k + 1))
        for i, coefficient in enumerate(old_row):
            half = Fraction(coefficient, 2 * n)
            self.quad[i][k] += half
            self.quad[k][i] += half
        self.lin.append(Fraction(old_shift, n))
        for column in self.columns:
            column[register] = 0
        fresh = [0] * len(self.group.factors)
        fresh[register] = 1
        self.columns.append(fresh)
        self.moduli.append(n)
        self.shift[register] = 0
        self._restore_injectivity()

    # -- injectivity restoration -------------------------------------------------

    def _parameter_kernel(self) -> list[list[int]]:
        """Nonzero parameter vectors (mod the box) mapping to 0 in the group."""
        if not self.columns:
            return []
        m = len(self.group.factors)
        rows = [[column[i] for column in self.columns] for i in range(m)]
        solved = solve_group_system(
            GroupLinearSystem(rows, [0] * m, self._chars())
        )
        if solved is None:
            raise CosetSimulationError("homogeneous system cannot be infeasible")
        _, kernel = solved
        out = []
        for gen in kernel:
            reduced = [g % mod for g, mod in zip(gen, self.moduli)]
            if any(reduced):
                out.append(reduced)
        return out

    def _restore_injectivity(self) -> None:
        while True:
            kernel = self._parameter_kernel()
            if not kernel:
                return
            self._integrate_out(kernel[0])

    def _integrate_out(self, w: list[int]) -> None:
        """Collapse the collision direction w, keeping one representative per
        group point and folding the collision Gauss sum into the phase."""
        k = self.num_params
        nu = 1
        for wi, mi in zip(w, self.moduli):
            if wi:
                nu = math.lcm(nu, mi // math.gcd(mi, wi))
        qw = [sum(self.quad[i][j] * w[j] for j in range(k)) for i in range(k)]
        a0 = sum(w[i] * qw[i] for i in range(k))
        b0 = sum(self.lin[i] * w[i] for i in range(k))
        step = 2 * a0  # Gauss-sum recurrence step in the character offset
        delta = Fraction(step).denominator
        if nu % delta != 0:
            raise CosetSimulationError("phase polynomial is not box-periodic")

        # Support condition: delta * theta(t) + delta^2 a0 + delta b0 in Z,
        # with theta(t) = 2 (q w) . t.
        coeffs = [2 * delta * value for value in qw]
        rhs = -(delta * delta * a0 + delta * b0)
        scale = _lcm_denominators(coeffs + [rhs])
        int_coeffs = [int(value * scale) for value in coeffs]
        int_rhs = int(rhs * scale)
        solved = solve_group_system(
            GroupLinearSystem([int_coeffs], [int_rhs], [scale])
        )
        if solved is None:
            raise CosetSimulationError("support condition infeasible: state vanished")
        t_star, support_gens = solved
        t_star = [v % m for v, m in zip(t_star, self.moduli)]

        # Present the support subgroup modulo <w>: relations among its
        # generators z with J0 z = tau w (mod the box) form a lattice whose
        # SNF yields an injective reparameterization.
        j0 = support_gens
        r = len(j0)
        relation_rows = [
            [j0[c][i] for c in range(r)] + [-w[i]] for i in range(k)
        ]
        rel_solved = solve_group_system(
            GroupLinearSystem(relation_rows, [0] * k, list(self.moduli))
        )
        if rel_solved is None:
            raise CosetSimulationError("relation system cannot be infeasible")
        _, rel_kernel = rel_solved
        relations = [gen[:r] for gen in rel_kernel]
        rel_matrix = (
            [[row[i] for row in relations] for i in range(r)]
            if relations
            else [[0] for _ in range(r)]
        )
        snf = smith_normal_form(rel_matrix)
        diag = snf.diagonal + [0] * (r - len(snf.diagonal))
        if any(d == 0 for d in diag):
            raise CosetSimulationError("support presentation is not finite")
        keep = [i for i in range(r) if diag[i] > 1]
        # Columns of J = J0 U give the new parameter directions in old
        # parameter coordinates; their orders are the SNF diagonal.
        j_columns = [
            [sum(j0[c][row] * snf.u[c][i] for c in range(r)) for row in range(k)]
            for i in keep
        ]
        new_moduli = [diag[i] for i in keep]

        theta_star = 2 * sum(qw[i] * t_star[i] for i in range(k))
        if delta == 1:
            lam_coeffs = [Fraction(0)] * len(j_columns)
        else:
            alpha = int(Fraction(step).numerator) % delta
            alpha_inv = pow(alpha, -1, delta)
            lam_coeffs = []
            for column in j_columns:
                theta_dir = 2 * sum(qw[i] * column[i] for i in range(k))
                value = alpha_inv * delta * theta_dir
                if value.denominator != 1:
                    raise CosetSimulationError("support direction breaks the grid")
                lam_coeffs.append(Fraction(value))

        # New quadratic data: pull back through t = t_star + J t'' and add the
        # Gauss-sum correction  -lam (theta* + a0 + b0) - step lam(lam-1)/2.
        k_new = len(j_columns)
        new_quad = [[Fraction(0)] * k_new for _ in range(k_new)]
        new_lin = [Fraction(0)] * k_new
        for a in range(k_new):
            col_a = j_columns[a]
            new_lin[a] += sum(self.lin[i] * col_a[i] for i in range(k))
            new_lin[a] += 2 * sum(
                t_star[i] * self.quad[i][j] * col_a[j]
                for i in range(k)
                for j in range(k)
            )
            for b in range(k_new):
                col_b = j_columns[b]
                new_quad[a][b] += sum(
                    col_a[i] * self.quad[i][j] * col_b[j]
                    for i in range(k)
                    for j in range(k)
                )
        correction_lin = -(theta_star + a0 + b0) + Fraction(step, 2)
        for a in range(k_new):
            new_lin[a] += correction_lin * lam_coeffs[a]
            for b in range(k_new):
                new_quad[a][b] -= Fraction(step, 2) * lam_coeffs[a] * lam_coeffs[b]

        # Push the particular solution into the shift and install everything.
        base = list(self.shift)
        for i, column in enumerate(self.columns):
            for row in range(len(base)):
                base[row] += t_star[i] * column[row]
        self.shift = self._reduce_coords(base)
        new_columns = []
        for column in j_columns:
            coords = [0] * len(self.group.factors)
            for i, weight in enumerate(column):
                for row in range(len(coords)):
                    coords[row] += weight * self.columns[i][row]
            new_columns.append(self._reduce_coords(coords))
        self.columns = new_columns
        self.moduli = new_moduli
        self.quad = new_quad
        self.lin = new_lin

    # -- outputs ------------------------------------------------------------------

    def _points(self, t: np.ndarray) -> np.ndarray:
        """Group points x0 + P t (mod the characteristics), one column per column of t."""
        chars = self._chars()
        p = np.array(self.columns, dtype=np.int64).reshape(self.num_params, len(chars)).T
        shift = np.array(self.shift, dtype=np.int64)[:, None]
        return (shift + p @ t) % np.array(chars, dtype=np.int64)[:, None]

    def support_points(self) -> list[tuple[int, ...]]:
        points = self._points(label_grid(self.moduli))
        return [tuple(point) for point in points.T.tolist()]

    def distribution(self) -> dict[tuple[int, ...], Fraction]:
        size = self.support_size()
        return {point: Fraction(1, size) for point in self.support_points()}

    def dense_amplitudes(self) -> np.ndarray:
        """Complex expansion over the full group, for oracle comparisons."""
        chars = self._chars()
        t = label_grid(self.moduli)
        k, d = phase_numerators(self.quad, self.lin, t)
        norm = 1 / math.sqrt(self.support_size())
        out = np.zeros(math.prod(chars), dtype=np.complex128)
        flat = np.ravel_multi_index(self._points(t), chars).reshape(-1)
        np.add.at(out, flat, norm * np.exp(2j * np.pi * (k / d)))
        return out.reshape(chars)

    def sample(self, shots: int, rng) -> dict[tuple[int, ...], int]:
        """Outcome counts of `shots` uniform draws from the support.

        Draw i is the parameter with C-order index i in the box (the column
        `label_grid(self.moduli)[:, i]`), found without building the grid.
        """
        draws = rng.integers(self.support_size(), size=shots)
        if self.moduli:
            t = np.array(np.unravel_index(draws, self.moduli))
        else:
            t = np.zeros((0, shots), dtype=np.int64)
        return dict(Counter(map(tuple, self._points(t).T.tolist())))

    def check_invariants(self) -> None:
        """Self-checks used by the test suite: injectivity and periodicity."""
        points = self.support_points()
        if len(points) != len(set(points)):
            raise CosetSimulationError("parameterization is not injective")
        for i, m in enumerate(self.moduli):
            if any(
                (m * c) % n != 0
                for c, n in zip(self.columns[i], self._chars())
            ):
                raise CosetSimulationError("modulus does not annihilate its column")
            for t in ([0] * self.num_params, [1] * self.num_params):
                bumped = list(t)
                bumped[i] += m
                if self.phase_exponent(bumped) != self.phase_exponent(t):
                    raise CosetSimulationError("phase polynomial not box-periodic")


def coset_run(circuit: NormalizerCircuit, input_element: GroupElement) -> CosetPhaseState:
    """Run a finite, fully de-black-boxed circuit in the structured picture."""
    trace = circuit.validate()
    if any(b.blackbox is not None for b in trace):
        raise CosetSimulationError("de-black-box the circuit first")
    if any(not b.is_finite for b in trace):
        raise CosetSimulationError("structured simulation handles finite groups")
    state = CosetPhaseState.basis_state(input_element)
    if input_element.group != circuit.initial_basis.elementary:
        raise CosetSimulationError("input element is not in the initial basis")
    for gate in circuit.gates:
        if isinstance(gate, QFTGate):
            for register in gate.registers:
                state.apply_qft(register)
        elif isinstance(gate, AutomorphismGate):
            if gate.is_black_box:
                raise CosetSimulationError(f"gate {gate.name!r} is not in normal form")
            state.apply_automorphism(gate.rep)
        elif isinstance(gate, QuadraticGate):
            if gate.is_black_box:
                raise CosetSimulationError(f"gate {gate.name!r} is not in normal form")
            state.apply_quadratic(gate.form)
        else:
            raise CosetSimulationError(f"unknown gate {type(gate).__name__}")
    return state


def states_equal_up_to_global_phase(
    dense_amplitudes: np.ndarray, coset_state: CosetPhaseState, tol: float = 1e-9
) -> bool:
    """Oracle comparison: same ray in Hilbert space, exact support match."""
    expansion = coset_state.dense_amplitudes()
    reference = np.argmax(np.abs(dense_amplitudes))
    ref_value = dense_amplitudes.reshape(-1)[reference]
    coset_value = expansion.reshape(-1)[reference]
    if abs(coset_value) < tol:
        return False
    ratio = ref_value / coset_value
    if abs(abs(ratio) - 1.0) > tol:
        return False
    return bool(np.allclose(dense_amplitudes, ratio * expansion, atol=tol))
