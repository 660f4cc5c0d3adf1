"""Structured simulation of finite normalizer circuits.

A state is kept as a uniform-magnitude superposition over a coset with a
quadratic phase profile:

    |psi>  ~  sum_t  exp(2 pi i q(t)) |x0 + P t>

where t runs over a box Z_{m_1} x ... x Z_{m_k} of parameters, P maps
parameters to group coordinates injectively, and q is an exact rational
quadratic polynomial, held as integer numerators over one denominator
D = 2 lcm(chars).  Automorphism gates push P and x0 forward, quadratic
gates add to q, and a partial QFT introduces one fresh parameter and rewires
one coordinate row.

The QFT step temporarily breaks injectivity; restoring it is the only
nontrivial update.  P was injective before the QFT on register j, so the
collisions it opens form K = {t : (P t)_i = 0 for i != j}, which embeds in
Z_n through t -> (P t)_j and is therefore cyclic.  An old row j of zeros
means K = 0 and costs nothing; otherwise one linear solve over the other
m - 1 rows finds K and one generator w of it is integrated out.  Summing
the phase over w, of order nu, is a quadratic Gauss sum over Z_nu, and two
classical facts about such sums drive the reduction:

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
    _scaled_numerators,
    label_grid,
)
from .groups import ElementaryGroup, GroupElement
from .linalg import GroupLinearSystem, extended_gcd, finite_presentation, solve_group_system


class CosetSimulationError(ValueError):
    pass


def _combine(columns, weights) -> list[int]:
    """sum_i weights[i] columns[i], entry by entry."""
    return [sum(map(mul, weights, row)) for row in zip(*columns)]


def _uniform_below(bound: int, rng) -> int:
    """An exact uniform integer in [0, bound): bound.bit_length() random bits,
    taken from 63-bit limbs and drawn again until they fall below bound."""
    bits = bound.bit_length()
    limbs = -(-bits // 63)
    while True:
        value = 0
        for limb in rng.integers(0, 1 << 63, size=limbs, dtype=np.uint64).tolist():
            value = value << 63 | limb
        value >>= 63 * limbs - bits
        if value < bound:
            return value


def _unravel(index: int, moduli) -> list[int]:
    """The C-order coordinates of `index` in the box of the given moduli."""
    coords = []
    for m in reversed(moduli):
        index, coord = divmod(index, m)
        coords.append(coord)
    return coords[::-1]


def _pull_back(quad, lin, shift, columns) -> tuple[list[list[int]], list[int]]:
    """Quadratic and linear terms of x quad x + lin x at x = shift + P t, P
    with the given columns: P^T quad P and P^T (2 quad shift + lin).  quad is
    symmetric; the constant term is a global phase and is dropped."""
    quad_columns = [[sum(map(mul, row, column)) for row in quad] for column in columns]
    slope = [2 * sum(map(mul, row, shift)) + value for row, value in zip(quad, lin)]
    return (
        [[sum(map(mul, column, other)) for other in quad_columns] for column in columns],
        [sum(map(mul, column, slope)) for column in columns],
    )


@dataclass
class CosetPhaseState:
    """Coset support x0 + span(P) with a quadratic phase over the parameters.

    The phase is q(t) = (t quad t + lin t)/D mod 1 with integer quad and lin
    over the one denominator D = 2 lcm(chars): every term a gate adds has a
    denominator dividing D.
    """

    group: ElementaryGroup
    shift: list[int]
    columns: list[list[int]]  # generator columns of P, length-m each
    moduli: list[int]  # parameter box; moduli[i] annihilates columns[i]
    quad: list[list[int]]  # symmetric parameter quadratic, over D
    lin: list[int]  # over D

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

    @property
    def denominator(self) -> int:
        """D = 2 lcm(chars), the denominator of quad and lin."""
        return 2 * math.lcm(*self.group.chars)

    def support_size(self) -> int:
        return math.prod(self.moduli) if self.moduli else 1

    def _reduce_coords(self, coords) -> list[int]:
        return [c % n for c, n in zip(coords, self.group.chars)]

    def phase_exponent(self, t) -> Fraction:
        """q(t) = (t quad t + lin t)/D mod 1 at one parameter vector t."""
        grid = np.reshape(t, (len(t), 1))
        k, d = _scaled_numerators(self.quad, self.lin, self.denominator, grid)
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
        # q2(x0 + P t) = ((x0 + P t) A (x0 + P t) + b (x0 + P t))/d, rescaled to D.
        a, b, d = form.scaled
        scale, rest = divmod(self.denominator, d)
        if rest:
            raise CosetSimulationError(
                f"phase denominator {d} does not divide {self.denominator}"
            )
        quad, lin = _pull_back(a, b, self.shift, self.columns)
        self.quad = [
            [x + scale * y for x, y in zip(row, added)] for row, added in zip(self.quad, quad)
        ]
        self.lin = [x + scale * y for x, y in zip(self.lin, lin)]

    def apply_qft(self, register: int) -> None:
        n = self.group.factors[register].modulus
        half = self.denominator // (2 * n)
        old_row = [column[register] for column in self.columns]
        # Exponent polynomial gains (x0_j + (P t)_j) s / n before row j is
        # replaced by the fresh parameter s.
        row = [value * half for value in old_row]
        for quad_row, value in zip(self.quad, row):
            quad_row.append(value)
        self.quad.append(row + [0])
        self.lin.append(self.shift[register] * 2 * half)
        for column in self.columns:
            column[register] = 0
        fresh = [0] * len(self.group.factors)
        fresh[register] = 1
        self.columns.append(fresh)
        self.moduli.append(n)
        self.shift[register] = 0
        if any(value % n for value in old_row):
            w = self._collision_generator(register, old_row)
            if w is not None:
                self._integrate_out(w + [0])

    # -- injectivity restoration -------------------------------------------------

    def _collision_generator(self, register: int, old_row: list[int]) -> list[int] | None:
        """A generator of the parameter kernel the QFT on `register` opened,
        or None when it is trivial.

        The old parameterization P was injective, so the kernel is
        K = {t : (P t)_i = 0 for i != j} with the fresh parameter at 0, and
        t -> (P t)_j embeds K in Z_n: K is cyclic, and w generates it when
        gcd((P w)_j, n) is the gcd of n and every generator's value."""
        n = self.group.factors[register].modulus
        chars = self.group.chars
        old, box = self.columns[:-1], self.moduli[:-1]
        others = [i for i in range(len(chars)) if i != register]
        rows = [[column[i] for column in old] for i in others]
        moduli = [chars[i] for i in others]
        solved = solve_group_system(GroupLinearSystem(rows, [0] * len(rows), moduli, len(old)))
        if solved is None:
            raise CosetSimulationError("homogeneous system cannot be infeasible")
        kernel = []
        for gen in solved[1]:
            reduced = [g % mod for g, mod in zip(gen, box)]
            if any(reduced):
                kernel.append(reduced)
        if not kernel:
            return None
        values = [sum(map(mul, old_row, gen)) % n for gen in kernel]
        w, value = kernel[0], values[0]
        if math.gcd(value, n) == math.gcd(n, *values):
            return w
        for gen, other in zip(kernel[1:], values[1:]):
            value, a, b = extended_gcd(value, other)
            w = [a * x + b * y for x, y in zip(w, gen)]
        return [x % mod for x, mod in zip(w, box)]

    def _integrate_out(self, w: list[int]) -> None:
        """Collapse the collision direction w, keeping one representative per
        group point and folding the collision Gauss sum into the phase.

        The phase quantities (qw, a0, b0, step, theta) are integer numerators
        over D, like quad and lin."""
        big_d = self.denominator
        nu = 1
        for wi, mi in zip(w, self.moduli):
            if wi:
                nu = math.lcm(nu, mi // math.gcd(mi, wi))
        qw = [sum(map(mul, row, w)) for row in self.quad]
        a0 = sum(map(mul, w, qw))
        b0 = sum(map(mul, self.lin, w))
        step = 2 * a0  # Gauss-sum recurrence step in the character offset
        reduced = math.gcd(step, big_d)
        delta = big_d // reduced  # the denominator of step/D
        if nu % delta != 0:
            raise CosetSimulationError("phase polynomial is not box-periodic")

        # Support condition: delta * theta(t) + delta^2 a0 + delta b0 in Z,
        # with theta(t) = 2 (q w) . t; one congruence mod D.
        solved = solve_group_system(
            GroupLinearSystem(
                [[2 * delta * value for value in qw]],
                [-(delta * delta * a0 + delta * b0)],
                [big_d],
                self.num_params,
            )
        )
        if solved is None:
            raise CosetSimulationError("support condition infeasible: state vanished")
        t_star, j0 = solved
        t_star = [v % m for v, m in zip(t_star, self.moduli)]

        # Present the support subgroup modulo <w>: relations among its
        # generators z with J0 z = tau w (mod the box) form a lattice whose
        # Smith presentation yields an injective reparameterization.
        r = len(j0)
        relation_rows = [[gen[i] for gen in j0] + [-w[i]] for i in range(len(w))]
        rel_solved = solve_group_system(
            GroupLinearSystem(relation_rows, [0] * len(w), list(self.moduli), r + 1)
        )
        if rel_solved is None:
            raise CosetSimulationError("relation system cannot be infeasible")
        presentation = finite_presentation([gen[:r] for gen in rel_solved[1]], r)
        if presentation is None:
            raise CosetSimulationError("support presentation is not finite")
        snf, keep, new_moduli = presentation
        # Columns of J = J0 U give the new parameter directions in old
        # parameter coordinates; their orders are the Smith diagonal.
        j_columns = [_combine(j0, [row[i] for row in snf.u]) for i in keep]

        # lam_a: the character offset that direction J e_a moves, counted in
        # recurrence steps.
        alpha_inv = pow(step // reduced % delta, -1, delta)
        lam = []
        for column in j_columns:
            value, rest = divmod(alpha_inv * delta * 2 * sum(map(mul, qw, column)), big_d)
            if rest:
                raise CosetSimulationError("support direction breaks the grid")
            lam.append(value)

        # New quadratic data: pull back through t = t_star + J t'' and add the
        # Gauss-sum correction -lam (theta* + b0) - a0 lam lam, where
        # step/2 = a0 has cancelled from the linear term.
        theta_star = 2 * sum(map(mul, qw, t_star))
        quad, lin = _pull_back(self.quad, self.lin, t_star, j_columns)
        self.quad = [
            [x - a0 * la * lb for x, lb in zip(row, lam)] for row, la in zip(quad, lam)
        ]
        self.lin = [x - (theta_star + b0) * la for x, la in zip(lin, lam)]

        # Push the particular solution into the shift and install everything.
        self.shift = self._reduce_coords(_combine([self.shift, *self.columns], [1, *t_star]))
        self.columns = [
            self._reduce_coords(_combine(self.columns, column)) for column in j_columns
        ]
        self.moduli = new_moduli

    # -- outputs ------------------------------------------------------------------

    def _points(self, t: np.ndarray) -> np.ndarray:
        """Group points x0 + P t (mod the characteristics), one column per column of t.

        Entries of x0, P and t lie below the characteristics and the box, so
        int64 is exact while max(chars) (1 + k max(moduli)) < 2^63; past that
        the points are Python integers in an object array."""
        chars = self.group.chars
        bound = max(chars, default=0) * (1 + self.num_params * max(self.moduli, default=0))
        dtype = np.int64 if bound < 1 << 63 else object
        p = np.array(self.columns, dtype=dtype).reshape(self.num_params, len(chars)).T
        shift = np.array(self.shift, dtype=dtype)[:, None]
        return (shift + p @ np.asarray(t, dtype=dtype)) % np.array(chars, dtype=dtype)[:, None]

    def support_points(self) -> list[tuple[int, ...]]:
        points = self._points(label_grid(self.moduli))
        return [tuple(point) for point in points.T.tolist()]

    def distribution(self) -> dict[tuple[int, ...], Fraction]:
        size = self.support_size()
        return {point: Fraction(1, size) for point in self.support_points()}

    def dense_amplitudes(self) -> np.ndarray:
        """Complex expansion over the full group, for oracle comparisons."""
        chars = self.group.chars
        t = label_grid(self.moduli)
        k, d = _scaled_numerators(self.quad, self.lin, self.denominator, t)
        norm = 1 / math.sqrt(self.support_size())
        out = np.zeros(math.prod(chars), dtype=np.complex128)
        flat = np.ravel_multi_index(self._points(t), chars).reshape(-1)
        np.add.at(out, flat, norm * np.exp(2j * np.pi * (k / d)))
        return out.reshape(chars)

    def sample(self, shots: int, rng) -> dict[tuple[int, ...], int]:
        """Outcome counts of `shots` uniform draws from the support.

        Draw i is the parameter with C-order index i in the box (the column
        `label_grid(self.moduli)[:, i]`), found without building the grid.
        Indices come from one `rng.integers` call while the support has
        fewer than 2^63 points, and one exact Python integer each past that.
        """
        size = self.support_size()
        if size >= 1 << 63:
            t = np.empty((self.num_params, shots), dtype=object)
            for shot in range(shots):
                t[:, shot] = _unravel(_uniform_below(size, rng), self.moduli)
        else:
            draws = rng.integers(size, size=shots)
            if self.moduli:
                t = np.array(np.unravel_index(draws, self.moduli))
            else:
                t = np.zeros((0, shots), dtype=np.int64)
        return dict(Counter(map(tuple, self._points(t).T.tolist())))


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
        elif gate.is_black_box:
            raise CosetSimulationError(f"gate {gate.name!r} is not in normal form")
        elif isinstance(gate, AutomorphismGate):
            state.apply_automorphism(gate.rep)
        else:
            state.apply_quadratic(gate.form)
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
