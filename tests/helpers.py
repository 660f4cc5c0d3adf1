"""Shared test fixtures: random valid gates, circuits and groups."""

from fractions import Fraction
import math

from normsim.circuits import (
    AutomorphismGate,
    DesignatedBasis,
    MatrixRep,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
    QuadraticForm,
    validate_matrix_rep,
    validate_quadratic,
)
from normsim.groups import ElementaryGroup, cyclic, cyclic_group
from normsim.linalg import identity_matrix, mat_mul


def random_finite_group(rng, max_order=512, max_factors=4) -> ElementaryGroup:
    """Random product of cyclic factors with order below the bound."""
    moduli = []
    order = 1
    count = int(rng.integers(1, max_factors + 1))
    for _ in range(count):
        n = int(rng.integers(2, 13))
        if order * n > max_order:
            break
        moduli.append(n)
        order *= n
    if not moduli:
        moduli = [int(rng.integers(2, max_order + 1))]
    return cyclic_group(*moduli)


def random_matrix_rep(group: ElementaryGroup, rng, shears: int = 6) -> MatrixRep:
    """Random automorphism: a word in shears, diagonal units and swaps.

    Every factor in the word is individually a valid automorphism, so the
    product always validates; no rejection sampling needed.
    """
    moduli = [f.modulus for f in group.factors]
    m = len(moduli)
    matrix = identity_matrix(m)
    for _ in range(shears):
        kind = int(rng.integers(3)) if m > 1 else 2
        if kind == 0:  # shear: row i gains a valid multiple of row j
            i, j = rng.choice(m, size=2, replace=False)
            i, j = int(i), int(j)
            step = moduli[i] // math.gcd(moduli[i], moduli[j])
            shear = identity_matrix(m)
            shear[i][j] = step * int(rng.integers(1, max(2, moduli[i] // step + 1)))
            matrix = mat_mul(shear, matrix)
        elif kind == 1:  # swap two factors of equal order
            candidates = [
                (i, j)
                for i in range(m)
                for j in range(i + 1, m)
                if moduli[i] == moduli[j]
            ]
            if candidates:
                i, j = candidates[int(rng.integers(len(candidates)))]
                swap = identity_matrix(m)
                swap[i][i] = swap[j][j] = 0
                swap[i][j] = swap[j][i] = 1
                matrix = mat_mul(swap, matrix)
        else:  # unit scaling of one factor
            i = int(rng.integers(m))
            units = [u for u in range(1, moduli[i]) if math.gcd(u, moduli[i]) == 1]
            scale = identity_matrix(m)
            scale[i][i] = units[int(rng.integers(len(units)))]
            matrix = mat_mul(scale, matrix)
    return validate_matrix_rep(matrix, group)


def random_quadratic_form(group: ElementaryGroup, rng) -> QuadraticForm:
    moduli = [f.modulus for f in group.factors]
    m = len(moduli)
    entries = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        entries[i][i] = Fraction(int(rng.integers(moduli[i])), moduli[i])
        for j in range(i + 1, m):
            g = math.gcd(moduli[i], moduli[j])
            value = Fraction(int(rng.integers(g)), g)
            entries[i][j] = entries[j][i] = value
    v = [Fraction(int(rng.integers(n)), n) for n in moduli]
    return validate_quadratic(entries, v, group)


def random_circuit(
    group: ElementaryGroup, rng, gate_count: int = 10
) -> NormalizerCircuit:
    basis = DesignatedBasis(group)
    gates = []
    for _ in range(gate_count):
        kind = int(rng.integers(3))
        if kind == 0:
            count = int(rng.integers(1, len(group.factors) + 1))
            registers = tuple(
                int(r) for r in rng.choice(len(group.factors), size=count, replace=False)
            )
            gates.append(QFTGate(registers))
        elif kind == 1:
            gates.append(AutomorphismGate(rep=random_matrix_rep(group, rng)))
        else:
            gates.append(QuadraticGate(form=random_quadratic_form(group, rng)))
    return NormalizerCircuit(basis, gates)


def table_entries(table) -> tuple:
    """(c, beta, A, B) of a decomposition table, for entry-by-entry comparison."""
    return table.c, table.beta, table.a, table.b


def certify_pairwise(domain: ElementaryGroup, oracle) -> bool:
    """Reference coset-promise check, O(|G|^2): f(g + h) = f(r(g) + r(h))
    for every pair, with r(x) the first preimage of f(x) in enumeration
    order.  This is the test OracularGroup.certify_homomorphism replaces."""
    representative = {}
    for el in domain.elements():
        representative.setdefault(oracle(el.coords), el)
    for g in domain.elements():
        rg = representative[oracle(g.coords)]
        for h in domain.elements():
            rh = representative[oracle(h.coords)]
            if oracle((g + h).coords) != oracle((rg + rh).coords):
                return False
    return True


def is_coset_labeling(domain: ElementaryGroup, oracle) -> bool:
    """Ground truth: every level set of f is g + H with H = f^-1(f(0))."""
    elements = list(domain.elements())
    hidden = [h for h in elements if oracle(h.coords) == oracle(domain.identity().coords)]
    for g in elements:
        level = {x for x in elements if oracle(x.coords) == oracle(g.coords)}
        if level != {g + h for h in hidden}:
            return False
    return True
