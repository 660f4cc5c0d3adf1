"""Shared test fixtures: random valid gates, circuits and groups, and the
reference implementations (Fraction formulas, class-wise map comparison,
the per-factor `reduce`, the closure-based hidden-subgroup loop, the
per-label dense black-box gates, the per-register DFT-matrix QFT, the
Smith-form integer solve and the double-Hermite group-system solve built on
it, the Leibniz determinant and
the brute-force bijectivity test of a finite block, the exhaustive
quadratic-law check, the Fraction continued fraction, the checked-`mul` order loop, the
bridge decode of the multivariate discrete log,
the breadth-first Cayley walk, `Generator.choice` sampling, GroupElement
products on an oracle's representatives, the word-table route of the
decomposition kernel and the gate-by-gate dense run without its
closed-form Fourier opening) that the library is checked against, plus
what only tests use: the invariants of a coset state, its phase at one
parameter vector, the torus distance to the nearest peak, and the list of
every subgroup of a small group."""

from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
import itertools
import math
from operator import mul

import numpy as np

from normsim import algorithms, dense
from normsim.blackbox import (
    DEFAULT_ORDER_CAP,
    BlackBoxError,
    DecompositionTable,
    ZNStarGroup,
    bb_order,
)
from normsim.circuits import (
    AutomorphismGate,
    CircuitError,
    DesignatedBasis,
    MatrixRep,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
    QuadraticForm,
    label_grid,
    validate_matrix_rep,
    validate_quadratic,
    word_exp_func,
)
from normsim.config import DEFAULT_DENSE_CAP
from normsim.coset import _scaled_numerators
from normsim.deblackbox import EncodingBridge, ExtractionError
from normsim.groups import T, Z, ElementaryGroup, GroupElement, GroupError, cyclic, cyclic_group
from normsim.linalg import (
    GroupLinearSystem,
    hermite_reduce,
    identity_matrix,
    mat_mul,
    smith_normal_form,
    solve_group_system,
)


# Circuit documents that reading must reject: a bad QFT direction or register,
# two gate keys in one entry, an initial basis that is not the elementary
# group with some Z registers relabelled T, and a header without elementary.
MALFORMED_CIRCUIT_DOCS = [
    {"group": {"elementary": "Z x Z2"}, "gates": [{"qft": [0], "over": "bogus"}]},
    {"group": {"elementary": "Z2"}, "gates": [{"qft": [0], "over": "finite"}]},
    {"group": {"elementary": "Z2"}, "gates": [{"qft": [0.7]}]},
    {"group": {"elementary": "Z2 x Z2"}, "gates": [{"qft": "1"}]},
    {"group": {"elementary": "Z2 x Z2"}, "gates": [{"qft": [True]}]},
    {
        "group": {"elementary": "Z2"},
        "gates": [{"automorphism": {"matrix": [["1"]]}, "qft": [0]}],
    },
    {"group": {"elementary": "Z2"}, "initial_basis": "T x Z9", "gates": []},
    {"group": {"elementary": "T"}, "gates": []},
    {"group": {}, "initial_basis": "Z2", "gates": []},
]

_ZN7 = {"elementary": "Z2", "blackbox": {"type": "zn_star", "N": 7}}
_ONE = {"matrix": [["1"]]}

# Documents with a key that no circuit file holds or a field of the wrong
# type, each with the message that names it.
FIELD_ERROR_DOCS = [
    (
        {"group": {"elementary": "Z2"}, "gates": [{"qft": [0], "ovr": "T"}]},
        "gate 0: the qft entry has unknown keys ['ovr']",
    ),
    (
        {"group": {"elementary": "Z2"}, "gates": [{"automorphism": _ONE, "over": "T"}]},
        "gate 0: the automorphism entry has unknown keys ['over']",
    ),
    (
        {"group": {"elementary": "Z2"}, "gates": [{"automorphism": {**_ONE, "over": "T"}}]},
        "gate 0: the automorphism payload has unknown keys ['over']",
    ),
    (
        {"group": {"elementary": "Z2"}, "gates": [{"automorphism": [["1"]]}]},
        "gate 0: the automorphism payload must be an object, got list",
    ),
    (
        {"group": {"elementary": "Z2"}, "gates": [{"automorphism": {"matrix": 3}}]},
        "gate 0: the automorphism matrix must be a list, got int",
    ),
    (
        {"group": {"elementary": "Z2"}, "gates": [{"quadratic": {"M": [["0"]], "v": [], "w": []}}]},
        "gate 0: the quadratic payload has unknown keys ['w']",
    ),
    (
        {"group": {"elementary": "Z2"}, "gates": [{"quadratic": {"M": [["0"]]}}]},
        "gate 0: the quadratic payload lacks keys ['v']",
    ),
    (
        {"group": _ZN7, "gates": [{"bb_automorphism": {"name": "word_exp", "bases": "3"}}]},
        "gate 0: word_exp bases must be a list, got str",
    ),
    (
        {"group": _ZN7, "gates": [{"bb_automorphism": {"name": "word_exp", "bases": [3]}}]},
        "gate 0: a black-box element must be a string, got 3",
    ),
    (
        {"group": _ZN7, "gates": [{"bb_automorphism": {"name": "word_exp", "bases": [], "n": 1}}]},
        "gate 0: the bb_automorphism payload has unknown keys ['n']",
    ),
    (
        {"group": {"elementary": "Z2"}, "gates": ["qft"]},
        "gate 0: a gate entry must be an object, got str",
    ),
    (
        {"group": {"elementary": "Z2"}, "gates": 3},
        "bad circuit header: gates must be a list, got int",
    ),
    (
        {"group": {"elementary": "Z2"}, "gates": [], "title": "x"},
        "bad circuit header: the circuit file has unknown keys ['title']",
    ),
    ([], "bad circuit header: the circuit file must be an object, got list"),
    (
        {"group": {"elementary": "Z2", "blackbox": None, "order": 2}, "gates": []},
        "bad circuit header: the group has unknown keys ['order']",
    ),
    (
        {"group": {**_ZN7, "blackbox": {"type": "zn_star", "N": 7, "g": 3}}, "gates": []},
        "bad circuit header: the zn_star descriptor has unknown keys ['g']",
    ),
    (
        {"group": {"elementary": "Z2", "blackbox": {"type": "ec", "p": 5, "a": 1}}, "gates": []},
        "bad circuit header: the ec descriptor lacks keys ['b']",
    ),
    (
        {"group": {"elementary": "Z2", "blackbox": {"type": "zn_star", "N": "7"}}, "gates": []},
        "bad circuit header: the zn_star descriptor: N must be an integer, got '7'",
    ),
    (
        {"group": _ZN7, "gates": [{"bb_automorphism": {"name": "word_exp", "bases": ["x"]}}]},
        "gate 0: malformed element 'x': a unit is a decimal integer",
    ),
    (
        {
            "group": {"elementary": "Z2", "blackbox": {"type": "ec", "p": 5, "a": 1, "b": 1}},
            "gates": [{"bb_automorphism": {"name": "word_exp", "bases": ["4"]}}],
        },
        "gate 0: malformed element '4': a curve point is x,y in decimal integers, or O",
    ),
]
MALFORMED_CIRCUIT_DOCS += [doc for doc, _ in FIELD_ERROR_DOCS]


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
            units = [u for u in range(1, moduli[i]) if math.gcd(u, moduli[i]) == 1] or [1]
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


def random_mixed_group(rng, max_factors=4) -> ElementaryGroup:
    """Random product of Z, T and cyclic factors, in random order."""
    factors = []
    for _ in range(int(rng.integers(1, max_factors + 1))):
        kind = int(rng.integers(3))
        factors.append(Z if kind == 0 else T if kind == 1 else cyclic(int(rng.integers(2, 13))))
    return ElementaryGroup(factors)


def _random_rational(rng, huge: bool) -> Fraction:
    """Small rational, or one with a numerator beyond int64 when `huge`."""
    numerator = int(rng.integers(-40, 41))
    if huge:
        numerator = numerator * (1 << 65) + 1
    return Fraction(numerator, int(rng.integers(1, 13)))


def random_mixed_quadratic_form(group: ElementaryGroup, rng, huge=False) -> QuadraticForm:
    """Random valid (M, v) on a group mixing Z, T and cyclic factors; with
    `huge`, the rational entries on Z factors get numerators beyond int64."""
    factors = group.factors
    m = len(factors)
    entries = [[Fraction(0)] * m for _ in range(m)]
    for i, fi in enumerate(factors):
        for j in range(i, m):
            kinds = {fi.kind, factors[j].kind}
            if "T" in kinds:
                # T-T and finite-T entries vanish; Z-T entries are integers.
                value = Fraction(int(rng.integers(-5, 6))) if kinds == {"Z", "T"} else Fraction(0)
            elif kinds == {"Z"}:
                value = _random_rational(rng, huge)
            else:
                divisor = math.gcd(*(f.modulus for f in (fi, factors[j]) if f.kind == "cyclic"))
                value = Fraction(int(rng.integers(-3 * divisor, 3 * divisor)), divisor)
            entries[i][j] = entries[j][i] = value
    v = []
    for factor in factors:
        if factor.kind == "T":
            v.append(Fraction(int(rng.integers(-5, 6))))
        elif factor.kind == "cyclic":
            v.append(Fraction(int(rng.integers(factor.modulus)), factor.modulus))
        else:
            v.append(_random_rational(rng, huge))
    return validate_quadratic(entries, v, group)


def _unimodular(size: int, rng) -> list[list[int]]:
    """Lower times upper unitriangular integer matrix, diagonal signs random."""
    lower = identity_matrix(size)
    upper = identity_matrix(size)
    for i in range(size):
        upper[i][i] = 1 if rng.integers(2) else -1
        for j in range(i):
            lower[i][j] = int(rng.integers(-2, 3))
            upper[j][i] = int(rng.integers(-2, 3))
    return mat_mul(lower, upper)


def random_mixed_matrix_rep(group: ElementaryGroup, rng) -> MatrixRep:
    """Random automorphism of a group mixing Z, T and cyclic factors.

    In the order Z, finite, T the matrix is block lower triangular with
    invertible diagonal blocks (unimodular on Z and T, a random_matrix_rep
    on the finite part), so it always validates.
    """
    factors = group.factors
    m = len(factors)
    z_idx = [i for i, f in enumerate(factors) if f.kind == "Z"]
    f_idx = [i for i, f in enumerate(factors) if f.kind == "cyclic"]
    t_idx = [i for i, f in enumerate(factors) if f.kind == "T"]
    matrix = [[Fraction(0)] * m for _ in range(m)]
    for idx in (z_idx, t_idx):
        block = _unimodular(len(idx), rng)
        for r, i in enumerate(idx):
            for c, j in enumerate(idx):
                matrix[i][j] = Fraction(block[r][c])
    if f_idx:
        finite = random_matrix_rep(cyclic_group(*(factors[i].modulus for i in f_idx)), rng)
        for r, i in enumerate(f_idx):
            for c, j in enumerate(f_idx):
                matrix[i][j] = finite.matrix[r][c]
            for j in z_idx:
                matrix[i][j] = Fraction(int(rng.integers(-20, 21)))
    for i in t_idx:
        for j in z_idx:
            matrix[i][j] = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 13)))
        for j in f_idx:
            matrix[i][j] = Fraction(int(rng.integers(factors[j].modulus)), factors[j].modulus)
    return validate_matrix_rep(matrix, group)


def random_mixed_element(group: ElementaryGroup, rng, huge=False):
    """Random element; Z coordinates beyond int64 when `huge`."""
    coords = []
    for factor in group.factors:
        if factor.kind == "T":
            coords.append(Fraction(int(rng.integers(-100, 101)), int(rng.integers(1, 60))))
        elif factor.kind == "Z":
            value = int(rng.integers(-30, 31))
            coords.append(value * (1 << 66) + 7 if huge else value)
        else:
            coords.append(int(rng.integers(-50, 51)))
    return group.reduce(coords)


def reference_exponent(form: QuadraticForm, el) -> Fraction:
    """q(g) = (gMg + Cg + 2vg)/2 mod 1 summed in Fraction: the reference for
    the integer evaluation of QuadraticForm.exponent."""
    g = el.coords
    quad = sum(g[i] * form.m[i][j] * g[j] for i in range(len(g)) for j in range(len(g)))
    linear = sum(ci * gi for ci, gi in zip(form.c, g))
    cross = sum(2 * vi * gi for vi, gi in zip(form.v, g))
    return Fraction(quad + linear + cross) / 2 % 1


def assert_quadratic_law(form: QuadraticForm) -> None:
    """xi(g+h) = xi(g) xi(h) B(g,h) at every pair of elements of a finite group."""
    elements = list(form.group.elements())
    for g in elements:
        for h in elements:
            lhs = form.exponent(g + h)
            rhs = form.exponent(g) + form.exponent(h) + reference_bilinear_exponent(form, g, h)
            assert lhs == rhs % 1, f"quadratic law fails at {g}, {h}"


def reference_bilinear_exponent(form: QuadraticForm, g, h) -> Fraction:
    """g M h mod 1 summed in Fraction."""
    total = sum(
        g.coords[i] * form.m[i][j] * h.coords[j]
        for i in range(len(g.coords))
        for j in range(len(h.coords))
    )
    return Fraction(total) % 1


def leibniz_det(a) -> int:
    """Determinant as the signed sum over permutations of the products
    a[0][p(0)] ... a[n-1][p(n-1)]; 1 for the empty matrix."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


def reference_is_bijective(block, moduli) -> bool:
    """Whether x -> A x mod N permutes Z_{N_1} x ... x Z_{N_k}, by listing
    the image of every point."""
    images = {
        tuple(sum(map(mul, row, x)) % n for row, n in zip(block, moduli))
        for x in itertools.product(*(range(n) for n in moduli))
    }
    return len(images) == math.prod(moduli)


def reference_reduce(group: ElementaryGroup, coords) -> tuple:
    """`group.reduce(coords).coords` through `Factor.reduce_coord` on every
    coordinate, with reduce's length check and message."""
    if len(coords) != len(group.factors):
        raise GroupError(f"expected {len(group.factors)} coordinates, got {len(coords)}")
    return tuple(f.reduce_coord(c) for f, c in zip(group.factors, coords))


def reference_apply(rep: MatrixRep, el):
    """The matrix times the coordinates in Fraction, then group.reduce."""
    coords = [sum(row[j] * el.coords[j] for j in range(len(row))) for row in rep.matrix]
    return rep.group.reduce(coords)


def reference_equals_as_map(a: MatrixRep, b: MatrixRep) -> bool:
    """Entry-by-entry class comparison, the test MatrixRep.equals_as_map
    replaced: T-to-T entries and entries into Z exactly, every other entry
    modulo its target factor's characteristic."""
    if a.group != b.group:
        return False
    factors = a.group.factors
    for i, target in enumerate(factors):
        for j, source in enumerate(factors):
            x, y = a.matrix[i][j], b.matrix[i][j]
            if (source.kind == "T" and target.kind == "T") or target.char == 0:
                if x != y:
                    return False
            elif (x - y) % target.char != 0:
                return False
    return True


def solve_hsp_reference(instance, rng, rounds: int = 16, max_batches: int = 8):
    """The batch loop solve_hsp replaced: every batch solves the congruence
    system of the samples so far and enumerates the estimated subgroup, and
    sampling stops once two consecutive estimates are equal.  It returns the
    previous batch's generators, with the same log keys solve_hsp reads."""
    group = instance.group
    oracular = algorithms.OracularGroup(group, instance.oracle)
    if not oracular.certify_homomorphism():
        raise algorithms.HSPError("oracle does not hide a subgroup")
    circuit = algorithms.hsp_circuit(instance, oracular)
    state = algorithms.dense_run(circuit, group.identity().coords + (oracular.identity(),))
    moduli = [f.modulus for f in group.factors]
    d = math.lcm(*moduli)
    samples: list = []
    estimate = None
    estimate_gens: list = []
    for batch in range(max_batches):
        samples.extend(algorithms._sample_outcomes(state, rounds, rng, len(moduli)))
        raw_rows = [[y[j] * (d // moduli[j]) for j in range(len(moduli))] for y in set(samples)]
        wraps = [[d if i == j else 0 for j in range(len(moduli))] for i in range(len(moduli))]
        rows = hermite_reduce(raw_rows + wraps)
        system = GroupLinearSystem(rows, [0] * len(rows), [d] * len(rows), len(moduli))
        _, kernel = solve_group_system(system)
        gens = [g for g in map(group.reduce, kernel) if not g.is_identity()]
        current = algorithms.HSPRun(domain=group, generators=gens).subgroup_elements()
        if estimate is not None and current == estimate:
            log = {"samples": samples, "batches": batch + 1}
            return algorithms.HSPRun(domain=group, generators=estimate_gens, log=log)
        estimate = current
        estimate_gens = gens
    raise algorithms.HSPError(f"estimate did not stabilize after {max_batches} batches")


def reference_phase_exponent(quad, lin, t) -> Fraction:
    """t quad t + lin t mod 1 by a Fraction double loop."""
    total = Fraction(0)
    for i, ti in enumerate(t):
        total += lin[i] * ti
        for j, tj in enumerate(t):
            total += quad[i][j] * ti * tj
    return total % 1


def phase_exponent(state, t) -> Fraction:
    """A `CosetPhaseState`'s q(t) = (t quad t + lin t)/D mod 1 at one
    parameter vector t."""
    grid = np.reshape(t, (len(t), 1))
    k, d = _scaled_numerators(state.quad, state.lin, state.denominator, grid)
    return Fraction(int(k[0]), d)


def reference_sample(state, shots: int, rng) -> dict:
    """CosetPhaseState.sample by indexing the whole parameter grid."""
    draws = rng.integers(state.support_size(), size=shots)
    points = state._points(label_grid(state.moduli)[:, draws])
    return dict(Counter(map(tuple, points.T.tolist())))


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


def all_subgroups(group: ElementaryGroup) -> list[set]:
    """Every subgroup of a finite group with at most three generators, each
    once, as its set of elements, in the order the generating sets are
    first met."""
    elements = list(group.elements())
    found = {}
    for size in range(0, 4):
        for subset in itertools.combinations(elements, size):
            closure = {group.identity()}
            frontier = [group.identity()]
            while frontier:
                current = frontier.pop()
                for gen in subset:
                    nxt = current + gen
                    if nxt not in closure:
                        closure.add(nxt)
                        frontier.append(nxt)
            found[frozenset(closure)] = closure
    return list(found.values())


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


def reference_point(state, flat_index: int) -> tuple:
    """DenseState.point one label at a time: unravel, then the bb label."""
    index = [i.item() for i in np.unravel_index(flat_index, state.amplitudes.shape)]
    n = len(state.basis.elementary.factors)
    point = tuple(index[:n])
    if state.bb_labels is not None:
        point = point + (state.bb_labels[index[n]],)
    return point


def reference_flat_index(state, point) -> int:
    """DenseState.flat_index one point at a time: make_point, then ravel."""
    point = state.basis.make_point(point)
    n = len(state.basis.elementary.factors)
    index = list(point[:n])
    if state.bb_labels is not None:
        index.append(state.bb_labels.index(point[n]))
    return int(np.ravel_multi_index(index, state.amplitudes.shape))


def reference_qft(amplitudes: np.ndarray, registers) -> np.ndarray:
    """The dense QFT gate as one DFT matrix exp(2 pi i x y / n) / sqrt(n) per
    register, contracted into that register's axis."""
    for r in registers:
        n = amplitudes.shape[r]
        x = np.arange(n)
        dft = np.exp(2j * np.pi * np.outer(x, x) / n) / np.sqrt(n)
        amplitudes = np.moveaxis(np.tensordot(dft, amplitudes, axes=([1], [r])), 0, r)
    return amplitudes


def reference_black_box_automorphism(state, gate) -> None:
    """The dense black-box automorphism, decoding and encoding label by label."""
    flat = state.amplitudes.reshape(-1)
    out = np.zeros_like(flat)
    support = np.flatnonzero(flat)
    targets = [
        reference_flat_index(state, gate.func(reference_point(state, i)))
        for i in support.tolist()
    ]
    np.add.at(out, targets, flat[support])
    state.amplitudes = out.reshape(state.amplitudes.shape)


def reference_black_box_phase(state, gate) -> None:
    """The dense black-box phase gate, one support label at a time."""
    flat = state.amplitudes.reshape(-1)
    for i in np.flatnonzero(flat).tolist():
        flat[i] *= np.exp(2j * np.pi * float(gate.func(reference_point(state, i))))
    state.amplitudes = flat.reshape(state.amplitudes.shape)


@contextmanager
def reference_black_box_gates(monkeypatch):
    """Within the block, the dense engine runs every black-box gate through
    the per-label reference loops above, a Fourier opening's `word_exp`
    included (the closed-form opening is switched off); normal-form gates
    are untouched."""
    apply_automorphism, apply_quadratic = dense._apply_automorphism, dense._apply_quadratic

    def automorphism(state, gate, grid):
        if gate.is_black_box:
            reference_black_box_automorphism(state, gate)
        else:
            apply_automorphism(state, gate, grid)

    def quadratic(state, gate, grid):
        if gate.is_black_box:
            reference_black_box_phase(state, gate)
        else:
            apply_quadratic(state, gate, grid)

    with monkeypatch.context() as m:
        m.setattr(dense, "_apply_automorphism", automorphism)
        m.setattr(dense, "_apply_quadratic", quadratic)
        m.setattr(dense, "_fourier_opening_label", lambda *args: None)
        yield


def dense_run_gatewise(circuit: NormalizerCircuit, input_point, cap: int | None = None):
    """dense_run with every gate applied one by one: each QFT as numpy's
    `ifftn` (not the engine's per-axis loop), `word_exp` on its nonzero
    support, and the norm check after every black-box automorphism."""
    cap = DEFAULT_DENSE_CAP if cap is None else cap
    trace = circuit.validate()
    if any(not b.is_finite for b in trace):
        raise CircuitError("dense simulation needs every register finite")
    state, _ = dense._initial_state(circuit.initial_basis, input_point, cap)
    grid = label_grid([f.modulus for f in circuit.initial_basis.elementary.factors])
    for gate in circuit.gates:
        if isinstance(gate, QFTGate):
            state.amplitudes = np.fft.ifftn(state.amplitudes, axes=gate.registers, norm="ortho")
        elif isinstance(gate, AutomorphismGate):
            dense._apply_automorphism(state, gate, grid)
            # Only a black-box callable can send two labels to one; every
            # other gate is unitary by construction.
            if gate.is_black_box:
                norm = state.norm()
                if abs(norm - 1.0) > 1e-9:
                    raise CircuitError(f"norm drifted to {norm}")
        elif isinstance(gate, QuadraticGate):
            dense._apply_quadratic(state, gate, grid)
        else:
            raise CircuitError(f"unknown gate type {type(gate).__name__}")
    return state


def reference_solve_integer_system(a, b, cols: int):
    """General solution (x0, Hermite kernel) of A x = b over Z for `cols`
    unknowns via the Smith normal form A = U D V, or None if infeasible:
    z = D^-1 U^-1 b where D is invertible, x0 = V^-1 z, and the columns of
    V^-1 at zero diagonal entries span the kernel."""
    rows = len(a)
    if rows == 0:
        return [0] * cols, identity_matrix(cols)
    snf = smith_normal_form(a)
    c = [sum(map(mul, row, b)) for row in snf.u_inv]
    diag = snf.diagonal
    z = [0] * cols
    free = []
    for i in range(cols):
        di = diag[i] if i < len(diag) else 0
        ci = c[i] if i < rows else 0
        if di == 0:
            if ci != 0:
                return None
            free.append(i)
        elif ci % di != 0:
            return None
        else:
            z[i] = ci // di
    if any(c[i] != 0 for i in range(cols, rows)):
        return None
    kernel = [[snf.v_inv[r][i] for r in range(cols)] for i in free]
    return [sum(map(mul, row, z)) for row in snf.v_inv], hermite_reduce(kernel)


def reference_solve_group_system(system: GroupLinearSystem):
    """solve_group_system by the double-Hermite path: solve the widened
    system with reference_solve_integer_system (Hermite form of the wide
    kernel), project the auxiliary unknowns away, and Hermite-reduce again."""
    rows = len(system.a)
    cols = system.width
    aux = [i for i in range(rows) if system.moduli[i] != 0]
    widened = [list(row) + [0] * len(aux) for row in system.a]
    for pos, i in enumerate(aux):
        widened[i][cols + pos] = system.moduli[i]
    solved = reference_solve_integer_system(widened, system.b, cols + len(aux))
    if solved is None:
        return None
    x0 = solved[0][:cols]
    kernel = hermite_reduce([k[:cols] for k in solved[1]])
    for gen in kernel:
        pivot = next(j for j in range(cols) if gen[j] != 0)
        q = x0[pivot] // gen[pivot]
        x0 = [x - q * g for x, g in zip(x0, gen)]
    return x0, kernel


def reference_continued_fraction_reconstruct(p: Fraction, r_max: int) -> Fraction | None:
    """continued_fraction_reconstruct in Fraction arithmetic: every convergent
    h/k a Fraction, tested by |p - h/k| <= 1/(2 r_max^2) directly."""
    p = Fraction(p)
    tolerance = Fraction(1, 2 * r_max * r_max)
    best = None
    h_prev, h = 1, int(p)
    k_prev, k = 0, 1
    x = p - int(p)
    while True:
        candidate = Fraction(h, k)
        if k <= r_max and 0 <= candidate < 1 and abs(p - candidate) <= tolerance:
            if best is None or abs(p - candidate) < abs(p - best):
                best = candidate
        if x == 0 or k > r_max:
            break
        x = 1 / x
        digit = int(x)
        x -= digit
        h_prev, h = h, digit * h + h_prev
        k_prev, k = k, digit * k + k_prev
    return best


def reference_bb_order(group, a, cap: int) -> int:
    """bb_order as one checked, counted `mul` per step."""
    current = a
    for r in range(1, cap + 1):
        if current == group.identity():
            return r
        current = group.mul(current, a)
    raise BlackBoxError(f"order of {a!r} exceeds cap {cap}")


def reference_multivariate_dlog(group, beta, b) -> list[int]:
    """multivariate_dlog as b's coordinates in the identity decomposition
    table of beta: each order by `bb_order`, b decoded by an EncodingBridge."""
    orders = [bb_order(group, g) for g in beta]
    eye = identity_matrix(len(beta))
    table = DecompositionTable(alpha=list(beta), beta=list(beta), a=eye, b=eye, c=list(orders))
    bridge = EncodingBridge(group=group, table=table)
    try:
        return list(bridge.decode(b).coords)
    except ExtractionError:
        if not group.is_element(b):
            raise
        raise algorithms.AlgorithmError(f"{b!r} is not generated by the given elements") from None


def reference_cayley_relations(group, generators) -> tuple[list[list[int]], dict]:
    """cayley_relations as a breadth-first walk of the Cayley graph, at k
    `mul` per element: every closing edge is a relation (spanning-tree
    argument), up to (k - 1) n + 1 of them.  Returns (relations, reached),
    reached mapping each encoding to (element, word), the words of the
    walk's spanning tree."""
    generators = list(generators)
    start = (group.identity(), (0,) * len(generators))
    reached = {group.encode(start[0]): start}
    relations: list[list[int]] = []
    frontier = [start]
    while frontier:
        value, word = frontier.pop()
        for j, g in enumerate(generators):
            nxt = group.mul(value, g)
            nxt_key = group.encode(nxt)
            stepped = word[:j] + (word[j] + 1,) + word[j + 1:]
            if nxt_key in reached:
                relation = [a - b for a, b in zip(stepped, reached[nxt_key][1])]
                if any(relation):
                    relations.append(relation)
            else:
                if len(reached) >= DEFAULT_ORDER_CAP:
                    raise BlackBoxError(f"group order exceeds cap {DEFAULT_ORDER_CAP}")
                reached[nxt_key] = (nxt, stepped)
                frontier.append((nxt, stepped))
    return relations, reached


def reference_dense_sample(state, shots: int, rng) -> Counter:
    """dense_sample through `Generator.choice` with its checks on p."""
    flat = np.abs(state.amplitudes.reshape(-1)) ** 2
    flat = flat / flat.sum()
    drawn = Counter(rng.choice(len(flat), size=shots, p=flat).tolist())
    return Counter(dict(zip(state.points(list(drawn)), drawn.values())))


def reference_oracular_mul(oracular, x, y):
    """OracularGroup._mul as f(r(x) + r(y)) with GroupElement addition."""
    domain = oracular.domain
    gx = GroupElement(domain, oracular._representative[x])
    gy = GroupElement(domain, oracular._representative[y])
    return oracular.oracle((gx + gy).coords)


def reference_oracular_inv(oracular, x):
    """OracularGroup._inv as f(-r(x)) with GroupElement negation."""
    gx = GroupElement(oracular.domain, oracular._representative[x])
    return oracular.oracle((-gx).coords)


def reference_word_table(group, generators, moduli) -> dict:
    """w(x) = prod generators[i]^x(i) for every x in the box prod [0, moduli[i]),
    keyed by the tuple x; each point after the first costs one `mul`."""
    table = {(): group.identity()}
    for g, m in zip(generators, moduli):
        grown = {}
        for prefix, value in table.items():
            grown[prefix + (0,)] = value
            for t in range(1, m):
                value = group.mul(value, g)
                grown[prefix + (t,)] = value
        table = grown
    return table


def reference_exponent_kernel(group, generators, d: int, rng, cap):
    """The dense kernel route decompose_group replaced: tabulate the exponent
    map, wrap the table as a hidden-subgroup oracle on encodings and solve it
    through `solve_hkp`, which certifies the promise on an `OracularGroup`
    over the table and samples `hsp_circuit` over it."""
    k = len(generators)
    words = reference_word_table(group, generators, [d] * k)
    domain = cyclic_group(*([d] * k))
    run = algorithms.solve_hkp(domain, group, lambda x: words[tuple(x)], rng, cap=cap)
    return [list(gen.coords) for gen in run.generators], "hidden-subgroup rounds (dense)"


def nearest_peak_distance(p: Fraction, r: int) -> Fraction:
    """Torus distance from p to the closest multiple k/r."""
    u = (Fraction(p) * r) % 1
    return min(u, 1 - u) / r


def assert_coset_invariants(state) -> None:
    """A `CosetPhaseState`'s parameterization is injective, each box modulus
    annihilates its column, and the phase polynomial is box-periodic."""
    points = state.support_points()
    assert len(points) == len(set(points)), "parameterization is not injective"
    for i, m in enumerate(state.moduli):
        assert all(
            (m * c) % n == 0 for c, n in zip(state.columns[i], state.group.chars)
        ), "modulus does not annihilate its column"
        for t in ([0] * state.num_params, [1] * state.num_params):
            bumped = list(t)
            bumped[i] += m
            assert phase_exponent(state, bumped) == phase_exponent(state, t), (
                "phase polynomial not box-periodic"
            )


def _word_exp(basis: DesignatedBasis, bases, n_out=None) -> AutomorphismGate:
    return AutomorphismGate(func=word_exp_func(basis, bases), name="word_exp", n_out=n_out)


def mixed_finite_circuit() -> NormalizerCircuit:
    """Z4 x Z_15^*: normal-form automorphism and phase gates around a
    `word_exp` gate, between two QFTs."""
    g = cyclic_group(4)
    basis = DesignatedBasis(g, ZNStarGroup(15))
    return NormalizerCircuit(basis, [
        QFTGate((0,)),
        AutomorphismGate(rep=validate_matrix_rep([[3]], g)),
        _word_exp(basis, [2]),
        QuadraticGate(form=validate_quadratic([[Fraction(1, 4)]], [Fraction(1, 2)], g)),
        AutomorphismGate(rep=validate_matrix_rep([[1]], g)),
        QFTGate((0,)),
        QuadraticGate(form=validate_quadratic([[Fraction(1, 2)]], [Fraction(3, 4)], g)),
    ])


def mixed_infinite_circuit() -> NormalizerCircuit:
    """Z x Z4 x Z_15^*: the same mix with n_out on the black-box gates; the
    last QFT turns the Z register into T, so the last two gates act on T x Z4."""
    zc = ElementaryGroup((Z, cyclic(4)))
    tc = ElementaryGroup((T, cyclic(4)))
    basis = DesignatedBasis(zc, ZNStarGroup(15))
    third = Fraction(1, 3)
    quarter = Fraction(1, 4)
    return NormalizerCircuit(basis, [
        AutomorphismGate(rep=validate_matrix_rep([[1, 0], [1, 1]], zc)),
        _word_exp(basis, [2, 4], n_out=4),
        QuadraticGate(form=validate_quadratic(
            [[third, quarter], [quarter, Fraction(1, 2)]], [Fraction(1, 5), 3 * quarter], zc
        )),
        QFTGate((1,)),
        _word_exp(basis, [7, 1], n_out=4),
        QFTGate((0,)),
        AutomorphismGate(rep=validate_matrix_rep([[-1, quarter], [0, 3]], tc)),
        QuadraticGate(form=validate_quadratic([[0, 0], [0, quarter]], [2, quarter], tc)),
    ])
