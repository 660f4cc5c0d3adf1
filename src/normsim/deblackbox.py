"""From black boxes to normal forms: encoding conversion and gate extraction.

Once a black-box group has been decomposed into independent generators, its
elements convert to exponent vectors and back, and every black-box gate of a
circuit can be upgraded in place to a validated normal form: automorphisms by
evaluating on unit vectors (with a scaled probe on torus factors), quadratic
phases through the difference identity q(x+y) - q(x) - q(y), the vector v
from the leftover linear part.  Extraction never trusts the promise: each
recovered form is re-validated and checked against the oracle before it is
installed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .blackbox import (
    BlackBoxError,
    BlackBoxGroup,
    DecompositionTable,
    bb_decompose_bruteforce,
    cayley_relations,
)
from .circuits import (
    AutomorphismGate,
    DesignatedBasis,
    InvalidGate,
    MatrixRep,
    NormalizerCircuit,
    QFTGate,
    QuadraticForm,
    QuadraticGate,
    label_grid,
    validate_matrix_rep,
    validate_quadratic,
)
from .groups import ElementaryGroup, GroupElement, cyclic
from .linalg import is_prime

DEFAULT_ENTRY_BOUND = 1 << 10
#: The extraction spot checks try every point of finite groups up to this
#: order, and otherwise this many sampled points per matrix and per form.
SPOT_CHECK_ALL = 256
MATRIX_SPOT_CHECKS = 8
QUADRATIC_SPOT_CHECKS = 12


class ExtractionError(ValueError):
    """The promised structure failed to materialize (or validation failed)."""


def next_prime_above(n: int) -> int:
    candidate = max(2, n + 1)
    while not is_prime(candidate):
        candidate += 1
    return candidate


# ---------------------------------------------------------------------------
# encoding bridge
# ---------------------------------------------------------------------------


@dataclass
class EncodingBridge:
    """Isomorphism between a decomposed coordinate group and a black-box group.

    encode maps an exponent vector g to beta_1^g(1) ... beta_d^g(d); decode
    inverts it.  Decoding is the multivariate discrete-logarithm problem; at
    desk scale both directions come from the group's kept walk of alpha
    (`cayley_relations`, free after `bb_decompose_bruteforce`): alpha-word x
    has beta-coordinates B x mod c.  encode reduces g mod c first, which
    gives group.word's value because beta_i has order c_i (`verify` checks it).
    to_decomposed and from_decomposed apply them to the black-box slot of a
    whole circuit point, the one place points cross between B and Z_c.
    """

    group: BlackBoxGroup
    table: DecompositionTable
    _words: dict | None = field(default=None, repr=False)
    _decode_map: dict | None = field(default=None, repr=False)

    @property
    def z_group(self) -> ElementaryGroup:
        return ElementaryGroup(tuple(cyclic(c) for c in self.table.c))

    def _tables(self) -> tuple[dict, dict]:
        """Every element by its beta-coordinates and the inverse map, built once."""
        if self._words is None:
            walk = cayley_relations(self.group, self.table.alpha)
            z_group = self.z_group
            self._words, self._decode_map = {}, {}
            for (key, p), value in zip(walk.position.items(), walk.elements):
                word = walk.word(p)
                x = tuple(sum(map(operator.mul, row, word)) % c
                          for row, c in zip(self.table.b, self.table.c))
                self._words[x] = value
                self._decode_map[key] = GroupElement(z_group, x)
        return self._words, self._decode_map

    def encode(self, vector: Sequence[int] | GroupElement):
        if isinstance(vector, GroupElement):
            vector = vector.coords
        if len(vector) != len(self.table.c):
            raise BlackBoxError("generator/exponent length mismatch")
        words, _ = self._tables()
        return words[tuple(operator.index(e) % c for e, c in zip(vector, self.table.c))]

    def decode(self, element) -> GroupElement:
        if not self.group.is_element(element):
            raise ExtractionError(f"{element!r} is not in the black-box group")
        _, decode_map = self._tables()
        decoded = decode_map.get(self.group.encode(element))
        if decoded is None:
            raise ExtractionError(f"{element!r} is not in the subgroup the table generates")
        return decoded

    def to_decomposed(self, point: Sequence) -> tuple:
        """(x, b) with b in B -> (x, decode(b)), for any iterable point."""
        point = tuple(point)
        return point[:-1] + self.decode(point[-1]).coords

    def from_decomposed(self, point: Sequence) -> tuple:
        """(x, g) with g over Z_c -> (x, encode(g)): the inverse of to_decomposed."""
        split = len(point) - len(self.table.c)
        return tuple(point[:split]) + (self.encode(point[split:]),)


# ---------------------------------------------------------------------------
# normal-form extraction
# ---------------------------------------------------------------------------


def _unit(group: ElementaryGroup, j: int, scale: int | Fraction = 1) -> list:
    coords = list(group.identity().coords)
    coords[j] = scale
    return coords


def _centered(value: Fraction) -> Fraction:
    """Representative of value mod 1 in (-1/2, 1/2]."""
    value %= 1
    return value - 1 if value > Fraction(1, 2) else value


def extract_matrix_entries(
    f: Callable, group: ElementaryGroup, bound: int | None = None
) -> list[list[Fraction]]:
    """Raw matrix recovery for a promised linear map on the group.

    Unit vectors pin down every column up to the target characteristics;
    torus-to-torus integers hide behind the mod-1 truncation, so those
    columns are probed at e_j / alpha with a prime alpha > 2 * bound.
    """
    m = len(group.factors)
    alpha = next_prime_above(2 * (bound or DEFAULT_ENTRY_BOUND))
    columns: list[list[Fraction]] = []
    for j, source in enumerate(group.factors):
        if source.kind == "T":
            image = tuple(f(tuple(_unit(group, j, Fraction(1, alpha)))))
            column = []
            for i, target in enumerate(group.factors):
                if target.kind == "T":
                    entry = _centered(Fraction(image[i])) * alpha
                else:
                    entry = image[i] * alpha  # zero blocks when the promise holds
                column.append(entry)
        else:
            column = list(f(tuple(_unit(group, j))))
        columns.append(column)
    return [[columns[j][i] for j in range(m)] for i in range(m)]


def extract_matrix_rep(
    f: Callable, group: ElementaryGroup, bound: int | None = None
) -> MatrixRep:
    """Recover and validate the matrix of a promised automorphism."""
    matrix = extract_matrix_entries(f, group, bound)
    try:
        rep = validate_matrix_rep(matrix, group)
    except InvalidGate as exc:
        raise ExtractionError(f"extracted matrix is not an automorphism: {exc}") from exc
    _spot_check_matrix(f, rep)
    return rep


def _sample_coords(group: ElementaryGroup, rng) -> tuple:
    coords = []
    for factor in group.factors:
        if factor.kind == "cyclic":
            coords.append(int(rng.integers(factor.modulus)))
        elif factor.kind == "Z":
            coords.append(int(rng.integers(-12, 13)))
        else:
            coords.append(Fraction(int(rng.integers(24)), 24))
    return tuple(coords)


def _exhaustive_grid(group: ElementaryGroup) -> np.ndarray | None:
    """Every label of a finite group of order <= SPOT_CHECK_ALL, one column
    each in `elements()` order, or None when the spot checks sample instead."""
    if group.is_finite and group.order() <= SPOT_CHECK_ALL:
        return label_grid(group.chars)
    return None


def _columns(array: np.ndarray):
    """The columns of a 2-D integer array, each one tuple of Python ints."""
    return map(tuple, array.T.tolist())


def _spot_check_matrix(f: Callable, rep: MatrixRep) -> None:
    """Compare the oracle with `rep` at every point of a small finite group,
    else at MATRIX_SPOT_CHECKS sampled points."""
    group = rep.group
    grid = _exhaustive_grid(group)
    if grid is None:
        rng = np.random.default_rng(MATRIX_SPOT_CHECKS)
        for coords in [_sample_coords(group, rng) for _ in range(MATRIX_SPOT_CHECKS)]:
            expected = group.reduce(list(f(coords)))
            if rep.apply(group.reduce(coords)) != expected:
                raise ExtractionError(f"extracted matrix disagrees with the oracle at {coords}")
        return
    n = len(group.factors)
    matrix = np.array(rep.matrix, dtype=np.int64).reshape(n, n)
    images = (matrix @ grid) % np.array(group.chars, dtype=np.int64)[:, None]
    for coords, expected in zip(_columns(grid), _columns(images)):
        if group.reduce(tuple(f(coords))).coords != expected:
            raise ExtractionError(f"extracted matrix disagrees with the oracle at {coords}")


def extract_quadratic(
    q: Callable, group: ElementaryGroup, bound: int | None = None
) -> QuadraticForm:
    """Recover (M, v) of a promised quadratic exponent q (xi = exp(2 pi i q)).

    The bilinear matrix comes from q(x+y) - q(x) - q(y); entries coupling a
    torus factor to an integer factor are integers recovered through the
    1/alpha probe; v is read off the residual linear part.
    """
    m = len(group.factors)
    alpha = next_prime_above(2 * (bound or DEFAULT_ENTRY_BOUND))

    def difference(x: list, y: list) -> Fraction:
        xy = [a + b for a, b in zip(x, y)]
        return Fraction(q(tuple(xy))) - Fraction(q(tuple(x))) - Fraction(q(tuple(y)))

    entries = [[Fraction(0)] * m for _ in range(m)]
    for i, fi in enumerate(group.factors):
        for j in range(i, m):
            fj = group.factors[j]
            kinds = {fi.kind, fj.kind}
            if kinds == {"T"} or kinds == {"T", "cyclic"}:
                value = Fraction(0)
            elif kinds == {"Z", "T"}:
                t_index, other = (i, j) if fi.kind == "T" else (j, i)
                probe = difference(
                    _unit(group, t_index, Fraction(1, alpha)), _unit(group, other)
                )
                value = _centered(probe) * alpha
                if value.denominator != 1:
                    raise ExtractionError(f"entry ({i},{j}) is not an integer")
            else:
                value = difference(_unit(group, i), _unit(group, j)) % 1
            entries[i][j] = entries[j][i] = value

    chars = group.chars

    def residual(i: int, s: int | Fraction) -> Fraction:
        """q(s e_i) - (s^2 M_ii + s C_i)/2 mod 1, the linear part left at a unit probe."""
        m_ii = entries[i][i]
        quadratic = s * s * m_ii + s * (m_ii * chars[i])
        return (Fraction(q(tuple(_unit(group, i, s)))) - quadratic / 2) % 1

    v = []
    for i, factor in enumerate(group.factors):
        if factor.kind == "T":
            value = _centered(residual(i, Fraction(1, alpha))) * alpha
            if value.denominator != 1:
                raise ExtractionError(f"v[{i}] is not an integer")
        else:
            value = residual(i, 1)
        v.append(value)
    try:
        form = validate_quadratic(entries, v, group)
    except InvalidGate as exc:
        raise ExtractionError(f"extracted phase data is invalid: {exc}") from exc
    _spot_check_quadratic(q, form)
    return form


def _spot_check_quadratic(q: Callable, form: QuadraticForm) -> None:
    """Compare the oracle with `form` at every point of a small finite group,
    else at QUADRATIC_SPOT_CHECKS sampled points."""
    group = form.group
    grid = _exhaustive_grid(group)
    if grid is None:
        rng = np.random.default_rng(QUADRATIC_SPOT_CHECKS)
        for coords in [_sample_coords(group, rng) for _ in range(QUADRATIC_SPOT_CHECKS)]:
            if form.exponent(group.reduce(coords)) != Fraction(q(tuple(coords))) % 1:
                raise ExtractionError(f"extracted phase disagrees with the oracle at {coords}")
        return
    numerators, d = form.numerators(grid)
    for coords, k in zip(_columns(grid), numerators.tolist()):
        # q = n/s agrees with k/d mod 1 iff s divides d and n (d/s) = k mod d.
        value = q(coords)
        if not isinstance(value, Fraction):
            value = Fraction(value)
        scale, rest = divmod(d, value.denominator)
        if rest or (value.numerator * scale - k) % d:
            raise ExtractionError(f"extracted phase disagrees with the oracle at {coords}")


# ---------------------------------------------------------------------------
# circuit rewriting
# ---------------------------------------------------------------------------


@dataclass
class DeblackboxResult:
    circuit: NormalizerCircuit
    bridge: EncodingBridge | None
    provenance: list[dict]

    def point_to_decomposed(self, point: tuple) -> tuple:
        return tuple(point) if self.bridge is None else self.bridge.to_decomposed(point)

    def point_from_decomposed(self, point: tuple) -> tuple:
        return tuple(point) if self.bridge is None else self.bridge.from_decomposed(point)


def _padded(block: Sequence[Sequence], size: int, corner: int) -> list[list]:
    """The size x size matrix [block 0; 0 corner*I]."""
    old = len(block)
    return [
        [block[i][j] if i < old and j < old else corner * (i == j) for j in range(size)]
        for i in range(size)
    ]


def deblackbox_circuit(
    circuit: NormalizerCircuit,
    generators: Sequence | None = None,
    rng=None,
) -> DeblackboxResult:
    """Rewrite a black-box circuit over the fully decomposed group.

    The group-decomposition oracle is `bb_decompose_bruteforce`: it maps
    (group, generators) to a decomposition table.  Gates already in normal
    form are extended by the identity on the fresh cyclic registers; black
    boxes are conjugated through the bridge and extracted.  The provenance
    log records, per gate, what happened and how many oracle queries it cost
    (generator sampling counts under `decompose`, so nothing goes unrecorded).
    """
    trace = circuit.validate()
    bb = circuit.initial_basis.blackbox
    if bb is None:
        return DeblackboxResult(circuit=circuit, bridge=None, provenance=[
            {"gate": i, "action": "unchanged"} for i in range(len(circuit.gates))
        ])
    start = bb.counter.total
    if generators is None:
        generators = bb.sample_generators(rng or np.random.default_rng(0))
    table = bb_decompose_bruteforce(bb, list(generators))
    bridge = EncodingBridge(group=bb, table=table)
    provenance: list[dict] = [
        {
            "action": "decompose",
            "isomorphism_type": table.isomorphism_type(),
            "oracle_calls": bb.counter.total - start,
        }
    ]
    appended = tuple(cyclic(order) for order in table.c)

    def widen(basis: DesignatedBasis) -> ElementaryGroup:
        return ElementaryGroup(basis.elementary.factors + appended)

    new_gates: list = []
    for index, gate in enumerate(circuit.gates):
        wide_group = widen(trace[index])
        start = bb.counter.total
        record: dict = {"gate": index}
        if isinstance(gate, QFTGate):
            new_gates.append(gate)
            record["action"] = "kept qft"
        elif not gate.is_black_box:
            size = len(wide_group.factors)
            if isinstance(gate, AutomorphismGate):
                rep = validate_matrix_rep(_padded(gate.rep.matrix, size, 1), wide_group)
                new_gates.append(AutomorphismGate(rep=rep))
                record["action"] = "extended matrix"
            else:
                v = list(gate.form.v) + [0] * (size - len(gate.form.v))
                form = validate_quadratic(_padded(gate.form.m, size, 0), v, wide_group)
                new_gates.append(QuadraticGate(form=form))
                record["action"] = "extended quadratic"
        else:
            bound = 1 << gate.n_out if gate.n_out is not None else None
            if isinstance(gate, AutomorphismGate):
                rep = extract_matrix_rep(
                    lambda x: bridge.to_decomposed(gate.func(bridge.from_decomposed(x))),
                    wide_group,
                    bound,
                )
                new_gates.append(AutomorphismGate(rep=rep, name=gate.name))
                record["action"] = "extracted automorphism"
                record["matrix"] = [[str(x) for x in row] for row in rep.matrix]
            else:
                form = extract_quadratic(
                    lambda x: gate.func(bridge.from_decomposed(x)), wide_group, bound
                )
                new_gates.append(QuadraticGate(form=form, name=gate.name))
                record["action"] = "extracted quadratic"
                record["M"] = [[str(x) for x in row] for row in form.m]
                record["v"] = [str(x) for x in form.v]
        record["oracle_calls"] = bb.counter.total - start
        provenance.append(record)
    new_circuit = NormalizerCircuit(
        initial_basis=DesignatedBasis(widen(circuit.initial_basis)),
        gates=new_gates,
    )
    new_circuit.validate()
    return DeblackboxResult(circuit=new_circuit, bridge=bridge, provenance=provenance)
