"""Normalizer-circuit intermediate representation.

A circuit is a gate list over a designated basis that may change:
QFT gates flip infinite registers between their Z and T labels, while
automorphism and quadratic phase gates act relative to the basis in force.
Gates are either in normal form (block-structured matrices, quadratic-form
data) or black-box callables carrying a precision bound.

Phases are exact rationals q with xi = exp(2 pi i q) throughout; complex
numbers appear only in the dense simulator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .blackbox import (
    BlackBoxGroup,
    EllipticCurveGroup,
    ZNStarGroup,
    bb_decompose_bruteforce,
)
from .groups import (
    ElementaryGroup,
    Factor,
    GroupElement,
    cyclic,
    format_group,
    parse_group,
)
from .linalg import (
    GroupLinearSystem,
    hermite_reduce,
    identity_matrix,
    mat_mul,
    solve_group_system,
)

Rational = Fraction | int


class InvalidGate(ValueError):
    """A gate failed normal-form validation; the message names the condition."""


class CircuitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# matrix representations of group automorphisms
# ---------------------------------------------------------------------------


def _entry_condition(target: Factor, source: Factor, value: Fraction) -> str | None:
    """First violated normal-form condition for one matrix entry, or None."""
    t, s = target.kind, source.kind
    if s == "T" and t in ("Z", "cyclic"):
        if value != 0:
            return f"entries from T into {target} must vanish, got {value}"
        return None
    if t == "Z" and s == "cyclic":
        if value != 0:
            return f"entries from {source} into Z must vanish, got {value}"
        return None
    if t == "T" and s == "T":
        if value.denominator != 1:
            return f"T-to-T entries must be integers, got {value}"
        return None
    if t == "T":  # source Z or cyclic
        if s == "cyclic" and (value * source.modulus).denominator != 1:
            return (
                f"entries from {source} into T need denominator dividing "
                f"{source.modulus}, got {value}"
            )
        return None
    if t == "cyclic" and s == "cyclic":
        if value.denominator != 1:
            return f"finite-to-finite entries must be integers, got {value}"
        step = target.modulus // math.gcd(target.modulus, source.modulus)
        if value % step != 0:
            return (
                f"entries from {source} into {target} must be multiples of "
                f"{step}, got {value}"
            )
        return None
    # target Z or cyclic, source Z: any integer
    if value.denominator != 1:
        return f"entries into {target} must be integers, got {value}"
    return None


def _reduce_entry(target: Factor, source: Factor, value: Fraction) -> Fraction:
    """Canonical representative of an entry, respecting what it is defined mod."""
    if target.kind == "T" and source.kind == "T":
        return value  # exact integers, not defined modulo anything
    if target.kind == "T":
        return value % 1
    if target.kind == "cyclic" and source.kind != "T":
        return value % target.modulus
    return value


@dataclass(frozen=True)
class MatrixRep:
    """Block-structured matrix realizing a group automorphism on coordinates.

    Entries are exact: an int wherever the entry is integral, which is every
    entry except those into T from Z or Z_N, where a Fraction may remain.
    """

    group: ElementaryGroup
    matrix: tuple[tuple[int | Fraction, ...], ...]

    def apply(self, el: GroupElement) -> GroupElement:
        if el.group is not self.group and el.group != self.group:
            raise CircuitError(f"element of {el.group} fed to a map on {self.group}")
        return self.group.reduce([sum(map(mul, row, el.coords)) for row in self.matrix])

    def compose(self, other: MatrixRep) -> MatrixRep:
        """self after other (matrix product), re-validated."""
        if self.group != other.group:
            raise CircuitError("composition across different groups")
        product = mat_mul([list(r) for r in self.matrix], [list(r) for r in other.matrix])
        return validate_matrix_rep(product, self.group)

    def equals_as_map(self, other: MatrixRep) -> bool:
        """Equal maps: `validate_matrix_rep` stores each entry as the
        canonical representative of the class the map depends on."""
        return self == other


def validate_matrix_rep(
    matrix: Sequence[Sequence[Rational]], group: ElementaryGroup
) -> MatrixRep:
    """Accept exactly the block-valid matrices that define automorphisms.

    Raises InvalidGate carrying the first violated condition: an entry
    outside its divisibility class, or failure of invertibility (unimodular
    Z and T blocks, bijective finite block).  Integral entries are stored
    as int.
    """
    m = len(group.factors)
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise InvalidGate(f"matrix must be {m}x{m} for {group}")
    entries = [[Fraction(x) for x in row] for row in matrix]
    for i, target in enumerate(group.factors):
        for j, source in enumerate(group.factors):
            problem = _entry_condition(target, source, entries[i][j])
            if problem is not None:
                raise InvalidGate(f"entry ({i},{j}): {problem}")
            value = _reduce_entry(target, source, entries[i][j])
            entries[i][j] = value.numerator if value.denominator == 1 else value

    # A diagonal block is invertible exactly when its columns, with N_i e_i
    # added on a finite block, span Z^n, i.e. have the identity as Hermite
    # basis.  A square integer block spans Z^n iff |det| = 1.  On the finite
    # block the span is Z^n iff x -> A x mod N is onto, and a map of a finite
    # group onto itself is a bijection.
    for kind, problem in (
        ("Z", "Z block is not unimodular"),
        ("T", "T block is not unimodular"),
        ("cyclic", "finite block is not bijective"),
    ):
        idx = [i for i, f in enumerate(group.factors) if f.kind == kind]
        columns = [[entries[i][j] for i in idx] for j in idx]
        if kind == "cyclic":
            columns += [[group.factors[i].modulus * (i == j) for i in idx] for j in idx]
        if hermite_reduce(columns) != identity_matrix(len(idx)):
            raise InvalidGate(problem)
    return MatrixRep(group=group, matrix=tuple(tuple(row) for row in entries))


def matrix_rep_inverse(rep: MatrixRep) -> MatrixRep:
    """Two-sided inverse representation, one congruence solve per column.

    In the order (Z, finite, T) the entry rules make A lower block-triangular,
    so X_{ZF,T} = 0 and column j of a diagonal block solves A_{ZF,ZF} x = e_j
    (Z rows over Z, row k mod N_k: unique, finite coordinates reduced) or
    A_TT x = e_j over Z.  X_{T,ZF} = -X_TT A_{T,ZF} X_{ZF,ZF} mod 1 works:
    (XA)_{T,ZF} = X_TT A_{T,ZF} (I - X_{ZF,ZF} A_{ZF,ZF}), whose Z rows of
    I - X_{ZF,ZF} A_{ZF,ZF} vanish and whose finite row k is 0 mod N_k, while
    A's T-row entries from finite source k have denominators dividing N_k.
    """
    group, a = rep.group, rep.matrix
    factors = group.factors
    m = len(factors)
    zf = [i for i, f in enumerate(factors) if f.kind != "T"]
    t_idx = [i for i, f in enumerate(factors) if f.kind == "T"]
    x = [[0] * m for _ in range(m)]
    for idx in (zf, t_idx):
        block = [[a[i][j] for j in idx] for i in idx]
        moduli = [factors[i].modulus for i in idx]  # 0 on Z and T
        for c, j in enumerate(idx):
            unit = [int(r == c) for r in range(len(idx))]
            solved = solve_group_system(GroupLinearSystem(block, unit, moduli, len(idx)))
            if solved is None:
                raise InvalidGate("diagonal block is not invertible")
            for i, value in zip(idx, solved[0]):
                x[i][j] = value
    for i in t_idx:
        row = [sum(x[i][s] * a[s][k] for s in t_idx) for k in zf]  # (X_TT A_{T,ZF})_i
        for j in zf:
            x[i][j] = -sum(value * x[k][j] for value, k in zip(row, zf))
    inverse = validate_matrix_rep(x, group)
    identity = validate_matrix_rep(identity_matrix(m), group)
    if not inverse.compose(rep).equals_as_map(identity):
        raise InvalidGate("constructed left inverse fails")
    if not rep.compose(inverse).equals_as_map(identity):
        raise InvalidGate("constructed right inverse fails")
    return inverse


# ---------------------------------------------------------------------------
# quadratic phase functions
# ---------------------------------------------------------------------------


def _quadratic_entry_condition(fi: Factor, fj: Factor, value: Fraction) -> str | None:
    kinds = {fi.kind, fj.kind}
    if kinds == {"T"}:
        if value != 0:
            return f"T-T entries must vanish, got {value}"
        return None
    if kinds == {"Z", "T"}:
        if value.denominator != 1:
            return f"Z-T entries must be integers, got {value}"
        return None
    if kinds == {"Z"}:
        return None  # arbitrary rational
    if "T" in kinds:  # cyclic paired with T
        if value != 0:
            return f"finite-T entries must vanish, got {value}"
        return None
    divisor = math.gcd(
        fi.modulus if fi.kind == "cyclic" else 0,
        fj.modulus if fj.kind == "cyclic" else 0,
    )
    if (value * divisor).denominator != 1:
        return f"entry needs denominator dividing {divisor}, got {value}"
    return None


@dataclass(frozen=True)
class QuadraticForm:
    """Data (M, v) of a quadratic phase xi(g) = exp(pi i (gMg + Cg + 2vg)).

    C is never free: C(i) = M(i,i) char(G_i), which keeps xi well defined on
    the group even though gMg alone is not.

    The exponent q(g) = g (M/2) g + (C/2 + v) g is evaluated over one common
    denominator.  `scaled` holds the integers A = d M/2 and b = d (C/2 + v)
    with the least such d; it is built once per form and cached on the
    instance, like `c`.  On integer coordinates q(g) = (g A g + b g)/d is
    then computed in int and returned as the exact Fraction k/d.  A torus
    coordinate off the integers stays a Fraction, and the sum it enters
    falls back to Fraction arithmetic.
    """

    group: ElementaryGroup
    m: tuple[tuple[Fraction, ...], ...]
    v: tuple[Fraction, ...]

    @cached_property
    def c(self) -> tuple[int, ...]:
        values = []
        for i, char in enumerate(self.group.chars):
            value = self.m[i][i] * char
            if value.denominator != 1:
                raise InvalidGate(f"C({i}) = M({i},{i}) char is not an integer")
            values.append(int(value))
        return tuple(values)

    @cached_property
    def scaled(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
        """(A, b, d): the integer numerators of M/2 and C/2 + v over their
        least common denominator d."""
        quad = [[x / 2 for x in row] for row in self.m]
        lin = [Fraction(c, 2) + v for c, v in zip(self.c, self.v)]
        return _common_denominator(quad, lin)

    def exponent(self, el: GroupElement) -> Fraction:
        """q(g) with xi(g) = exp(2 pi i q(g)), as a rational mod 1."""
        if el.group is not self.group and el.group != self.group:
            raise CircuitError("element from the wrong group")
        a, b, d = self.scaled
        x = el.coords
        k = sum(xi * (bi + sum(map(mul, row, x))) for xi, bi, row in zip(x, b, a))
        return _mod_one(k, d)

    def numerators(self, grid: np.ndarray) -> tuple[np.ndarray, int]:
        """Integers k and d with q(g) = g (M/2) g + (C/2 + v) g = k/d (mod 1)
        at the labels `grid`, one column of coordinates per label."""
        return _scaled_numerators(*self.scaled, grid)


def _mod_one(k: Rational, d: int) -> Fraction:
    """k/d mod 1 as a Fraction; k is an int unless a torus coordinate entered."""
    if isinstance(k, int):
        return Fraction(k % d, d)
    return k / d % 1


def label_grid(moduli: Sequence[int]) -> np.ndarray:
    """Every label of Z_{m_1} x ... x Z_{m_k}, one column of coordinates each,
    in C order."""
    return np.indices(moduli).reshape(len(moduli), math.prod(moduli))


def _common_denominator(quad, lin) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
    """Integers A, b and the least d > 0 with quad = A/d and lin = b/d."""
    entries = [Fraction(q) for row in quad for q in row] + [Fraction(v) for v in lin]
    d = math.lcm(1, *(q.denominator for q in entries))
    scaled = [q.numerator * (d // q.denominator) for q in entries]
    n = len(lin)
    a = tuple(tuple(scaled[i * n : (i + 1) * n]) for i in range(n))
    return a, tuple(scaled[n * n :]), d


def _scaled_numerators(a, b, d: int, grid: np.ndarray) -> tuple[np.ndarray, int]:
    """k = x A x + b x mod d at every column x of `grid`, and d.

    Every entry of A and b and every coordinate is reduced mod d before any
    product, so no partial sum reaches 2 n d^2 (n coordinates): the sums run
    in int64 while that bound is below 2^63 and in Python ints beyond it.
    k comes back as int64 whenever d fits in it.
    """
    n = len(b)
    dtype = np.int64 if 2 * n * d * d < 1 << 63 else object
    a = np.array([x % d for row in a for x in row], dtype=dtype).reshape(n, n)
    b = np.array([x % d for x in b], dtype=dtype)
    x = np.asarray(grid).astype(dtype) % d
    k = ((x * ((a @ x) % d)).sum(axis=0) + b @ x) % d
    return (k.astype(np.int64, copy=False) if d <= 1 << 63 else k), d


def validate_quadratic(
    m: Sequence[Sequence[Rational]],
    v: Sequence[Rational],
    group: ElementaryGroup,
) -> QuadraticForm:
    """Accept exactly the symmetric block-valid (M, v) pairs."""
    n = len(group.factors)
    if len(m) != n or any(len(row) != n for row in m):
        raise InvalidGate(f"M must be {n}x{n} for {group}")
    if len(v) != n:
        raise InvalidGate(f"v must have length {n}")
    entries = [[Fraction(x) for x in row] for row in m]
    for i in range(n):
        for j in range(n):
            if entries[i][j] != entries[j][i]:
                raise InvalidGate(f"M must be symmetric, differs at ({i},{j})")
            problem = _quadratic_entry_condition(
                group.factors[i], group.factors[j], entries[i][j]
            )
            if problem is not None:
                raise InvalidGate(f"entry ({i},{j}): {problem}")
    v_entries = []
    for i, factor in enumerate(group.factors):
        value = Fraction(v[i])
        if factor.kind == "T":
            if value.denominator != 1:
                raise InvalidGate(f"v[{i}] must be an integer for a T factor")
        elif factor.kind == "cyclic" and (value * factor.modulus).denominator != 1:
            raise InvalidGate(f"v[{i}] needs denominator dividing {factor.modulus}")
        else:
            value %= 1
        v_entries.append(value)
    form = QuadraticForm(
        group=group,
        m=tuple(tuple(row) for row in entries),
        v=tuple(v_entries),
    )
    form.scaled  # forces the integrality assertion on C
    return form


# ---------------------------------------------------------------------------
# designated bases and gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignatedBasis:
    """Group-element basis in force at one circuit time step.

    The elementary part records, register by register, which of the two
    standard bases an infinite register currently uses (Z or T label);
    finite factors and the optional black-box slot never change.
    """

    elementary: ElementaryGroup
    blackbox: BlackBoxGroup | None = None

    @property
    def bb_register(self) -> int | None:
        return len(self.elementary.factors) if self.blackbox else None

    @property
    def is_finite(self) -> bool:
        return self.elementary.is_finite

    def make_point(self, values: Sequence) -> tuple:
        """Canonical point: reduced elementary coordinates plus bb element.

        The length is checked first, then the black-box value's membership,
        then each elementary coordinate goes through `Factor.reduce_coord`;
        no `GroupElement` is built.
        """
        factors = self.elementary.factors
        n = len(factors)
        if self.blackbox is None:
            if len(values) != n:
                raise CircuitError(f"point needs {n} coordinates")
            tail = ()
        else:
            if len(values) != n + 1:
                raise CircuitError(f"point needs {n} coordinates plus a group element")
            tail = (values[-1],)
            self.check_blackbox_values(tail)
        return tuple(f.reduce_coord(v) for f, v in zip(factors, values)) + tail

    def check_blackbox_values(self, values: Sequence) -> None:
        """Raise `make_point`'s error for the first value outside the black-box group."""
        for value in values:
            if not self.blackbox.is_element(value):
                raise CircuitError(f"{value!r} is not in the black-box group")

    def format_point(self, point: tuple) -> str:
        n = len(self.elementary.factors)
        inner = ", ".join(str(c) for c in point[:n])
        if self.blackbox is None:
            return f"({inner})"
        return f"({inner})|{_format_bb_element(self.blackbox, point[n])}"


def apply_qft_basis_update(
    basis: DesignatedBasis, registers: Sequence[int], over: str | None = None
) -> DesignatedBasis:
    """Flip Z and T labels on the targeted infinite registers.

    `over` pins the transform direction: "Z" demands the register currently
    carries the Z label, "T" the T label; omitted means either.  Finite
    registers take no `over` and keep their label group.
    """
    factors = list(basis.elementary.factors)
    for r in registers:
        if basis.bb_register is not None and r == basis.bb_register:
            raise CircuitError("quantum Fourier transforms never touch the black-box slot")
        if not 0 <= r < len(factors):
            raise CircuitError(f"register {r} out of range")
        kind = factors[r].kind
        if over not in (None, kind):
            raise CircuitError(f"register {r} is in the {kind} basis; QFT over {over} is illegal")
        factors[r] = factors[r].dual()
    return DesignatedBasis(ElementaryGroup(tuple(factors)), basis.blackbox)


@dataclass(frozen=True)
class QFTGate:
    registers: tuple[int, ...]
    over: str | None = None

    def __post_init__(self):
        if len(set(self.registers)) != len(self.registers):
            raise CircuitError("duplicate registers in a QFT gate")
        if self.over not in (None, "Z", "T"):
            raise CircuitError(f'QFT direction must be "Z" or "T", got {self.over!r}')


@dataclass(frozen=True)
class AutomorphismGate:
    """Basis permutation by a group automorphism.

    Either `rep` (normal form over the elementary label group, identity on
    any black-box slot) or `func` (black box on whole points, with the
    mandatory precision bound n_out when infinite registers are present).
    """

    rep: MatrixRep | None = None
    func: Callable | None = None
    name: str = ""
    n_out: int | None = None
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if (self.rep is None) == (self.func is None):
            raise CircuitError("exactly one of rep/func must be given")

    @property
    def is_black_box(self) -> bool:
        return self.func is not None


@dataclass(frozen=True)
class QuadraticGate:
    """Diagonal phase gate; `func` maps a point to the rational exponent q."""

    form: QuadraticForm | None = None
    func: Callable | None = None
    name: str = ""
    n_out: int | None = None

    def __post_init__(self):
        if (self.form is None) == (self.func is None):
            raise CircuitError("exactly one of form/func must be given")

    @property
    def is_black_box(self) -> bool:
        return self.func is not None


Gate = QFTGate | AutomorphismGate | QuadraticGate


@dataclass
class NormalizerCircuit:
    """Gate sequence with its designated-basis trace.

    `validate` type-checks every gate against the basis in force at its
    position and records the trace; the final entry is the measurement basis.
    """

    initial_basis: DesignatedBasis
    gates: list

    def validate(self) -> list[DesignatedBasis]:
        trace = [self.initial_basis]
        basis = self.initial_basis
        for position, gate in enumerate(self.gates):
            basis = _check_gate(gate, basis, position)
            trace.append(basis)
        return trace

    @property
    def final_basis(self) -> DesignatedBasis:
        return self.validate()[-1]

    def qft_layers(self) -> int:
        """Number of maximal runs of consecutive QFT gates."""
        layers = 0
        previous_was_qft = False
        for gate in self.gates:
            is_qft = isinstance(gate, QFTGate)
            if is_qft and not previous_was_qft:
                layers += 1
            previous_was_qft = is_qft
        return layers


def _check_gate(gate, basis: DesignatedBasis, position: int) -> DesignatedBasis:
    try:
        if isinstance(gate, QFTGate):
            return apply_qft_basis_update(basis, gate.registers, gate.over)
        if isinstance(gate, (AutomorphismGate, QuadraticGate)):
            if gate.is_black_box:
                infinite = any(not f.is_finite for f in basis.elementary.factors)
                if infinite and gate.n_out is None:
                    raise CircuitError(
                        "black-box gates on infinite registers need a precision bound n_out"
                    )
                return basis
            data = gate.rep if isinstance(gate, AutomorphismGate) else gate.form
            if data.group != basis.elementary:
                raise CircuitError(
                    f"gate over {data.group} but the designated basis is {basis.elementary}"
                )
            return basis
        raise CircuitError(f"unknown gate type {type(gate).__name__}")
    except (CircuitError, InvalidGate) as exc:
        raise CircuitError(f"gate {position}: {exc}") from exc


# ---------------------------------------------------------------------------
# the repeated-squaring automorphism family and the finite-M obstruction
# ---------------------------------------------------------------------------


class WordExp:
    """The point map of a `word_exp` gate; see `word_exp_func`.

    `active` holds the (register, base) pairs whose base is not the
    identity, in register order, and `group` the black-box group.  A call on
    one point keeps each active base's powers b^k in a dict (`int` exponents
    only; any other exponent goes to `power` as given and fails or succeeds
    exactly as there), checks the incoming x once with the error `mul` would
    raise, and multiplies the products of elements unchecked.
    """

    def __init__(self, group: BlackBoxGroup, active: list) -> None:
        self.group = group
        self.active = active
        self._powers = [{} for _ in active]

    def __call__(self, point: tuple) -> tuple:
        group = self.group
        *coords, acc = point
        for i, ((r, b), powers) in enumerate(zip(self.active, self._powers)):
            k = coords[r]
            if type(k) is not int:
                term = group.power(b, k)
            elif k in powers:
                term = powers[k]
            else:
                term = powers[k] = group.power(b, k)
            if not i:
                # Checked after the first power, the order of mul(acc, power(b, k)).
                acc = group._check(acc)
            group.counter.mul += 1
            acc = group._product(acc, term)
        return tuple(coords) + (acc,)


def word_exp_func(basis: DesignatedBasis, bases: Sequence) -> WordExp:
    """Point map (k_1..k_m, x) -> (k_1..k_m, b_1^k_1 ... b_m^k_m x).

    `bases` holds one black-box element per elementary register (identity
    entries for registers that do not participate).  Exponent registers must
    carry integer labels (Z or cyclic) in the basis in force.

    Oracle cost depends on who applies it.  The dense engine reads the
    returned `WordExp`'s active (register, base) pairs and applies the gate
    by `blackbox.coset_walk` of y0 <bases> for each support label y0 not yet
    reached: |<bases>| - 1 + (active bases) `mul` per coset the support meets
    (one for a Fourier opening), no `power`; a label's image is the walk's
    `index` of its `word` plus its exponents.  A per-point call (deblackbox
    extraction, tests) costs one `mul` per active base, plus one `power` per
    distinct (register, exponent) over the gate's lifetime.  Generic
    black-box callables run once per support label on the dense engine.
    """
    group = basis.blackbox
    if group is None:
        raise CircuitError("word-exponent gates need a black-box slot")
    bases = list(bases)
    if len(bases) != len(basis.elementary.factors):
        raise CircuitError("one base element per elementary register")
    for r, (factor, b) in enumerate(zip(basis.elementary.factors, bases)):
        if not group.is_element(b):
            raise CircuitError(f"base {b!r} is not a group element")
        if b != group.identity() and factor.kind == "T":
            raise CircuitError(f"register {r} carries a T label; exponents must be integers")
    return WordExp(group, [(r, b) for r, b in enumerate(bases) if b != group.identity()])


def check_modexp_normalizable(m: int, a, group: BlackBoxGroup, generators: Sequence):
    """Decide whether (k, x) -> (k, a^k x) on Z_M x B is an automorphism gate.

    Returns (True, MatrixRep over Z_M x Z_B) exactly when the order of `a`
    divides M; the emitted matrix is validated.  Otherwise (False, None):
    no normalizer circuit over the finite space approximates the gate.
    ord(a) | M is decided by one `power(a, M)`.
    """
    if m < 1:
        raise CircuitError(f"modulus must be positive, got {m}")
    if group.power(a, m) != group.identity():
        return False, None
    generators = [a] + [g for g in generators if g != a]
    table = bb_decompose_bruteforce(group, generators)
    # a is generator 0, so its beta-coordinates are the first column of B.
    matrix = identity_matrix(1 + len(table.c))
    for i, row in enumerate(table.b):
        matrix[i + 1][0] = row[0]
    target_group = ElementaryGroup((cyclic(m),) + tuple(cyclic(c) for c in table.c))
    return True, validate_matrix_rep(matrix, target_group)


# ---------------------------------------------------------------------------
# circuit file format
# ---------------------------------------------------------------------------


_GATE_KEYS = ("qft", "automorphism", "quadratic", "bb_automorphism")

# The keys each object of a circuit file may hold, required ones first and
# then optional ones: exactly the keys circuit_to_json and group_descriptor
# write.  A gate entry holds its gate key (and "over" for a QFT); the
# payloads under the other three gate keys hold the keys listed here.
_HEADER_KEYS = (("group",), ("initial_basis", "gates"))
_GROUP_KEYS = (("elementary",), ("blackbox",))
_DESCRIPTOR_KEYS = {"zn_star": ("type", "N"), "ec": ("type", "p", "a", "b")}
_PAYLOAD_KEYS = {
    "automorphism": (("matrix",), ()),
    "quadratic": (("M", "v"), ()),
    "bb_automorphism": (("name", "bases"), ("n_out",)),
}


def _fields(value, name: str, required: tuple, optional: tuple = ()) -> dict:
    """`value` itself when it is an object with every required key and no
    key outside `required` and `optional`; CircuitError naming it otherwise."""
    if type(value) is not dict:
        raise CircuitError(f"{name} must be an object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(required) - set(optional), key=str)
    if unknown:
        raise CircuitError(f"{name} has unknown keys {unknown}")
    missing = [key for key in required if key not in value]
    if missing:
        raise CircuitError(f"{name} lacks keys {missing}")
    return value


def _list(value, name: str) -> list:
    if type(value) is not list:
        raise CircuitError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _format_bb_element(group: BlackBoxGroup, el) -> str:
    if isinstance(group, ZNStarGroup):
        return str(el)
    if isinstance(group, EllipticCurveGroup):
        return "O" if el is None else f"{el[0]},{el[1]}"
    return group.encode(el)


def _parse_bb_element(group: BlackBoxGroup, text: str):
    """The unit (a decimal integer) or curve point (`x,y` or `O`) `text` names.
    Bad syntax raises ValueError, a well-formed non-element CircuitError."""
    if not isinstance(group, (ZNStarGroup, EllipticCurveGroup)):
        raise CircuitError(f"cannot parse elements of {group!r}")
    if type(text) is not str:
        raise CircuitError(f"a black-box element must be a string, got {text!r}")
    unit = isinstance(group, ZNStarGroup)
    try:
        if unit:
            el = int(text)
        elif text.strip() == "O":
            el = None
        else:
            x, y = (int(part) for part in text.split(","))
            el = (x, y)
    except ValueError:
        grammar = ("a unit is a decimal integer" if unit
                   else "a curve point is x,y in decimal integers, or O")
        raise ValueError(f"malformed element {text!r}: {grammar}") from None
    if not group.is_element(el):
        raise CircuitError(f"{text!r} is not an element of {group!r}")
    return el


def group_descriptor(group: BlackBoxGroup) -> dict:
    if isinstance(group, ZNStarGroup):
        values = ("zn_star", group.modulus)
    elif isinstance(group, EllipticCurveGroup):
        values = ("ec", group.p, group.a, group.b)
    else:
        raise CircuitError(f"no descriptor for {group!r}")
    return dict(zip(_DESCRIPTOR_KEYS[values[0]], values))


def group_from_descriptor(desc: dict) -> BlackBoxGroup:
    kind = desc.get("type") if type(desc) is dict else None
    if kind not in _DESCRIPTOR_KEYS:
        raise CircuitError(f"unknown group descriptor {desc!r}")
    keys = _DESCRIPTOR_KEYS[kind]
    _fields(desc, f"the {kind} descriptor", keys)
    for key in keys[1:]:
        if type(desc[key]) is not int:
            message = f"{key} must be an integer, got {desc[key]!r}"
            raise CircuitError(f"the {kind} descriptor: {message}")
    values = [desc[key] for key in keys[1:]]
    return ZNStarGroup(*values) if kind == "zn_star" else EllipticCurveGroup(*values)


def _rational_to_json(value: Fraction) -> str:
    return str(value)


def _rational_from_json(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise CircuitError(f"bad rational literal {text!r}") from exc


# What reading a malformed circuit document raises (GroupError, InvalidGate
# and CircuitError are ValueErrors).
_MALFORMED = (KeyError, TypeError, AttributeError, ValueError)


def _rational_rows(value, name: str) -> list[list[Fraction]]:
    return [
        [_rational_from_json(x) for x in _list(row, f"a row of {name}")]
        for row in _list(value, name)
    ]


def _underlying(group: ElementaryGroup) -> ElementaryGroup:
    """The group with every infinite register written as Z."""
    return ElementaryGroup(tuple(Factor("Z") if f.kind == "T" else f for f in group.factors))


def circuit_to_json(circuit: NormalizerCircuit) -> dict:
    basis = circuit.initial_basis
    doc: dict = {
        "group": {"elementary": format_group(_underlying(basis.elementary))},
        "initial_basis": format_group(basis.elementary),
        "gates": [],
    }
    if basis.blackbox is not None:
        doc["group"]["blackbox"] = group_descriptor(basis.blackbox)
    for gate in circuit.gates:
        if isinstance(gate, QFTGate):
            entry: dict = {"qft": list(gate.registers)}
            if gate.over:
                entry["over"] = gate.over
        elif isinstance(gate, AutomorphismGate):
            if gate.is_black_box:
                if gate.name != "word_exp":
                    raise CircuitError(
                        f"black-box gate {gate.name!r} has no file representation"
                    )
                entry = {
                    "bb_automorphism": {
                        "name": "word_exp",
                        "bases": [
                            _format_bb_element(basis.blackbox, b)
                            for b in gate.params["bases"]
                        ],
                    }
                }
                if gate.n_out is not None:
                    entry["bb_automorphism"]["n_out"] = gate.n_out
            else:
                entry = {
                    "automorphism": {
                        "matrix": [
                            [_rational_to_json(x) for x in row]
                            for row in gate.rep.matrix
                        ]
                    }
                }
        elif isinstance(gate, QuadraticGate):
            if gate.is_black_box:
                raise CircuitError("black-box phase gates have no file representation")
            entry = {
                "quadratic": {
                    "M": [[_rational_to_json(x) for x in row] for row in gate.form.m],
                    "v": [_rational_to_json(x) for x in gate.form.v],
                }
            }
        else:
            raise CircuitError(f"unknown gate type {type(gate).__name__}")
        doc["gates"].append(entry)
    return doc


def circuit_from_json(doc: dict) -> NormalizerCircuit:
    """The circuit a parsed circuit file describes; any malformed part of the
    document raises CircuitError."""
    try:
        _fields(doc, "the circuit file", *_HEADER_KEYS)
        group_doc = _fields(doc["group"], "the group", *_GROUP_KEYS)
        underlying = parse_group(group_doc["elementary"])
        elementary = parse_group(doc.get("initial_basis") or group_doc["elementary"])
        blackbox = None
        if "blackbox" in group_doc:
            blackbox = group_from_descriptor(group_doc["blackbox"])
        entries = _list(doc.get("gates", []), "gates")
    except _MALFORMED as exc:
        raise CircuitError(f"bad circuit header: {exc}") from exc
    if _underlying(elementary) != underlying:
        message = f"initial basis {elementary} is not {underlying} with some Z registers as T"
        raise CircuitError(f"bad circuit header: {message}")
    basis = DesignatedBasis(elementary, blackbox)
    gates: list = []
    current = basis
    for position, entry in enumerate(entries):
        try:
            gate = _gate_from_json(entry, current)
        except _MALFORMED as exc:
            raise CircuitError(f"gate {position}: {exc}") from exc
        gates.append(gate)
        current = _check_gate(gate, current, position)
    return NormalizerCircuit(initial_basis=basis, gates=gates)


def _gate_from_json(entry: dict, basis: DesignatedBasis):
    if type(entry) is not dict:
        raise CircuitError(f"a gate entry must be an object, got {type(entry).__name__}")
    keys = [key for key in _GATE_KEYS if key in entry]
    if len(keys) != 1:
        raise CircuitError(f"a gate entry needs exactly one of {_GATE_KEYS}, got {sorted(entry)}")
    (key,) = keys
    _fields(entry, f"the {key} entry", keys, ("over",) if key == "qft" else ())
    if key == "qft":
        registers = entry["qft"]
        if type(registers) is not list or any(type(r) is not int for r in registers):
            raise CircuitError(f"QFT registers must be a list of integers, got {registers!r}")
        return QFTGate(tuple(registers), entry.get("over"))
    payload = _fields(entry[key], f"the {key} payload", *_PAYLOAD_KEYS[key])
    if key == "automorphism":
        matrix = _rational_rows(payload["matrix"], "the automorphism matrix")
        return AutomorphismGate(rep=validate_matrix_rep(matrix, basis.elementary))
    if key == "quadratic":
        m = _rational_rows(payload["M"], "the quadratic M")
        v = [_rational_from_json(x) for x in _list(payload["v"], "the quadratic v")]
        return QuadraticGate(form=validate_quadratic(m, v, basis.elementary))
    if payload["name"] != "word_exp":
        raise CircuitError(f"unknown black-box gate {payload['name']!r}")
    if basis.blackbox is None:
        raise CircuitError("word_exp needs a black-box slot")
    bases = [
        _parse_bb_element(basis.blackbox, text)
        for text in _list(payload["bases"], "word_exp bases")
    ]
    n_out = payload.get("n_out")
    if n_out is not None and (type(n_out) is not int or n_out < 0):
        raise CircuitError(f"n_out must be a non-negative integer, got {n_out!r}")
    return AutomorphismGate(
        func=word_exp_func(basis, bases),
        name="word_exp",
        n_out=n_out,
        params={"bases": bases},
    )


def load_circuit(path) -> NormalizerCircuit:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CircuitError(f"malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    return circuit_from_json(doc)


def save_circuit(circuit: NormalizerCircuit, path) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_json(circuit), fh, indent=2)
        fh.write("\n")
