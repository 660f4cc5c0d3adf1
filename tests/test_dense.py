"""Tests for the dense state-vector oracle."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normsim.blackbox import BlackBoxError, ZNStarGroup, cayley_relations
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
from normsim.coset import coset_run
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
    assert complex(state.amplitudes.flat[state.flat_index((6,))]) == pytest.approx(1.0)


def test_quadratic_phases_are_diagonal():
    g = cyclic_group(4)
    basis = DesignatedBasis(g)
    form = validate_quadratic([[Fraction(1, 4)]], [0], g)
    circuit = NormalizerCircuit(basis, [QFTGate((0,)), QuadraticGate(form=form)])
    state = dense_run(circuit, (0,))
    for x in range(4):
        expected = 0.5 * np.exp(2j * np.pi * float(form.exponent(g.element(x))))
        assert complex(state.amplitudes.flat[state.flat_index((x,))]) == pytest.approx(expected)


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


@st.composite
def prepared_qft_cases(draw):
    """(basis, amplitudes, registers): registers of size 1 to 8, with or
    without a black-box slot, a random normalized state on them, and a
    random ordered subset of the registers, possibly empty."""
    moduli = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    blackbox = draw(st.sampled_from([None, ZNStarGroup(5), ZNStarGroup(9)]))
    basis = DesignatedBasis(cyclic_group(*moduli), blackbox)
    order = draw(st.permutations(range(len(moduli))))
    registers = tuple(order[: draw(st.integers(0, len(moduli)))])
    shape = moduli + ([blackbox.order()] if blackbox else [])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitudes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return basis, amplitudes / np.linalg.norm(amplitudes), registers


@settings(max_examples=200, deadline=None)
@given(prepared_qft_cases())
def test_qft_gate_matches_reference_dft_matrices(case):
    from unittest import mock

    from helpers import reference_qft
    from normsim import dense

    basis, amplitudes, registers = case
    # dense_run starts from a basis state; the patch hands it the prepared
    # state, so the gate runs through the engine's own loop and norm check.
    initial_state = dense._initial_state

    def prepared(basis, point, cap):
        state, start = initial_state(basis, point, cap)
        state.amplitudes = amplitudes.copy()
        return state, start

    point = (0,) * len(basis.elementary.factors) + ((1,) if basis.blackbox else ())
    with mock.patch.object(dense, "_initial_state", prepared):
        state = dense_run(NormalizerCircuit(basis, [QFTGate(registers)]), point)
    expected = reference_qft(amplitudes, registers)
    assert state.amplitudes.shape == expected.shape
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


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
    support = set(state.probabilities(1e-9))
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


def test_dense_sample_equals_generator_choice():
    """The same counts, in the same order, as `rng.choice(p=...)`, and the
    generator left in the same state."""
    from helpers import reference_dense_sample

    for index, (circuit, point) in enumerate(_black_box_cases()):
        state = dense_run(circuit, point)
        for shots in (0, 1, 7, 500):
            rng, reference_rng = np.random.default_rng(index), np.random.default_rng(index)
            got = dense_sample(state, shots, rng)
            expected = reference_dense_sample(state, shots, reference_rng)
            assert list(got.items()) == list(expected.items())
            assert rng.random() == reference_rng.random()


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_dense_sample_rejects_a_zero_or_nan_state(fill):
    from helpers import reference_dense_sample

    state = dense_run(NormalizerCircuit(DesignatedBasis(cyclic_group(3)), []), (0,))
    state.amplitudes = np.full_like(state.amplitudes, fill)
    with pytest.raises(ValueError):
        dense_sample(state, 2, np.random.default_rng(0))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        reference_dense_sample(state, 2, np.random.default_rng(0))


class _TopDraws:
    """Every uniform draw is 1 - 2^-53, the largest value Generator.random gives."""

    def random(self, size):
        return np.full(size, 1 - 2**-53)


def test_the_largest_uniform_draw_lands_on_the_last_outcome():
    # Ten equal probabilities sum to 1 - 2^-53 in floating point, so the
    # cumulative sums must be rescaled to end at exactly 1.
    state = dense_run(NormalizerCircuit(DesignatedBasis(cyclic_group(10)), [QFTGate((0,))]), (0,))
    flat = np.abs(state.amplitudes) ** 2
    assert (flat / flat.sum()).cumsum()[-1] == 1 - 2**-53
    assert dense_sample(state, 3, _TopDraws()) == Counter({(9,): 3})


def test_dense_cap_is_checked_before_the_labels_are_listed():
    class Unlistable(ZNStarGroup):
        def elements(self):
            raise AssertionError("the labels were listed before the cap check")

    basis = DesignatedBasis(cyclic_group(2), Unlistable(10**6 + 3))
    with pytest.raises(CircuitError, match="exceeds cap"):
        dense_run(NormalizerCircuit(basis, [QFTGate((0,))]), (0, 1))


def test_dense_cap_applies_to_the_exact_order_when_only_the_floor_fits():
    # N = 65537 * 65539 has no factor below the trial bound: its floor
    # 2 isqrt(N // 2) = 92684 fits a cap of 10^5, but 2 phi(N) does not.
    class Unlistable(ZNStarGroup):
        def elements(self):
            raise AssertionError("the labels were listed before the cap check")

    blackbox = Unlistable(65537 * 65539)
    assert blackbox.order_within(46341) == (46342, False)
    basis = DesignatedBasis(cyclic_group(2), blackbox)
    with pytest.raises(CircuitError, match="^dense dimension 8590196736 exceeds cap 100000$"):
        dense_run(NormalizerCircuit(basis, [QFTGate((0,))]), (0, 1), cap=100000)


def test_dense_rejects_infinite_and_oversized():
    basis = DesignatedBasis(group(Z))
    with pytest.raises(CircuitError):
        dense_run(NormalizerCircuit(basis, []), (0,))
    big = DesignatedBasis(cyclic_group(128, 128))
    with pytest.raises(CircuitError, match="cap"):
        dense_run(NormalizerCircuit(big, []), (0, 0))


def _oracle_calls(circuit, point) -> int:
    group = circuit.initial_basis.blackbox
    before = group.counter.total
    dense_run(circuit, point)
    return group.counter.total - before


def test_word_exp_gates_cost_one_coset_walk():
    # The dense engine applies word_exp by one walk of the coset y0 <b> that
    # the support meets: one mul per element past y0 and one closing product
    # per active base, no power.  Each of these gates has two active bases
    # and a second base inside <first base>, so it costs |<b>| - 1 + 2:
    # 16 + 1 for Z_17^* = <3>, 6 + 1 for the curve's <(2, 1)>, 4 + 1 for the
    # oracle's group.
    from normsim.algorithms import (
        HSPInstance,
        OracularGroup,
        dlog_circuit,
        ec_dlog_circuit,
        hsp_circuit,
    )
    from normsim.blackbox import EllipticCurveGroup

    assert _oracle_calls(dlog_circuit(17, 3, 5), (0, 0, 1)) == 17
    curve = EllipticCurveGroup(7, 2, 3)
    assert _oracle_calls(ec_dlog_circuit(curve, (2, 1), (3, 6), 6), (0, 0, None)) == 7
    domain = cyclic_group(4, 2)
    instance = HSPInstance(group=domain, oracle=lambda c: (int(c[0]) % 2, int(c[1])))
    oracular = OracularGroup(domain, instance.oracle)
    circuit = hsp_circuit(instance, oracular)
    assert _oracle_calls(circuit, (0, 0, oracular.identity())) == 5


def _reference_run(monkeypatch, circuit, point):
    """dense_run with the per-label reference black-box gates swapped in."""
    from helpers import reference_black_box_gates

    with reference_black_box_gates(monkeypatch):
        return dense_run(circuit, point)


def _black_box_cases():
    """(circuit, input point) pairs whose gates include black-box callables."""
    from helpers import random_circuit, random_finite_group
    from normsim.algorithms import (
        HSPInstance,
        OracularGroup,
        dlog_circuit,
        ec_dlog_circuit,
        hsp_circuit,
    )
    from normsim.blackbox import EllipticCurveGroup, bb_order

    for p in (3, 5, 7, 11, 13):
        group = ZNStarGroup(p)
        a = next(x for x in group.elements() if bb_order(group, x) == p - 1)
        for s in (0, 1, p - 2):
            yield dlog_circuit(p, a, pow(a, s, p)), (0, 0, 1)
    for params in [(7, 2, 3), (11, 1, 1)]:
        curve = EllipticCurveGroup(*params)
        points = [pt for pt in curve.elements() if pt is not None]
        base = max(points, key=lambda pt: bb_order(curve, pt))
        n = bb_order(curve, base)
        yield ec_dlog_circuit(curve, base, curve.power(base, 3), n), (0, 0, None)
    domain = cyclic_group(4, 2)
    instance = HSPInstance(group=domain, oracle=lambda c: (int(c[0]) % 2, int(c[1])))
    oracular = OracularGroup(domain, instance.oracle)
    yield hsp_circuit(instance, oracular), (0, 0, oracular.identity())

    def word_exp_circuit(moduli, n, bases):
        basis = DesignatedBasis(cyclic_group(*moduli), ZNStarGroup(n))
        registers = tuple(range(len(moduli)))
        gate = AutomorphismGate(func=word_exp_func(basis, bases), name="word_exp")
        return NormalizerCircuit(basis, [QFTGate(registers), gate, QFTGate(registers)])

    # word_exp's coset walk: a base of order 4 on Z_5, order finding's
    # shape, an identity base between active ones, three active bases, a
    # base inside <earlier bases> (4 = 2^2, closing at m = 1), and inputs
    # whose black-box label is not the identity.
    yield word_exp_circuit((5,), 15, [2]), (0, 1)
    yield word_exp_circuit((4, 3), 15, [7, 1]), (0, 0, 1)
    yield word_exp_circuit((3, 2, 4), 15, [2, 1, 7]), (0, 0, 0, 4)
    yield word_exp_circuit((4, 2, 3), 21, [2, 20, 4]), (1, 0, 2, 5)
    yield word_exp_circuit((4, 3), 15, [2, 4]), (0, 0, 7)
    yield word_exp_circuit((4, 3), 15, [2, 4]), (2, 1, 13)
    # No homomorphism of Z_2^2: ord 8 = 2 but ord 4 = 3, whose powers the
    # walk reads off exactly all the same.
    for start in [(0, 0, 1), (0, 0, 5), (1, 1, 1)]:
        yield ec_dlog_circuit(ZNStarGroup(21), 8, 4, 2), start
    # Three active bases over an oracle's group, from the identity and off it.
    planted = _fourier_group(("planted", (2, 3, 4), (0, 0, 2)))
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    circuit = _fourier_circuit(DesignatedBasis(cyclic_group(2, 3, 4), planted), units, (0, 1, 2))
    for start in [(0, 0, 0, (0, 0, 0)), (0, 0, 0, (1, 2, 1)), (1, 0, 3, (0, 1, 1))]:
        yield circuit, start
    # A spread y -> y 2^x_0 puts the support on the cosets {7, 13} and
    # {11, 14} of <4> and on both cosets of <4, 11>: one walk per coset met.
    domain = cyclic_group(4, 2)
    basis = DesignatedBasis(domain, ZNStarGroup(15))
    spread = AutomorphismGate(func=lambda pt: (pt[0], pt[1], pt[2] * pow(2, pt[0], 15) % 15))
    phase = QuadraticGate(form=validate_quadratic([[Fraction(1, 4), 0], [0, 0]], [0, 0], domain))
    for bases in ([4, 1], [4, 11]):
        gate = AutomorphismGate(func=word_exp_func(basis, bases), name="word_exp")
        gates = [QFTGate((0, 1)), spread, phase, gate, QFTGate((0, 1))]
        yield NormalizerCircuit(basis, gates), (0, 0, 7)
    # After a shear and a phase the support is a diagonal, not a box.
    domain = cyclic_group(4, 4)
    basis = DesignatedBasis(domain, ZNStarGroup(15))
    shear = validate_matrix_rep([[1, 0], [1, 1]], domain)
    quarter = Fraction(1, 4)
    form = validate_quadratic([[quarter, quarter], [quarter, 0]], [0, 0], domain)
    gates = [
        QFTGate((0,)),
        AutomorphismGate(rep=shear),
        QuadraticGate(form=form),
        AutomorphismGate(func=word_exp_func(basis, [2, 7]), name="word_exp"),
        QFTGate((0, 1)),
    ]
    yield NormalizerCircuit(basis, gates), (0, 1, 7)
    rng = np.random.default_rng(2024)
    for _ in range(12):
        domain = random_finite_group(rng, max_order=96, max_factors=3)
        circuit = random_circuit(domain, rng, gate_count=6)
        # Every other normal-form gate runs as the equivalent black box.
        gates = []
        for position, gate in enumerate(circuit.gates):
            if position % 2 and isinstance(gate, QuadraticGate):
                form = gate.form
                gate = QuadraticGate(func=lambda pt, f=form, g=domain: f.exponent(g.reduce(pt)))
            elif position % 2 and isinstance(gate, AutomorphismGate):
                rep = gate.rep
                gate = AutomorphismGate(
                    func=lambda pt, r=rep, g=domain: r.apply(g.reduce(pt)).coords
                )
            gates.append(gate)
        gates.append(QuadraticGate(func=lambda pt: Fraction(sum(pt) ** 2 % 7, 7)))
        start = tuple(int(rng.integers(f.modulus)) for f in domain.factors)
        yield NormalizerCircuit(circuit.initial_basis, gates), start


def test_batched_black_box_gates_match_the_per_label_loops(monkeypatch):
    from helpers import reference_point

    for circuit, point in _black_box_cases():
        state = dense_run(circuit, point)
        reference = _reference_run(monkeypatch, circuit, point)
        assert state.amplitudes.tobytes() == reference.amplitudes.tobytes()
        probs = np.abs(reference.amplitudes.reshape(-1)) ** 2
        expected = [
            (reference_point(reference, i), float(probs[i]))
            for i in np.flatnonzero(probs > 1e-12)
        ]
        assert list(state.probabilities().items()) == expected
        draws = np.random.default_rng(5).choice(probs.size, size=40, p=probs / probs.sum())
        expected_counts = Counter(reference_point(reference, i) for i in draws.tolist())
        sampled = dense_sample(state, 40, np.random.default_rng(5))
        assert list(sampled.items()) == list(expected_counts.items())


def test_black_box_gate_images_are_still_checked():
    basis = DesignatedBasis(cyclic_group(4), ZNStarGroup(7))

    def run(func):
        circuit = NormalizerCircuit(basis, [QFTGate((0,)), AutomorphismGate(func=func)])
        return dense_run(circuit, (0, 1))

    with pytest.raises(CircuitError, match=r"^0 is not in the black-box group$"):
        run(lambda pt: (pt[0], 0))
    with pytest.raises(
        CircuitError, match=r"^point needs 1 coordinates plus a group element$"
    ):
        run(lambda pt: (pt[0],))


def test_word_exp_table_images_are_still_checked():
    # A product outside the group fails with make_point's error, the error
    # every other black-box gate's images fail with; the Cayley walk, keyed
    # by encoding, fails with the backend's.  Both count the two products
    # made, 1 * 3 and 3 * 3.
    class Unreduced(ZNStarGroup):
        def _product(self, x, y):
            return x * y  # 3 * 3 = 9 is no unit mod 7

    group = Unreduced(7)
    basis = DesignatedBasis(cyclic_group(6), group)
    gate = AutomorphismGate(func=word_exp_func(basis, [3]), name="word_exp")
    circuit = NormalizerCircuit(basis, [QFTGate((0,)), gate])
    with pytest.raises(CircuitError, match=r"^9 is not in the black-box group$"):
        dense_run(circuit, (0, 1))
    assert group.counter.total == 2
    group = Unreduced(7)
    with pytest.raises(BlackBoxError, match=r"^9 is not a unit modulo 7$"):
        cayley_relations(group, [3])
    assert group.counter.total == 2


def test_non_injective_black_box_automorphism_drifts_the_norm():
    # The per-label path: a callable sending every point to one label.
    basis = DesignatedBasis(cyclic_group(4), ZNStarGroup(7))
    circuit = NormalizerCircuit(basis, [QFTGate((0,)), AutomorphismGate(func=lambda pt: (0, 1))])
    with pytest.raises(CircuitError, match=r"^norm drifted to 2\.0$"):
        dense_run(circuit, (0, 1))


def test_non_injective_word_exp_table_drifts_the_norm():
    # The translation-table path: every product lands on 1, so the labels 1
    # and 3 at x = 1 meet, and their amplitudes +1/2 and -1/2 cancel.
    class Collapsing(ZNStarGroup):
        def _product(self, x, y):
            return 1

    basis = DesignatedBasis(cyclic_group(2), Collapsing(7))
    spread = AutomorphismGate(func=lambda pt: (pt[0], pt[1] * pow(3, pt[0], 7) % 7))
    gate = AutomorphismGate(func=word_exp_func(basis, [3]), name="word_exp")
    circuit = NormalizerCircuit(basis, [QFTGate((0,)), spread, QFTGate((0,)), gate])
    with pytest.raises(CircuitError, match=r"^norm drifted to 0\.7071"):
        dense_run(circuit, (0, 1))


@st.composite
def raw_points(draw):
    """(with black box, points): raw values of every kind `make_point` may
    meet, at the right length and off by one."""
    with_bb = draw(st.booleans())
    width = 2 + with_bb
    value = st.sampled_from(
        [0, 1, 2, 3, 5, -7, 9, 1.0, 2.5, np.int64(2), True, Fraction(3), Fraction(1, 2)]
    )
    lengths = st.sampled_from([width, width, width, width - 1, width + 1])
    point = lengths.flatmap(lambda n: st.tuples(*[value] * n))
    return with_bb, draw(st.lists(point, max_size=6))


def _reduce_reference(basis, values) -> tuple:
    """`make_point` as it read when it reduced through `ElementaryGroup.reduce`."""
    n = len(basis.elementary.factors)
    if basis.blackbox is None:
        if len(values) != n:
            raise CircuitError(f"point needs {n} coordinates")
        return basis.elementary.reduce(values).coords
    if len(values) != n + 1:
        raise CircuitError(f"point needs {n} coordinates plus a group element")
    if not basis.blackbox.is_element(values[-1]):
        raise CircuitError(f"{values[-1]!r} is not in the black-box group")
    return basis.elementary.reduce(values[:-1]).coords + (values[-1],)


@settings(max_examples=300, deadline=None)
@given(raw_points())
@example((True, [(0, 0, 1.0)]))
@example((True, [(0, 0, np.int64(2))]))
@example((True, [(1, 2, 3), (0, 0, True)]))
@example((True, [(Fraction(3), np.int64(2), True), (Fraction(1, 2), 0, 2)]))
@example((False, [(2, 1), (5,), (1, 2, 3)]))
def test_points_are_checked_as_through_group_reduce(draw):
    # make_point accepts, reduces and rejects what the GroupElement-building
    # reduction did, with the same errors; flat_indices rejects a batch
    # exactly when some point is rejected, with that point's error.
    with_bb, points = draw
    basis = DesignatedBasis(cyclic_group(4, 3), ZNStarGroup(9) if with_bb else None)
    state = dense_run(NormalizerCircuit(basis, []), (0, 0, 1) if with_bb else (0, 0))
    rows, errors = [], []
    for p in points:
        try:
            rows.append(_reduce_reference(basis, p))
        except Exception as exc:
            errors.append((type(exc), str(exc)))
            with pytest.raises(type(exc)) as raised:
                basis.make_point(p)
            assert str(raised.value) == str(exc)
        else:
            made = basis.make_point(p)
            assert made == rows[-1]
            assert tuple(map(type, made)) == tuple(map(type, rows[-1]))
    if errors:
        with pytest.raises(Exception) as raised:
            state.flat_indices(points)
        assert (type(raised.value), str(raised.value)) in errors
        return
    if with_bb:
        rows = [row[:-1] + (state.bb_labels.index(row[-1]),) for row in rows]
    expected = [int(np.ravel_multi_index(row, state.amplitudes.shape)) for row in rows]
    assert state.flat_indices(points).tolist() == expected


def test_basis_without_elementary_registers():
    from normsim.groups import ElementaryGroup

    state = dense_run(NormalizerCircuit(DesignatedBasis(ElementaryGroup([])), []), ())
    assert state.probabilities() == {(): 1.0}
    assert dense_sample(state, 3, np.random.default_rng(0)) == {(): 3}
    basis = DesignatedBasis(ElementaryGroup([]), ZNStarGroup(5))
    cube = AutomorphismGate(func=lambda pt: (pt[0] ** 3 % 5,))
    state = dense_run(NormalizerCircuit(basis, [cube]), (2,))
    assert state.probabilities() == {(3,): 1.0}


SHOR_CURVES = [(5, 1, 1), (7, 3, 1), (11, 1, 1), (13, 2, 2), (17, 2, 4)]


def _fourier_group(spec):
    """The black-box group of a spec: ("zn_star", N), ("curve", (p, a, b))
    or ("planted", moduli, h), an oracle on Z_moduli hiding the subgroup
    generated by h, labelling each coset by its least member."""
    from normsim.algorithms import OracularGroup
    from normsim.blackbox import EllipticCurveGroup

    kind, *args = spec
    if kind == "zn_star":
        return ZNStarGroup(*args)
    if kind == "curve":
        return EllipticCurveGroup(*args[0])
    moduli, hidden = args

    def oracle(coords):
        return min(
            tuple((int(c) + k * h) % m for c, h, m in zip(coords, hidden, moduli))
            for k in range(math.prod(moduli))
        )

    return OracularGroup(cyclic_group(*moduli), oracle)


@st.composite
def fourier_openings(draw):
    """(spec, bases, moduli, start, registers) of a circuit QFT(registers),
    word_exp(bases), QFT(all) over Z_moduli x B: 1-3 registers, a first QFT
    over a permutation of every register or (less often) over a strict
    subset, and a start at 0 on every elementary register three times in
    four, at any black-box label."""
    kind = draw(st.sampled_from(["zn_star", "curve", "planted"]))
    if kind == "zn_star":
        spec = (kind, draw(st.integers(2, 64)))
    elif kind == "curve":
        spec = (kind, draw(st.sampled_from(SHOR_CURVES)))
    else:
        domain = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
        spec = (kind, domain, tuple(draw(st.integers(0, m - 1)) for m in domain))
    group = _fourier_group(spec)
    elements = sorted(group.elements(), key=group.encode)
    if kind == "planted":
        # hsp_circuit's bases: the oracle at each unit vector.
        moduli = spec[1]
        units = [tuple(int(i == j) for j in range(len(moduli))) for i in range(len(moduli))]
        bases = [group.oracle(unit) for unit in units]
    else:
        bases = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3))
        moduli = tuple(draw(st.integers(1, 8)) for _ in bases)
    n = len(moduli)
    order = draw(st.permutations(range(n)))
    registers = tuple(order[: draw(st.sampled_from([n, n, n, *range(n)]))])
    if draw(st.booleans()) or draw(st.booleans()):
        x = (0,) * n
    else:
        x = tuple(draw(st.integers(0, m - 1)) for m in moduli)
    return spec, bases, moduli, x + (draw(st.sampled_from(elements)),), registers


def _fourier_circuit(basis, bases, registers):
    gate = AutomorphismGate(func=word_exp_func(basis, bases), name="word_exp")
    every = tuple(range(len(basis.elementary.factors)))
    return NormalizerCircuit(basis, [QFTGate(registers), gate, QFTGate(every)])


@settings(max_examples=150, deadline=None)
@given(fourier_openings())
# Z_6^3 x Z_7^* and the (2, 3, 4) hidden-subgroup domain: three registers.
@example((("zn_star", 7), [3, 2, 6], (6, 6, 6), (0, 0, 0, 1), (0, 1, 2)))
@example(
    (
        ("planted", (2, 3, 4), (0, 0, 2)),
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        (2, 3, 4),
        (0, 0, 0, (0, 0, 0)),
        (0, 1, 2),
    )
)
# Mixed moduli whose scale factors round differently in another order.
@example((("zn_star", 31), [30, 5, 2], (2, 3, 5), (0, 0, 0, 1), (0, 1, 2)))
@example((("zn_star", 31), [30, 5, 2], (2, 3, 5), (0, 0, 0, 1), (2, 0, 1)))
# A curve, whose identity is not the first label, and a start off the identity.
@example((("curve", (5, 1, 1)), [(0, 1), (2, 1)], (9, 9), (0, 0, None), (0, 1)))
@example((("zn_star", 15), [2, 7], (4, 4), (0, 0, 13), (1, 0)))
# A nonzero elementary start, and a first QFT over a strict subset.
@example((("zn_star", 7), [3, 6], (6, 6), (1, 2, 3), (0, 1)))
@example((("zn_star", 15), [2, 7], (4, 4), (0, 0, 1), (1,)))
# Identity bases, a base inside <earlier bases> (closing at m = 1), and
# three active bases over an oracle's group from a label off the identity.
@example((("zn_star", 15), [2, 1, 7], (4, 3, 4), (0, 0, 0, 11), (0, 1, 2)))
@example((("zn_star", 15), [2, 4], (4, 3), (0, 0, 7), (0, 1)))
@example(
    (
        ("planted", (2, 3, 4), (0, 0, 2)),
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        (2, 3, 4),
        (0, 0, 0, (1, 2, 1)),
        (2, 1, 0),
    )
)
# ord 4 = 3 does not divide the register's 2: no homomorphism, read off exactly.
@example((("zn_star", 21), [8, 4], (2, 2), (0, 0, 5), (0, 1)))
def test_fourier_opening_matches_the_gatewise_run(case):
    # The closed-form opening gives the bytes, the labels and the oracle
    # cost of applying the QFT and word_exp gates one after the other, and
    # the bytes and labels of the per-label reference loops, which multiply
    # out each label's powers instead of walking the coset.
    from helpers import dense_run_gatewise, reference_black_box_gates

    spec, bases, moduli, start, registers = case
    group = _fourier_group(spec)
    circuit = _fourier_circuit(DesignatedBasis(cyclic_group(*moduli), group), bases, registers)
    before = group.counter.mul
    state = dense_run(circuit, start, cap=1 << 15)
    middle = group.counter.mul
    gatewise = dense_run_gatewise(circuit, start, cap=1 << 15)
    assert middle - before == group.counter.mul - middle
    with pytest.MonkeyPatch.context() as patch, reference_black_box_gates(patch):
        reference = dense_run(circuit, start, cap=1 << 15)
    for other in (gatewise, reference):
        assert state.amplitudes.tobytes() == other.amplitudes.tobytes()
        assert state.bb_labels == other.bb_labels


def _closure_size(group, bases) -> int:
    """|<bases>|, by breadth-first multiplication on the uncounted product."""
    reached, frontier = {group.identity()}, [group.identity()]
    while frontier:
        x = frontier.pop()
        for b in bases:
            y = group._product(x, b)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached)


@pytest.mark.parametrize(
    "spec, bases, moduli, others",
    [
        pytest.param(("zn_star", 17), [3, 5], (16, 16), [2, 10], id="Z17* second base inside"),
        pytest.param(("zn_star", 15), [2, 1, 7], (4, 3, 4), [7, 14], id="Z15* identity base"),
        pytest.param(("zn_star", 21), [8, 4], (2, 2), [5, 20], id="Z21* non-homomorphic"),
        pytest.param(("curve", (7, 2, 3)), [(2, 1), (3, 6)], (6, 6), [(2, 1)], id="curve"),
        pytest.param(
            ("planted", (2, 3, 4), (0, 0, 2)),
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            (2, 3, 4),
            [(1, 2, 1)],
            id="oracle k=3",
        ),
    ],
)
def test_every_product_of_the_walk_is_counted(spec, bases, moduli, others, monkeypatch):
    # Both word_exp paths count exactly the products they make, and one
    # coset walk makes |<b>| - 1 + (active bases): the opening from
    # |0, y0>, and the gate-by-gate path from a nonzero x_0 (the first QFT
    # spreads x, the support stays on the one label y0).
    group = _fourier_group(spec)
    walk = _closure_size(group, bases) - 1 + sum(b != group.identity() for b in bases)
    made = []
    product = group._product
    monkeypatch.setattr(group, "_product", lambda x, y: made.append(1) or product(x, y))
    basis = DesignatedBasis(cyclic_group(*moduli), group)
    circuit = _fourier_circuit(basis, bases, tuple(range(len(moduli))))
    for y0 in [group.identity(), *others]:
        for x0 in (0, 1):
            made.clear()
            before = group.counter.mul
            dense_run(circuit, (x0,) + (0,) * (len(moduli) - 1) + (y0,))
            assert group.counter.mul - before == len(made) == walk


def test_the_gatewise_path_walks_each_coset_the_support_meets_once(monkeypatch):
    # After y -> y 2^x_0 the support holds 7, 14, 13 and 11: two cosets of
    # <4> and two of <4, 11>, so two walks, each counted exactly.
    domain = cyclic_group(4, 2)
    group = ZNStarGroup(15)
    basis = DesignatedBasis(domain, group)
    spread = AutomorphismGate(func=lambda pt: (pt[0], pt[1], pt[2] * pow(2, pt[0], 15) % 15))
    made = []
    product = group._product
    monkeypatch.setattr(group, "_product", lambda x, y: made.append(1) or product(x, y))
    for bases, walk in (([4, 1], 2 - 1 + 1), ([4, 11], 4 - 1 + 2)):
        gate = AutomorphismGate(func=word_exp_func(basis, bases), name="word_exp")
        made.clear()
        before = group.counter.mul
        dense_run(NormalizerCircuit(basis, [QFTGate((0, 1)), spread, gate]), (0, 0, 7))
        assert group.counter.mul - before == len(made) == 2 * walk


def _counted_transforms(monkeypatch, circuit, point) -> int:
    from normsim import dense

    apply_qft, calls = dense._apply_qft, []

    def counted(*args, **kwargs):
        calls.append(1)
        return apply_qft(*args, **kwargs)

    monkeypatch.setattr(dense, "_apply_qft", counted)
    dense_run(circuit, point)
    return len(calls)


def test_a_fourier_opening_from_zero_costs_one_transform(monkeypatch):
    # From |0, 0, 1> the opening QFT is built in closed form, so only the
    # closing QFT transforms; from |1, 0, 1> both QFTs do.
    from normsim.algorithms import dlog_circuit

    circuit = dlog_circuit(17, 3, 5)
    assert _counted_transforms(monkeypatch, circuit, (0, 0, 1)) == 1
    assert _counted_transforms(monkeypatch, circuit, (1, 0, 1)) == 2


def test_a_collapsing_word_exp_opening_keeps_the_gatewise_state():
    # Every product is 1, so x = 1 lands on label 1 while x = 0 stays at the
    # start label 3: one label per x slice, so no norm drift on either side.
    from helpers import dense_run_gatewise

    class Collapsing(ZNStarGroup):
        def _product(self, x, y):
            return 1

    basis = DesignatedBasis(cyclic_group(2), Collapsing(7))
    circuit = _fourier_circuit(basis, [3], (0,))
    state = dense_run(circuit, (0, 3))
    reference = dense_run_gatewise(circuit, (0, 3))
    assert state.amplitudes.tobytes() == reference.amplitudes.tobytes()
    assert abs(state.norm() - 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=4).flatmap(
        lambda shape: st.tuples(
            st.just(tuple(shape)),
            st.permutations(range(len(shape))),
            st.integers(0, len(shape)),
            st.integers(0, 2**32 - 1),
        )
    )
)
@example(((3, 5), [0, 1], 2, 0))
@example(((8, 6, 7, 5), [2, 0, 3, 1], 3, 1))
def test_the_per_axis_qft_is_ifftn_byte_for_byte(case):
    # One inverse FFT per register, last register first, is the loop numpy's
    # ifftn runs: the same bytes on any subset of registers in any order.
    from types import SimpleNamespace

    from normsim import dense

    shape, order, count, seed = case
    rng = np.random.default_rng(seed)
    amplitudes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    registers = tuple(order[:count])
    state = SimpleNamespace(amplitudes=amplitudes.copy())
    dense._apply_qft(state, registers)
    expected = np.fft.ifftn(amplitudes, axes=registers, norm="ortho")
    assert state.amplitudes.dtype == expected.dtype
    assert state.amplitudes.tobytes() == expected.tobytes()


def test_both_engines_reject_an_unknown_gate_in_validation():
    g = cyclic_group(4)
    circuit = NormalizerCircuit(DesignatedBasis(g), [QFTGate((0,)), "not a gate"])
    with pytest.raises(CircuitError, match="gate 1: unknown gate type str"):
        dense_run(circuit, (0,))
    with pytest.raises(CircuitError, match="gate 1: unknown gate type str"):
        coset_run(circuit, g.reduce((0,)))
