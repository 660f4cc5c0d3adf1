"""Tests for the circuit IR: normal forms, basis tracking, circuit files."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    FIELD_ERROR_DOCS,
    MALFORMED_CIRCUIT_DOCS,
    assert_quadratic_law,
    leibniz_det,
    random_finite_group,
    random_matrix_rep,
    random_mixed_group,
    random_mixed_matrix_rep,
    reference_bilinear_exponent,
    reference_is_bijective,
)

from normsim.blackbox import EllipticCurveGroup, ZNStarGroup, bb_decompose_bruteforce, bb_order
from normsim.circuits import (
    AutomorphismGate,
    CircuitError,
    DesignatedBasis,
    InvalidGate,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
    apply_qft_basis_update,
    check_modexp_normalizable,
    circuit_from_json,
    circuit_to_json,
    load_circuit,
    label_grid,
    matrix_rep_inverse,
    save_circuit,
    validate_matrix_rep,
    validate_quadratic,
    word_exp_func,
    _scaled_numerators,
)
from normsim.dense import dense_run
from normsim.groups import T, Z, cyclic, cyclic_group, group, parse_group
from normsim.linalg import identity_matrix


def exhaustive_homomorphism_check(rep):
    """Oracle: the matrix action is an additive bijection on all of G."""
    elements = list(rep.group.elements())
    images = [rep.apply(g) for g in elements]
    if len(set(images)) != len(elements):
        return False
    for g in elements:
        for h in elements:
            if rep.apply(g + h) != rep.apply(g) + rep.apply(h):
                return False
    return True


# ---------------------------------------------------------------------------
# matrix representations
# ---------------------------------------------------------------------------


def test_matrix_rep_z2z4_examples():
    g = cyclic_group(2, 4)
    # Image of the order-2 generator would have order 4: rejected.
    with pytest.raises(InvalidGate):
        validate_matrix_rep([[1, 0], [1, 1]], g)
    rep = validate_matrix_rep([[1, 0], [2, 1]], g)
    assert exhaustive_homomorphism_check(rep)
    inv = matrix_rep_inverse(rep)
    assert inv.equals_as_map(rep)  # this one is an involution mod (2, 4)


def test_matrix_rep_identity_everywhere():
    for g in [cyclic_group(2, 4), group(Z, cyclic(3)), group(Z, T, cyclic(4))]:
        rep = validate_matrix_rep(identity_matrix(len(g.factors)), g)
        assert rep.matrix[0][0] == 1


def test_matrix_rep_accepts_exactly_the_automorphisms():
    # On a small finite group, acceptance must coincide with the brute-force
    # bijective-homomorphism oracle over all integer matrices with small entries.
    g = cyclic_group(2, 4)
    for a00 in range(2):
        for a01 in range(4):
            for a10 in range(4):
                for a11 in range(4):
                    matrix = [[a00, a01], [a10, a11]]
                    try:
                        rep = validate_matrix_rep(matrix, g)
                        accepted = True
                    except InvalidGate:
                        accepted = False
                    # Oracle: does the map permute G and respect addition?
                    def action(el):
                        return g.reduce(
                            [
                                a00 * el.coords[0] + a01 * el.coords[1],
                                a10 * el.coords[0] + a11 * el.coords[1],
                            ]
                        )

                    elements = list(g.elements())
                    bijective = len({action(e) for e in elements}) == len(elements)
                    additive = all(
                        action(x + y) == action(x) + action(y)
                        for x in elements
                        for y in elements
                    )
                    assert accepted == (bijective and additive), matrix
                    if accepted:
                        assert exhaustive_homomorphism_check(rep)


def test_matrix_rep_mixed_blocks():
    g = group(Z, cyclic(4), T)
    matrix = [
        [1, 0, 0],
        [3, 1, 0],
        [Fraction(1, 2), Fraction(1, 4), 1],
    ]
    rep = validate_matrix_rep(matrix, g)
    el = g.element(2, 1, Fraction(1, 3))
    image = rep.apply(el)
    assert image.coords == (2, 3, Fraction(2 + Fraction(1, 4) + Fraction(1, 3), 1) % 1)
    inv = matrix_rep_inverse(rep)
    for coords in [(1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 5)), (3, 2, Fraction(1, 7))]:
        el = g.element(*coords)
        assert inv.apply(rep.apply(el)) == el
        assert rep.apply(inv.apply(el)) == el


def test_matrix_rep_inverse_random_mixed_groups():
    import math

    import numpy as np

    from normsim.groups import ElementaryGroup, Factor
    from normsim.linalg import identity_matrix, mat_mul

    rng = np.random.default_rng(7)

    def random_entry(target, source):
        t, s = target.kind, source.kind
        if s == "T" and t in ("Z", "cyclic"):
            return Fraction(0)
        if t == "Z" and s == "cyclic":
            return Fraction(0)
        if t == "T" and s == "T":
            return Fraction(int(rng.integers(-3, 4)))
        if t == "T" and s == "cyclic":
            return Fraction(int(rng.integers(source.modulus)), source.modulus)
        if t == "T":
            return Fraction(int(rng.integers(24)), 24)
        if t == "cyclic" and s == "cyclic":
            step = target.modulus // math.gcd(target.modulus, source.modulus)
            return Fraction(step * int(rng.integers(max(1, target.modulus // step))))
        return Fraction(int(rng.integers(-4, 5)))

    def random_unimodular(n):
        m = identity_matrix(n)
        for _ in range(6 if n > 1 else 0):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            if i != j:
                shear = identity_matrix(n)
                shear[i][j] = int(rng.integers(-3, 4))
                m = mat_mul(shear, m)
        return m

    verified = 0
    while verified < 60:
        factors = (
            [Factor("Z")] * int(rng.integers(1, 3))
            + [cyclic(int(rng.integers(2, 10))) for _ in range(int(rng.integers(0, 3)))]
            + [Factor("T")] * int(rng.integers(0, 3))
        )
        g = ElementaryGroup(tuple(factors))
        n = len(factors)
        z_idx = [i for i, f in enumerate(factors) if f.kind == "Z"]
        t_idx = [i for i, f in enumerate(factors) if f.kind == "T"]
        matrix = [
            [random_entry(factors[i], factors[j]) for j in range(n)] for i in range(n)
        ]
        for idx in (z_idx, t_idx):
            uni = random_unimodular(len(idx))
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    matrix[i][j] = Fraction(uni[a][b])
        try:
            rep = validate_matrix_rep(matrix, g)
        except InvalidGate:
            continue  # the random finite block was not bijective
        inv = matrix_rep_inverse(rep)
        for _ in range(6):
            coords = [
                int(rng.integers(-9, 10))
                if f.kind == "Z"
                else int(rng.integers(f.modulus))
                if f.kind == "cyclic"
                else Fraction(int(rng.integers(36)), 36)
                for f in factors
            ]
            el = g.reduce(coords)
            assert inv.apply(rep.apply(el)) == el
            assert rep.apply(inv.apply(el)) == el
        verified += 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_inverse_of_the_inverse_is_the_rep(seed, mixed):
    """The inverse is canonical: inverting it gives back the validated rep."""
    rng = np.random.default_rng(seed)
    if mixed:
        rep = random_mixed_matrix_rep(random_mixed_group(rng), rng)
    else:
        rep = random_matrix_rep(random_finite_group(rng), rng)
    assert matrix_rep_inverse(matrix_rep_inverse(rep)) == rep


def test_matrix_rep_rejects_bad_blocks():
    with pytest.raises(InvalidGate):  # Z into T block must vanish? no: T->Z must
        validate_matrix_rep([[1, 1], [0, 1]], group(Z, T))
    with pytest.raises(InvalidGate):  # torus-to-finite entries must vanish
        validate_matrix_rep([[1, Fraction(1, 2)], [0, 1]], group(cyclic(2), T))
    with pytest.raises(InvalidGate):  # finite into Z must vanish
        validate_matrix_rep([[1, 1], [0, 1]], group(Z, cyclic(2)))
    with pytest.raises(InvalidGate, match="Z block is not unimodular"):
        validate_matrix_rep([[2]], group(Z))
    with pytest.raises(InvalidGate, match="T block is not unimodular"):
        validate_matrix_rep([[2]], group(T))
    with pytest.raises(InvalidGate, match="finite block is not bijective"):
        validate_matrix_rep([[2]], cyclic_group(4))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_validation_agrees_with_determinants_and_brute_force_bijectivity(seed):
    """Perturb the diagonal blocks of a random automorphism by multiples of
    each entry's step: the matrix is accepted exactly when the Z and T blocks
    have Leibniz determinant +-1 and the finite block (order up to 512)
    permutes its group, and the first failing block, in the order Z, T,
    finite, names the rejection."""
    rng = np.random.default_rng(seed)
    factors = [Z] * int(rng.integers(3)) + [T] * int(rng.integers(3))
    if not factors or rng.integers(4):
        factors += random_finite_group(rng).factors
    g = group(*(factors[i] for i in rng.permutation(len(factors))))
    matrix = [list(row) for row in random_mixed_matrix_rep(g, rng).matrix]
    blocks = {}
    for kind in ("Z", "T", "cyclic"):
        idx = [i for i, f in enumerate(g.factors) if f.kind == kind]
        moduli = [g.factors[i].modulus for i in idx]
        if rng.integers(2):
            for i, n in zip(idx, moduli):
                for j, source in zip(idx, moduli):
                    if kind == "cyclic":
                        step = n // math.gcd(n, source)
                        matrix[i][j] = step * int(rng.integers(n // step))
                    else:
                        matrix[i][j] = int(rng.integers(-3, 4))
        blocks[kind] = [[matrix[i][j] for j in idx] for i in idx], moduli
    if abs(leibniz_det(blocks["Z"][0])) != 1:
        expected = "Z block is not unimodular"
    elif abs(leibniz_det(blocks["T"][0])) != 1:
        expected = "T block is not unimodular"
    elif not reference_is_bijective(*blocks["cyclic"]):
        expected = "finite block is not bijective"
    else:
        validate_matrix_rep(matrix, g)
        return
    with pytest.raises(InvalidGate) as excinfo:
        validate_matrix_rep(matrix, g)
    assert str(excinfo.value) == expected


def test_matrix_rep_shape_check():
    with pytest.raises(InvalidGate):
        validate_matrix_rep([[1, 0]], cyclic_group(2, 2))


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


def test_quadratic_z2_example():
    g = cyclic_group(2)
    form = validate_quadratic([[Fraction(1, 2)]], [0], g)
    assert_quadratic_law(form)
    assert form.c == (1,)
    assert form.exponent(g.element(0)) == 0
    # xi(1) = exp(pi i (1/2 + 1)) = exp(3 pi i / 2) = -i, i.e. q = 3/4.
    assert form.exponent(g.element(1)) == Fraction(3, 4)


def test_quadratic_trivial():
    g = cyclic_group(2)
    form = validate_quadratic([[0]], [0], g)
    assert_quadratic_law(form)
    assert all(form.exponent(el) == 0 for el in g.elements())


def test_quadratic_rejects_bad_denominator():
    with pytest.raises(InvalidGate):
        validate_quadratic([[Fraction(1, 3)]], [0], cyclic_group(2))


def test_quadratic_rejects_asymmetric_and_bad_blocks():
    g = cyclic_group(2, 2)
    with pytest.raises(InvalidGate):
        validate_quadratic([[0, Fraction(1, 2)], [0, 0]], [0, 0], g)
    with pytest.raises(InvalidGate):
        validate_quadratic([[0, 1], [1, 0]], [0, 0], group(T, T))
    with pytest.raises(InvalidGate):
        validate_quadratic([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], [0, 0], group(T, cyclic(2)))
    with pytest.raises(InvalidGate):
        validate_quadratic([[0]], [Fraction(1, 3)], cyclic_group(2))


def test_quadratic_law_exhaustive_on_samples():
    g = cyclic_group(4, 2, 9)
    m = [
        [Fraction(1, 4), Fraction(1, 2), 0],
        [Fraction(1, 2), Fraction(1, 2), 0],
        [0, 0, Fraction(2, 9)],
    ]
    v = [Fraction(1, 4), 0, Fraction(5, 9)]
    form = validate_quadratic(m, v, g)
    assert_quadratic_law(form)
    # |xi(g)| = 1 exactly: the exponent is a rational, never a float.
    assert all(isinstance(form.exponent(el), Fraction) for el in g.elements())


def test_quadratic_mixed_infinite_group():
    g = group(Z, T, cyclic(4))
    m = [
        [Fraction(1, 3), 2, Fraction(1, 4)],
        [2, 0, 0],
        [Fraction(1, 4), 0, Fraction(1, 4)],
    ]
    v = [Fraction(1, 2), 3, Fraction(2, 4)]
    form = validate_quadratic(m, v, g)
    a = g.element(1, Fraction(1, 5), 2)
    b = g.element(-2, Fraction(2, 3), 3)
    lhs = form.exponent(a + b)
    rhs = (form.exponent(a) + form.exponent(b) + reference_bilinear_exponent(form, a, b)) % 1
    assert lhs == rhs


# ---------------------------------------------------------------------------
# designated bases and circuit validation
# ---------------------------------------------------------------------------


def test_qft_basis_flip_examples():
    basis = DesignatedBasis(group(Z, cyclic(3)))
    flipped = apply_qft_basis_update(basis, [0])
    assert flipped.elementary == group(T, cyclic(3))
    back = apply_qft_basis_update(flipped, [0])
    assert back.elementary == group(Z, cyclic(3))
    with pytest.raises(CircuitError):
        apply_qft_basis_update(basis, [0], over="T")
    assert apply_qft_basis_update(basis, [1]).elementary == basis.elementary


def test_qft_never_on_blackbox_slot():
    basis = DesignatedBasis(cyclic_group(4), ZNStarGroup(15))
    with pytest.raises(CircuitError):
        apply_qft_basis_update(basis, [1])


def test_circuit_trace_determinism():
    basis = DesignatedBasis(group(Z, cyclic(3)))
    circuit = NormalizerCircuit(basis, [QFTGate((0,)), QFTGate((0,)), QFTGate((1,))])
    trace = circuit.validate()
    assert [b.elementary for b in trace] == [
        group(Z, cyclic(3)),
        group(T, cyclic(3)),
        group(Z, cyclic(3)),
        group(Z, cyclic(3)),
    ]
    assert circuit.validate() == trace  # replay reproduces the trace
    assert circuit.qft_layers() == 1


def test_gate_group_must_match_basis():
    basis = DesignatedBasis(group(Z, cyclic(3)))
    rep = validate_matrix_rep(identity_matrix(2), group(T, cyclic(3)))
    circuit = NormalizerCircuit(basis, [AutomorphismGate(rep=rep)])
    with pytest.raises(CircuitError):
        circuit.validate()
    # After the QFT flip the same gate is fine.
    circuit = NormalizerCircuit(basis, [QFTGate((0,)), AutomorphismGate(rep=rep)])
    circuit.validate()


def test_black_box_gate_needs_precision_bound_on_infinite():
    bb = ZNStarGroup(15)
    basis = DesignatedBasis(group(Z), bb)
    gate = AutomorphismGate(func=lambda pt: pt, name="noop")
    with pytest.raises(CircuitError):
        NormalizerCircuit(basis, [gate]).validate()
    gate = AutomorphismGate(func=lambda pt: pt, name="noop", n_out=0)
    NormalizerCircuit(basis, [gate]).validate()
    finite_basis = DesignatedBasis(cyclic_group(4), bb)
    NormalizerCircuit(finite_basis, [AutomorphismGate(func=lambda pt: pt)]).validate()


def test_word_exp_gate():
    bb = ZNStarGroup(15)
    basis = DesignatedBasis(cyclic_group(4, 4), bb)
    func = word_exp_func(basis, [2, 7])
    assert func((1, 0, 1)) == (1, 0, 2)
    assert func((1, 1, 1)) == (1, 1, 14)
    assert func((2, 3, 2)) == (2, 3, (4 * 343 * 2) % 15)
    with pytest.raises(CircuitError):
        word_exp_func(DesignatedBasis(group(T), bb), [2])


WORD_EXP_GROUPS = {
    "Z7*": (lambda: ZNStarGroup(7), [0, 7, -1, 1.0]),
    "Z15*": (lambda: ZNStarGroup(15), [0, 3, 15, 1.0]),
    "Z21*": (lambda: ZNStarGroup(21), [0, 7, 21, 14]),
    "E(5,1,1)": (lambda: EllipticCurveGroup(5, 1, 1), [(0, 0), (5, 1), 5]),
    "E(7,2,3)": (lambda: EllipticCurveGroup(7, 2, 3), [(0, 0), (1, 1), 0]),
}


@st.composite
def word_exp_draws(draw):
    """(group name, register moduli, bases, points): points with repeated,
    negative and non-int exponents, and accumulators outside the group."""
    name = draw(st.sampled_from(sorted(WORD_EXP_GROUPS)))
    make, outside = WORD_EXP_GROUPS[name]
    bb = make()
    elements = sorted(bb.elements(), key=bb.encode)
    moduli = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    bases = draw(st.lists(st.sampled_from(elements), min_size=len(moduli), max_size=len(moduli)))
    exponent = st.one_of(
        st.integers(-3, 9),
        st.sampled_from([np.int64(3), np.int64(-2), Fraction(3), Fraction(0), 2.0, True]),
    )
    acc = st.one_of(st.sampled_from(elements), st.sampled_from(outside))
    points = draw(st.lists(st.tuples(*[exponent] * len(moduli), acc), min_size=1, max_size=12))
    return name, moduli, bases, points


def _outcome(func, point):
    try:
        return func(point)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(word_exp_draws())
@example(("Z15*", [4], [2], [(3, 1), (Fraction(3), 1), (3.0, 1), (3, 0), (2.0, 3), (-1, 4)]))
@example(("E(5,1,1)", [9, 9], [(0, 1), (0, 4)], [(3, 1, None), (3, -2, None), (1, 2, (0, 0))]))
def test_cached_word_exp_matches_the_power_loop(draw):
    name, moduli, bases, points = draw
    make = WORD_EXP_GROUPS[name][0]
    bb, ref = make(), make()
    func = word_exp_func(DesignatedBasis(cyclic_group(*moduli), bb), bases)
    active = [(r, b) for r, b in enumerate(bases) if b != ref.identity()]

    def reference(point):
        *coords, acc = point
        for r, b in active:
            acc = ref.mul(acc, ref.power(b, coords[r]))
        return tuple(coords) + (acc,)

    for point in points:
        assert _outcome(func, point) == _outcome(reference, point)
        assert bb.counter.total <= ref.counter.total


# ---------------------------------------------------------------------------
# the finite-modulus obstruction for repeated squaring
# ---------------------------------------------------------------------------


def test_modexp_check_examples():
    g = ZNStarGroup(15)
    gens = g.sample_generators(np.random.default_rng(0))
    ok, rep = check_modexp_normalizable(4, 2, g, gens)
    assert ok and rep is not None
    assert exhaustive_homomorphism_check(rep)
    ok, rep = check_modexp_normalizable(3, 2, g, gens)
    assert not ok and rep is None
    ok, rep = check_modexp_normalizable(8, 1, g, gens)
    assert ok and rep is not None


def test_modexp_check_matches_divisibility():
    g = ZNStarGroup(21)
    gens = g.sample_generators(np.random.default_rng(0))
    for a in [2, 4, 5, 20]:
        r = bb_order(g, a)
        for m in range(1, 25):
            ok, rep = check_modexp_normalizable(m, a, g, gens)
            assert ok == (m % r == 0)
            if ok:
                assert rep is not None
                if m <= 6:  # keep the quadratic-cost oracle to small spaces
                    assert exhaustive_homomorphism_check(rep)


@pytest.mark.parametrize("n", [15, 21, 91])
def test_modexp_check_decides_the_order_by_one_power_then_decomposes_once(n):
    """After `sample_generators`, a refused a costs power(a, M):
    bit_length(M) + popcount(M) - 2 `mul`.  An accepted a costs that plus
    what decomposing [a] + generators costs on a fresh group, less the walk
    when that list is the sampled one, whose kept walk is resumed."""
    size = ZNStarGroup(n).order()
    for a in ZNStarGroup(n).elements():
        order = bb_order(ZNStarGroup(n), a)
        for m, accepted in ((2 * order, True), (order + 1, order == 1), (size, True)):
            g = ZNStarGroup(n)
            gens = g.sample_generators(np.random.default_rng(0))
            before = g.counter.mul
            ok, _ = check_modexp_normalizable(m, a, g, gens)
            assert ok == accepted
            expected = m.bit_length() + m.bit_count() - 2
            if accepted:
                generators = [a] + [x for x in gens if x != a]
                fresh = ZNStarGroup(n)
                bb_decompose_bruteforce(fresh, generators)
                expected += fresh.counter.mul
                if generators == gens:
                    expected -= size - 1 + len(gens)
            assert g.counter.mul - before == expected, (a, m)


# ---------------------------------------------------------------------------
# circuit files
# ---------------------------------------------------------------------------


def test_circuit_json_round_trip(tmp_path):
    bb = ZNStarGroup(15)
    basis = DesignatedBasis(cyclic_group(4, 4), bb)
    rep = validate_matrix_rep([[1, 0], [2, 1]], cyclic_group(4, 4))
    form = validate_quadratic(
        [[Fraction(1, 4), 0], [0, 0]], [0, Fraction(1, 2)], cyclic_group(4, 4)
    )
    circuit = NormalizerCircuit(
        basis,
        [
            QFTGate((0, 1)),
            AutomorphismGate(rep=rep),
            QuadraticGate(form=form),
            AutomorphismGate(
                func=word_exp_func(basis, [2, 7]),
                name="word_exp",
                params={"bases": [2, 7]},
            ),
        ],
    )
    path = tmp_path / "circuit.json"
    save_circuit(circuit, path)
    loaded = load_circuit(path)
    assert circuit_to_json(loaded) == circuit_to_json(circuit)
    assert loaded.gates[1].rep.matrix == rep.matrix
    assert loaded.gates[3].params["bases"] == [2, 7]


def test_circuit_json_infinite_registers(tmp_path):
    basis = DesignatedBasis(parse_group("T x Z4"), ZNStarGroup(15))
    circuit = NormalizerCircuit(
        basis,
        [
            QFTGate((0,), over="T"),
            AutomorphismGate(
                func=word_exp_func(
                    DesignatedBasis(parse_group("Z x Z4"), basis.blackbox), [2, 1]
                ),
                name="word_exp",
                n_out=0,
                params={"bases": [2, 1]},
            ),
        ],
    )
    doc = circuit_to_json(circuit)
    assert doc["group"]["elementary"] == "Z x Z4"
    assert doc["initial_basis"] == "T x Z4"
    loaded = circuit_from_json(doc)
    assert loaded.initial_basis.elementary == parse_group("T x Z4")


def test_malformed_circuit_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CircuitError, match="line"):
        load_circuit(bad)
    with pytest.raises(CircuitError, match="gate 0"):
        circuit_from_json(
            {"group": {"elementary": "Z4"}, "gates": [{"automorphism": {"matrix": [["2"]]}}]}
        )
    with pytest.raises(CircuitError):
        circuit_from_json({"group": {"elementary": "Q5"}, "gates": []})
    for doc in MALFORMED_CIRCUIT_DOCS:
        with pytest.raises(CircuitError):
            circuit_from_json(doc)
    with pytest.raises(CircuitError, match="direction"):
        QFTGate((0,), over="finite")


@pytest.mark.parametrize("doc, message", FIELD_ERROR_DOCS)
def test_malformed_circuit_messages_name_the_field(doc, message):
    with pytest.raises(CircuitError) as info:
        circuit_from_json(doc)
    assert str(info.value) == message


def test_written_circuits_hold_only_the_keys_reading_allows():
    from normsim.algorithms import dlog_circuit, ec_dlog_circuit
    from normsim.blackbox import EllipticCurveGroup

    curve = EllipticCurveGroup(7, 2, 3)
    finite = cyclic_group(4, 2)
    basis = DesignatedBasis(finite)
    form = validate_quadratic([[Fraction(1, 4), 0], [0, 0]], [0, Fraction(1, 2)], finite)
    circuits = [
        dlog_circuit(7, 3, 6),
        ec_dlog_circuit(curve, (2, 1), (3, 6), 6),
        NormalizerCircuit(
            basis,
            [
                QFTGate((0,)),
                AutomorphismGate(rep=validate_matrix_rep([[1, 2], [0, 1]], finite)),
                QuadraticGate(form=form),
            ],
        ),
        NormalizerCircuit(DesignatedBasis(group(Z)), [QFTGate((0,), over="Z")]),
    ]
    for circuit in circuits:
        doc = json.loads(json.dumps(circuit_to_json(circuit)))
        assert circuit_to_json(circuit_from_json(doc)) == doc


def test_rational_literals_in_files():
    doc = {
        "group": {"elementary": "Z2"},
        "gates": [{"quadratic": {"M": [["1/2"]], "v": ["0"]}}],
    }
    circuit = circuit_from_json(doc)
    assert circuit.gates[0].form.m[0][0] == Fraction(1, 2)
    out = circuit_to_json(circuit)
    assert out["gates"][0]["quadratic"]["M"] == [["1/2"]]


# ---------------------------------------------------------------------------
# integer phase numerators
# ---------------------------------------------------------------------------


@st.composite
def quadratic_forms(draw):
    """Valid (M, v) on a product of cyclic factors of order <= 512, with
    numerators far beyond int64."""
    moduli = draw(st.lists(st.integers(2, 12), min_size=1, max_size=4))
    while math.prod(moduli) > 512:
        moduli.pop()
    g = cyclic_group(*moduli)
    big = st.integers(-(1 << 80), 1 << 80)
    m = [[Fraction(0)] * len(moduli) for _ in moduli]
    for i, ni in enumerate(moduli):
        for j in range(i, len(moduli)):
            m[i][j] = m[j][i] = Fraction(draw(big), math.gcd(ni, moduli[j]))
    v = [Fraction(draw(big), n) for n in moduli]
    return validate_quadratic(m, v, g)


@settings(max_examples=60, deadline=None)
@given(quadratic_forms())
def test_numerators_equal_quadratic_exponent_at_every_label(form):
    moduli = [f.modulus for f in form.group.factors]
    k, d = form.numerators(label_grid(moduli))
    for label, numerator in zip(form.group.elements(), k.tolist()):
        assert Fraction(numerator, d) == form.exponent(label)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_numerators_equal_coset_phase_exponent_at_every_parameter(seed):
    from helpers import (
        phase_exponent,
        random_circuit,
        random_finite_group,
        reference_phase_exponent,
    )

    from normsim.coset import coset_run

    rng = np.random.default_rng(seed)
    g = random_finite_group(rng, max_order=512)
    state = coset_run(random_circuit(g, rng, gate_count=6), g.identity())
    d = state.denominator
    quad = [[Fraction(x, d) for x in row] for row in state.quad]
    lin = [Fraction(x, d) for x in state.lin]
    t = label_grid(state.moduli)
    k, _ = _scaled_numerators(state.quad, state.lin, d, t)
    for column, numerator in zip(t.T.tolist(), k.tolist()):
        expected = reference_phase_exponent(quad, lin, column)
        assert Fraction(numerator, d) == expected == phase_exponent(state, column)


def test_numerators_exact_for_a_file_form_beyond_int64():
    # M = (2^65 + 1)/4 on Z4: the numerator overflows int64 unless it is
    # reduced mod d before any product.
    doc = {
        "group": {"elementary": "Z4"},
        "gates": [
            {"qft": [0]},
            {"quadratic": {"M": [["36893488147419103233/4"]], "v": ["1/4"]}},
        ],
    }
    circuit = circuit_from_json(doc)
    form = circuit.gates[1].form
    assert form.m[0][0].numerator > 1 << 63
    k, d = form.numerators(label_grid([4]))
    assert [Fraction(n, d) for n in k.tolist()] == [form.exponent(x) for x in form.group.elements()]
    state = dense_run(circuit, (0,))
    for x in form.group.elements():
        expected = 0.5 * np.exp(2j * np.pi * float(form.exponent(x)))
        amplitude = complex(state.amplitudes.flat[state.flat_index(x.coords)])
        assert amplitude == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n", [3**25, 10**12 + 39])
def test_numerators_exact_when_the_squared_modulus_passes_int64(n):
    # d = n and d^2 > 2^63: int64 sums would wrap, and an odd modulus does
    # not survive wrapping mod 2^64 the way a power of two does.
    g = cyclic_group(n)
    form = validate_quadratic([[Fraction(2, n)]], [Fraction(1, n)], g)
    labels = [n - 3, n // 2, 12345678901]
    k, d = form.numerators(np.array([labels]))
    assert [Fraction(x, d) for x in k.tolist()] == [form.exponent(g.element(x)) for x in labels]


# ---------------------------------------------------------------------------
# integer evaluation against the Fraction formulas it replaced
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_integer_exponents_equal_fraction_reference(seed, huge):
    from helpers import (
        random_mixed_element,
        random_mixed_group,
        random_mixed_quadratic_form,
        reference_exponent,
    )

    rng = np.random.default_rng(seed)
    g = random_mixed_group(rng)
    form = random_mixed_quadratic_form(g, rng, huge=huge)
    for _ in range(6):
        a = random_mixed_element(g, rng, huge=huge)
        assert form.exponent(a) == reference_exponent(form, a)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_integer_apply_equals_fraction_reference(seed, huge):
    from helpers import random_mixed_element, random_mixed_group, random_mixed_matrix_rep, reference_apply

    rng = np.random.default_rng(seed)
    g = random_mixed_group(rng)
    rep = random_mixed_matrix_rep(g, rng)
    for _ in range(6):
        el = random_mixed_element(g, rng, huge=huge)
        assert rep.apply(el) == reference_apply(rep, el)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["independent", "shifted"]))
def test_equals_as_map_agrees_with_classwise_reference(seed, mode):
    from helpers import random_mixed_group, random_mixed_matrix_rep, reference_equals_as_map

    rng = np.random.default_rng(seed)
    g = random_mixed_group(rng)
    rep = random_mixed_matrix_rep(g, rng)
    if mode == "independent":
        other = random_mixed_matrix_rep(g, rng)
    else:
        # The same map: entries shifted by multiples of their target's
        # characteristic, except T-to-T entries, which are exact.
        other = validate_matrix_rep(
            [
                [
                    x if source.kind == "T" else x + int(rng.integers(-3, 4)) * target.char
                    for x, source in zip(row, g.factors)
                ]
                for row, target in zip(rep.matrix, g.factors)
            ],
            g,
        )
        assert reference_equals_as_map(rep, other)
    assert rep.equals_as_map(other) == reference_equals_as_map(rep, other)


def test_integer_exponent_exact_beyond_int64():
    # M = (2^65 + 1)/4 on Z and on Z4, with Z coordinates beyond int64 too.
    from helpers import reference_exponent

    big = Fraction(2**65 + 1, 4)
    on_z = validate_quadratic([[big, 1], [1, 0]], [Fraction(3, 7), 2], group(Z, T))
    on_z4 = validate_quadratic([[big]], [Fraction(1, 4)], cyclic_group(4))
    points = [
        on_z.group.element(2**70 + 3, Fraction(5, 11)),
        on_z.group.element(-(2**66), 0),
        on_z.group.element(12345, Fraction(1, 2)),
    ]
    for a in points:
        assert on_z.exponent(a) == reference_exponent(on_z, a)
    for x in on_z4.group.elements():
        assert on_z4.exponent(x) == reference_exponent(on_z4, x)
