"""Tests for encoding conversion and black-box gate extraction."""

import re
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_matrix_rep, random_quadratic_form

from normsim.algorithms import dlog_circuit, ec_dlog_circuit
from normsim.blackbox import (
    BlackBoxError,
    EllipticCurveGroup,
    ZNStarGroup,
    bb_decompose_bruteforce,
    bb_order,
)
from normsim.circuits import (
    AutomorphismGate,
    DesignatedBasis,
    NormalizerCircuit,
    QFTGate,
    QuadraticGate,
    validate_matrix_rep,
    validate_quadratic,
    word_exp_func,
)
from normsim.coset import coset_run, states_equal_up_to_global_phase
from normsim.deblackbox import (
    EncodingBridge,
    ExtractionError,
    _spot_check_matrix,
    _spot_check_quadratic,
    deblackbox_circuit,
    extract_matrix_rep,
    extract_quadratic,
    next_prime_above,
)
from normsim.dense import dense_run
from normsim.groups import T, Z, cyclic, cyclic_group, group, parse_group


def test_next_prime_above():
    assert next_prime_above(1) == 2
    assert next_prime_above(2) == 3
    assert next_prime_above(8) == 11
    assert next_prime_above(2048) == 2053


def test_bridge_encode_decode_z15():
    g = ZNStarGroup(15)
    table = bb_decompose_bruteforce(g, [2, 14])
    bridge = EncodingBridge(group=g, table=table)
    # With beta = (2, 14): 2^3 * 14^1 = 112 = 7 mod 15.
    if table.beta == [2, 14]:
        assert bridge.encode([3, 1]) == 7
        assert bridge.decode(7).coords == (3, 1)
    assert bridge.encode(bridge.z_group.identity()) == 1
    for element in g.elements():
        assert bridge.encode(bridge.decode(element)) == element


def test_bridge_is_homomorphism():
    g = ZNStarGroup(21)
    bridge = EncodingBridge(group=g, table=bb_decompose_bruteforce(g, [2, 20]))
    z = bridge.z_group
    rng = np.random.default_rng(4)
    for _ in range(40):
        a = z.random_element(rng)
        b = z.random_element(rng)
        assert bridge.encode(a + b) == bridge.group.mul(bridge.encode(a), bridge.encode(b))


SHOR_CURVES = [(5, 1, 1), (7, 3, 1), (11, 1, 1), (13, 2, 2), (17, 2, 4)]


@pytest.mark.parametrize(
    "make",
    [lambda n=n: ZNStarGroup(n) for n in range(2, 65)]
    + [lambda c=c: EllipticCurveGroup(*c) for c in SHOR_CURVES],
    ids=[f"Z{n}*" for n in range(2, 65)] + [f"E{c}" for c in SHOR_CURVES],
)
def test_decode_map_equals_the_word_enumeration(make):
    g = make()
    table = bb_decompose_bruteforce(g, g.sample_generators(np.random.default_rng(0)))
    bridge = EncodingBridge(g, table)
    before = g.counter.total
    bridge.decode(g.identity())
    # The bridge reads the Cayley walk the decomposition left on the group.
    assert g.counter.total == before
    z = bridge.z_group
    # The map as it was built before: one group.word per exponent vector.
    old = {g.encode(g.word(table.beta, x.coords)): x for x in z.elements()}
    assert bridge._decode_map == old


@pytest.mark.parametrize(
    "make",
    [lambda: ZNStarGroup(15), lambda: ZNStarGroup(63)]
    + [lambda c=c: EllipticCurveGroup(*c) for c in SHOR_CURVES[-2:]],
    ids=["Z15*", "Z63*", "E(13, 2, 2)", "E(17, 2, 4)"],
)
def test_encode_equals_the_beta_word(make):
    g = make()
    table = bb_decompose_bruteforce(g, g.sample_generators(np.random.default_rng(2)))
    bridge = EncodingBridge(g, table)
    rng = np.random.default_rng(3)
    vectors = [[int(e) for e in rng.integers(-20, 20, size=len(table.c))] for _ in range(30)]
    expected = [g.word(table.beta, v) for v in vectors]
    before = g.counter.total
    assert [bridge.encode(v) for v in vectors] == expected
    # Both maps come from the decomposition's Cayley walk, at no oracle call.
    assert g.counter.total == before
    for v, value in zip(vectors, expected):
        assert bridge.decode(value).coords == tuple(e % c for e, c in zip(v, table.c))
    assert g.counter.total == before
    with pytest.raises(BlackBoxError, match="length mismatch"):
        bridge.encode(vectors[0] + [0])


def _deblackbox_calls(circuit) -> int:
    """Oracle calls of one deblackbox with sampled generators; checks that the
    provenance records hold every one of them."""
    bb = circuit.initial_basis.blackbox
    before = bb.counter.total
    result = deblackbox_circuit(circuit, rng=np.random.default_rng(0))
    calls = bb.counter.total - before
    assert sum(record["oracle_calls"] for record in result.provenance) == calls
    return calls


def test_sampled_deblackbox_of_the_dlog_circuit_walks_the_group_once():
    # |Z_10007^*| = 10006: one Cayley walk serves the generator sampling, the
    # decomposition and the bridge; the rest is the extraction.
    assert _deblackbox_calls(dlog_circuit(10007, 5, 7)) <= 10_500


def test_sampled_deblackbox_of_a_curve_dlog_circuit_walks_the_group_once():
    curve = EllipticCurveGroup(1009, 2, 3)  # cyclic, 1068 points
    base = next(pt for pt in curve.elements() if pt and bb_order(curve, pt) == 1068)
    circuit = ec_dlog_circuit(curve, base, curve.power(base, 500), 1068)
    assert _deblackbox_calls(circuit) <= 3_000


def test_extract_matrix_examples():
    # x -> 3x on Z_8.
    g8 = cyclic_group(8)
    rep = extract_matrix_rep(lambda pt: ((3 * pt[0]) % 8,), g8)
    assert rep.matrix == ((Fraction(3),),)
    # Doubling on the torus: with bound 4 the probe lands at 1/alpha with
    # alpha = 11 > 2*4, so f(1/11) = 2/11 pins the integer entry 2 exactly.
    # (Doubling is 2-to-1, so only the raw recovery applies here.)
    from normsim.deblackbox import extract_matrix_entries

    gt = group(T)
    matrix = extract_matrix_entries(lambda pt: ((2 * pt[0]) % 1,), gt, bound=4)
    assert matrix == [[Fraction(2)]]
    # Identity on a mixed group.
    gm = group(cyclic(2), cyclic(4), T)
    rep = extract_matrix_rep(lambda pt: pt, gm, bound=2)
    assert all(rep.matrix[i][i] == 1 for i in range(3))


def test_extract_matrix_torus_block():
    # A genuinely invertible torus map with an entry beyond the mod-1 window.
    gt = group(T, T)

    def f(pt):
        return ((2 * pt[0] + pt[1]) % 1, (pt[0] + pt[1]) % 1)

    rep = extract_matrix_rep(f, gt, bound=4)
    assert rep.matrix == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))


def test_extract_matrix_negative_torus_entry():
    from normsim.deblackbox import extract_matrix_entries

    gt = group(T)
    matrix = extract_matrix_entries(lambda pt: ((-3 * pt[0]) % 1,), gt, bound=4)
    assert matrix == [[Fraction(-3)]]


def test_extract_matrix_rejects_non_automorphism():
    g = cyclic_group(4)
    with pytest.raises(ExtractionError):
        extract_matrix_rep(lambda pt: ((2 * pt[0]) % 4,), g)  # not bijective
    with pytest.raises(ExtractionError):  # not even additive
        extract_matrix_rep(lambda pt: ((pt[0] * pt[0]) % 4,), g)


def test_extract_quadratic_examples():
    g8 = cyclic_group(8)
    form = extract_quadratic(lambda pt: Fraction(pt[0] * pt[0], 8), g8)
    assert form.m == ((Fraction(1, 4),),)
    assert form.c == (2,)
    # Trivial phase.
    form = extract_quadratic(lambda pt: Fraction(0), g8)
    assert form.m == ((Fraction(0),),) and form.v == (Fraction(0),)
    # Pure character on Z_2: difference relation yields M = 0, v = 1/2.
    g2 = cyclic_group(2)
    form = extract_quadratic(lambda pt: Fraction(pt[0], 2), g2)
    assert form.m == ((Fraction(0),),)
    assert form.v == (Fraction(1, 2),)


def test_extract_quadratic_mixed_group():
    g = group(Z, T, cyclic(4))
    target = [
        [Fraction(1, 3), 2, Fraction(1, 4)],
        [2, 0, 0],
        [Fraction(1, 4), 0, Fraction(1, 4)],
    ]
    v = [Fraction(1, 2), -3, Fraction(3, 4)]
    from normsim.circuits import validate_quadratic

    form = validate_quadratic(target, v, g)

    def oracle(pt):
        return form.exponent(g.reduce(pt))

    recovered = extract_quadratic(oracle, g, bound=4)
    rng = np.random.default_rng(0)
    for _ in range(30):
        coords = (
            int(rng.integers(-9, 9)),
            Fraction(int(rng.integers(12)), 12),
            int(rng.integers(4)),
        )
        el = g.reduce(coords)
        assert recovered.exponent(el) == form.exponent(el)


def test_random_round_trips_finite():
    rng = np.random.default_rng(31)
    for _ in range(25):
        moduli = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 4)))]
        g = cyclic_group(*moduli)
        rep = random_matrix_rep(g, rng)
        recovered = extract_matrix_rep(lambda pt: rep.apply(g.reduce(pt)).coords, g)
        assert recovered.equals_as_map(rep)
        form = random_quadratic_form(g, rng)
        q = extract_quadratic(lambda pt: form.exponent(g.reduce(pt)), g)
        for el in g.elements():
            assert q.exponent(el) == form.exponent(el)


def test_spot_checks_try_every_point_up_to_order_256():
    # Z4^4 has order exactly 256.  Each oracle is right everywhere except at
    # (3, 3, 3, 3), the last element in enumeration order, which extraction
    # itself never probes: only an exhaustive spot check can catch it.
    g = cyclic_group(4, 4, 4, 4)
    rng = np.random.default_rng(256)
    rep = random_matrix_rep(g, rng)
    form = random_quadratic_form(g, rng)
    last = (3, 3, 3, 3)
    elements = [el.coords for el in g.elements()]

    def recording(oracle, calls):
        def wrapped(pt):
            calls.append(tuple(pt))
            return oracle(pt)

        return wrapped

    def bad_matrix(pt):
        image = rep.apply(g.reduce(pt)).coords
        return (image[0] + 1,) + image[1:] if pt == last else image

    def bad_phase(pt):
        return form.exponent(g.reduce(pt)) + (Fraction(1, 4) if pt == last else 0)

    for extract, bad, good in (
        (extract_matrix_rep, bad_matrix, lambda pt: rep.apply(g.reduce(pt)).coords),
        (extract_quadratic, bad_phase, lambda pt: form.exponent(g.reduce(pt))),
    ):
        calls = []
        with pytest.raises(ExtractionError, match="disagrees with the oracle"):
            extract(recording(bad, calls), g)
        assert calls[-len(elements):] == elements
        calls = []
        extract(recording(good, calls), g)
        assert calls[-len(elements):] == elements
        assert last not in calls[: -len(elements)]


# Z4 x Z8 has 32 points, so both spot checks try every one of them.  The
# phase's values have power-of-two denominators, so floats hold them exactly.
SPOT_GROUP = cyclic_group(4, 8)
SPOT_REP = validate_matrix_rep([[1, 2], [4, 3]], SPOT_GROUP)
SPOT_FORM = validate_quadratic(
    [[Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 4), Fraction(3, 8)]],
    [Fraction(1, 2), Fraction(1, 8)],
    SPOT_GROUP,
)


def _spot_image(pt):
    return SPOT_REP.apply(SPOT_GROUP.reduce(pt)).coords


def _spot_phase(pt):
    return SPOT_FORM.exponent(SPOT_GROUP.reduce(pt))


@pytest.mark.parametrize(
    "oracle",
    [
        lambda pt: tuple(x + n for x, n in zip(_spot_image(pt), (4, 8))),
        lambda pt: [x - 3 * n for x, n in zip(_spot_image(pt), (4, 8))],
        lambda pt: (x for x in _spot_image(pt)),
        lambda pt: np.array(_spot_image(pt)),
    ],
    ids=["unreduced tuple", "unreduced list", "generator", "numpy"],
)
def test_exhaustive_matrix_check_takes_any_iterable_in_any_representative(oracle):
    calls = []
    _spot_check_matrix(lambda pt: calls.append(pt) or oracle(pt), SPOT_REP)
    assert calls == [el.coords for el in SPOT_GROUP.elements()]


def test_extraction_takes_unreduced_coordinates():
    def oracle(pt):
        return tuple(x + n for x, n in zip(_spot_image(pt), (4, 8)))

    assert extract_matrix_rep(oracle, SPOT_GROUP).matrix == SPOT_REP.matrix
    form = extract_quadratic(lambda pt: _spot_phase(pt) + 3, SPOT_GROUP)
    assert (form.m, form.v) == (SPOT_FORM.m, SPOT_FORM.v)


@pytest.mark.parametrize(
    "oracle",
    [
        lambda pt: _spot_phase(pt) + 3,
        lambda pt: _spot_phase(pt) - 1,
        lambda pt: float(_spot_phase(pt)),
    ],
    ids=["unreduced +3", "unreduced -1", "float"],
)
def test_exhaustive_phase_check_takes_any_representative(oracle):
    calls = []
    _spot_check_quadratic(lambda pt: calls.append(pt) or oracle(pt), SPOT_FORM)
    assert calls == [el.coords for el in SPOT_GROUP.elements()]


@pytest.mark.parametrize("bad_point", [(1, 2), (2, 5), (3, 7)])
def test_exhaustive_spot_checks_reject_one_wrong_point_off_the_generators(bad_point):
    # Extraction probes 0, the unit vectors and their pairwise sums only.
    def bad_matrix(pt):
        image = _spot_image(pt)
        return (image[0], image[1] + 1) if pt == bad_point else image

    def bad_phase(pt):
        return _spot_phase(pt) + (Fraction(1, 8) if pt == bad_point else 0)

    message = re.escape(f"disagrees with the oracle at {bad_point}")
    with pytest.raises(ExtractionError, match=f"^extracted matrix {message}$"):
        extract_matrix_rep(bad_matrix, SPOT_GROUP)
    with pytest.raises(ExtractionError, match=f"^extracted phase {message}$"):
        extract_quadratic(bad_phase, SPOT_GROUP)


def build_order_finding_circuit(modulus, a, m):
    """Finite-register variant: Z_M x Z_N^* with the repeated-squaring gate."""
    bb = ZNStarGroup(modulus)
    basis = DesignatedBasis(cyclic_group(m), bb)
    return NormalizerCircuit(
        basis,
        [
            QFTGate((0,)),
            AutomorphismGate(
                func=word_exp_func(basis, [a]),
                name="word_exp",
                params={"bases": [a]},
            ),
            QFTGate((0,)),
        ],
    )


def test_deblackbox_no_blackbox_is_identity():
    g = cyclic_group(4)
    circuit = NormalizerCircuit(DesignatedBasis(g), [QFTGate((0,))])
    result = deblackbox_circuit(circuit)
    assert result.circuit is circuit
    assert result.bridge is None


def test_deblackbox_order_finding_circuit():
    # Z_4 x Z_15^*, a = 2 of order 4: the repeated-squaring gate must become
    # a valid matrix representation (the finite-modulus criterion passes).
    circuit = build_order_finding_circuit(15, 2, 4)
    result = deblackbox_circuit(circuit, generators=[2, 14])
    assert result.bridge is not None
    rewritten = result.circuit
    assert not any(gate.is_black_box for gate in rewritten.gates if not isinstance(gate, QFTGate))
    assert rewritten.initial_basis.blackbox is None
    actions = [p["action"] for p in result.provenance]
    assert "extracted automorphism" in actions
    assert result.provenance[0]["action"] == "decompose"
    assert all("oracle_calls" in p for p in result.provenance[1:])


def test_deblackbox_preserves_distribution_small():
    circuit = build_order_finding_circuit(15, 2, 4)
    result = deblackbox_circuit(circuit, generators=[2, 14])
    dense_original = dense_run(circuit, (0, 1))
    dense_rewritten = dense_run(result.circuit, result.point_to_decomposed((0, 1)))
    probs_original = dense_original.probabilities()
    probs_rewritten = dense_rewritten.probabilities()
    mapped = {
        result.point_from_decomposed(pt): p for pt, p in probs_rewritten.items()
    }
    assert set(mapped) == set(probs_original)
    for pt, p in probs_original.items():
        assert mapped[pt] == pytest.approx(p, abs=1e-9)


def test_deblackbox_then_coset_run_matches_dense():
    circuit = build_order_finding_circuit(15, 2, 4)
    result = deblackbox_circuit(circuit, generators=[2, 14])
    start = result.point_to_decomposed((0, 1))
    element = result.circuit.initial_basis.elementary.reduce(start)
    coset = coset_run(result.circuit, element)
    dense = dense_run(result.circuit, start)
    assert states_equal_up_to_global_phase(dense.amplitudes, coset)


def test_point_conversion_round_trip():
    circuit = build_order_finding_circuit(21, 2, 6)
    result = deblackbox_circuit(circuit, generators=[2, 20])
    for x in [1, 2, 4, 20]:
        point = (3, x)
        decomposed = result.point_to_decomposed(point)
        assert result.point_from_decomposed(decomposed) == (Fraction(3), x)


def test_deblackbox_quadratic_gate_in_circuit():
    # A diagonal oracle phase on Z_4 x Z_15^*: the phase couples the exponent
    # register to the order-4 coordinate of the hidden decomposition, which
    # is a genuine bicharacter (denominator divides gcd(4, 4)).
    bb = ZNStarGroup(15)
    table = bb_decompose_bruteforce(bb, [2, 14])
    from normsim.deblackbox import EncodingBridge

    bridge = EncodingBridge(group=bb, table=table)
    slot = table.c.index(4)

    def phase(point):
        k, x = point
        vec = bridge.decode(x).coords
        return (Fraction(int(k) * int(vec[slot]), 4)) % 1

    basis = DesignatedBasis(cyclic_group(4), bb)
    circuit = NormalizerCircuit(
        basis,
        [QFTGate((0,)), QuadraticGate(func=phase, name="oracle_phase")],
    )
    result = deblackbox_circuit(circuit, generators=[2, 14])
    assert not any(
        gate.is_black_box for gate in result.circuit.gates if not isinstance(gate, QFTGate)
    )
    actions = [p["action"] for p in result.provenance]
    assert "extracted quadratic" in actions
    dense_original = dense_run(circuit, (0, 1))
    start = result.point_to_decomposed((0, 1))
    dense_rewritten = dense_run(result.circuit, start)
    mapped = {
        result.point_from_decomposed(pt): p
        for pt, p in dense_rewritten.probabilities().items()
    }
    reference = dense_original.probabilities()
    assert set(mapped) == set(reference)
    for pt, p in reference.items():
        assert mapped[pt] == pytest.approx(p, abs=1e-9)


def test_deblackbox_rejects_broken_phase_promise():
    # Coupling the Z_4 exponent to the order-2 coordinate with denominator 4
    # is not a quadratic function (not even well-defined); extraction must
    # notice the broken promise instead of installing a wrong normal form.
    bb = ZNStarGroup(15)
    table = bb_decompose_bruteforce(bb, [2, 14])
    from normsim.deblackbox import EncodingBridge

    bridge = EncodingBridge(group=bb, table=table)
    slot = table.c.index(2)

    def phase(point):
        k, x = point
        vec = bridge.decode(x).coords
        return (Fraction(int(k) * int(vec[slot]), 4)) % 1

    basis = DesignatedBasis(cyclic_group(4), bb)
    circuit = NormalizerCircuit(
        basis, [QuadraticGate(func=phase, name="broken_phase")]
    )
    with pytest.raises(ExtractionError):
        deblackbox_circuit(circuit, generators=[2, 14])


def test_decompose_elliptic_curve_backend():
    # A curve with a non-cyclic group exercises multi-generator tables.
    from normsim.blackbox import EllipticCurveGroup, bb_order

    for params in [(7, 2, 3), (11, 1, 6), (13, 1, 1)]:
        curve = EllipticCurveGroup(*params)
        rng = np.random.default_rng(params[0])
        gens = curve.sample_generators(rng)
        table = bb_decompose_bruteforce(curve, gens)
        table.verify(curve, exhaustive=True)
        assert table.order() == curve.order()
