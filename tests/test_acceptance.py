"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here, not configurable: binomial slack is 3 sigma,
exact-arithmetic comparisons demand total variation below 1e-9 against the
float dense oracle, and each criterion carries its wall-clock budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    all_subgroups,
    nearest_peak_distance,
    random_circuit,
    random_finite_group,
    random_matrix_rep,
    random_quadratic_form,
    table_entries,
)

from normsim.algorithms import (
    DiscreteLogError,
    HSPInstance,
    OracularGroup,
    decompose_group,
    discrete_log,
    ec_discrete_log,
    factor,
    hsp_circuit,
    solve_hsp,
)
from normsim.blackbox import (
    EllipticCurveGroup,
    ZNStarGroup,
    bb_decompose_bruteforce,
    bb_order,
)
from normsim.circuits import check_modexp_normalizable
from normsim.coset import coset_run, states_equal_up_to_global_phase
from normsim.deblackbox import deblackbox_circuit, extract_matrix_rep, extract_quadratic
from normsim.dense import dense_run
from normsim.dirichlet import (
    PEAK_MASS_FLOOR,
    DirichletDistribution,
    dirichlet_peak_mass,
    dirichlet_sample,
    discretization_deviation,
)
from normsim.groups import cyclic_group


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def finish(self, detail: str) -> None:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
        print(f"{status} {self.name}: {detail} [{elapsed:.1f}s < {self.seconds:.0f}s]")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"


def test_criterion_1_factoring():
    budget = Budget("criterion 1 (factoring)", 60)
    targets = [15, 21, 33, 35, 91]
    for n in targets:
        run = factor(n, np.random.default_rng(n), attempts=10)
        assert run.attempts <= 10
        assert 1 < run.divisor < n
        assert n % run.divisor == 0, "trial division must confirm the divisor"
    budget.finish(f"N in {targets} all split within 10 seeded attempts")


def test_criterion_2_order_finding_success_floor():
    budget = Budget("criterion 2 (order-finding success floor)", 30)
    shots = 10_000
    instances = [
        (ZNStarGroup(15), 2),
        (ZNStarGroup(21), 2),
        (EllipticCurveGroup(5, 1, 1), (0, 1)),
    ]
    floor = PEAK_MASS_FLOOR - 0.03
    details = []
    for seed, (group, a) in enumerate(instances):
        r = bb_order(group, a)
        m = 64 * r
        rng = np.random.default_rng(1000 + seed)
        samples = dirichlet_sample(r, m, shots, rng)
        delta = DirichletDistribution(r, m, 0).default_resolution()
        hits = sum(1 for p in samples if nearest_peak_distance(p, r) <= delta / 2)
        rate = hits / shots
        sigma = math.sqrt(rate * (1 - rate) / shots)
        assert rate >= floor - 3 * sigma, f"hit rate {rate} under the analytic floor"
        mass = dirichlet_peak_mass(r, m)
        assert mass >= 2 / 3, f"numerical peak mass {mass} under 2/3"
        details.append(f"r={r}: rate {rate:.3f}, mass {mass:.3f}")
    budget.finish("; ".join(details))


def test_criterion_3_discretization_correspondence():
    budget = Budget("criterion 3 (discretization correspondence)", 10)
    worst = 0.0
    for r in range(1, 9):
        for m in (4 * r, 8 * r, 16 * r):
            for s in (0, r - 1):
                worst = max(worst, discretization_deviation(r, m, s))
    assert worst < 1e-10, f"max deviation {worst}"
    budget.finish(f"max |discrete QFT - continuous transform| = {worst:.2e} < 1e-10")


def test_criterion_4_discrete_log_exhaustive():
    budget = Budget("criterion 4 (discrete log)", 120)
    failures = 0
    runs = 0
    for p in (5, 7, 11, 13):
        group = ZNStarGroup(p)
        generators = [a for a in group.elements() if bb_order(group, a) == p - 1]
        for a in generators:
            for s in range(p - 1):
                b = pow(a, s, p)
                runs += 1
                try:
                    result = discrete_log(p, a, b, np.random.default_rng(runs), repetitions=10)
                except DiscreteLogError:
                    failures += 1
                    result = discrete_log(
                        p, a, b, np.random.default_rng(10_000 + runs), repetitions=20
                    )
                assert result.exponent == s
    bound = runs * 2**-10 + 3 * math.sqrt(runs * 2**-10)
    assert failures <= bound, f"{failures} failures in {runs} runs exceeds {bound:.2f}"
    budget.finish(f"{runs} instances exact; failures {failures} <= {bound:.2f}")


def test_criterion_5_ec_discrete_log():
    budget = Budget("criterion 5 (elliptic-curve discrete log)", 60)
    curves = [
        EllipticCurveGroup(5, 1, 1),
        EllipticCurveGroup(7, 2, 3),
        EllipticCurveGroup(11, 1, 6),
    ]
    solved = 0
    for seed, curve in enumerate(curves):
        # Base point of maximal order keeps the ancilla register informative.
        points = [pt for pt in curve.elements() if pt is not None]
        a = max(points, key=lambda pt: bb_order(curve, pt))
        rng = np.random.default_rng(500 + seed)
        target = curve.identity()
        for s in range(bb_order(curve, a)):
            run = ec_discrete_log(curve, a, target, rng)
            assert run.exponent == s
            # Verify by repeated addition.
            acc = curve.identity()
            for _ in range(run.exponent):
                acc = curve.mul(acc, a)
            assert acc == target
            target = curve.mul(target, a)
            solved += 1
    budget.finish(f"{solved} multiples across 3 curves recovered and re-added")


def test_criterion_6_group_decomposition_all_moduli():
    budget = Budget("criterion 6 (group decomposition)", 120)
    rng = np.random.default_rng(42)
    checked = 0
    for n in range(2, 201):
        group = ZNStarGroup(n)
        generators = group.sample_generators(rng)
        run = decompose_group(group, generators, rng)
        brute = bb_decompose_bruteforce(group, generators)
        assert table_entries(run.table) == table_entries(brute), f"N={n}"
        # A/B round-trip identities, oracle-checked inside verify().
        run.table.verify(group)
        brute.verify(group)
        checked += 1
    budget.finish(f"all {checked} unit groups with N <= 200 give the brute-force table")


def _algorithm_circuits():
    """Black-box circuits: discrete log, order finding (finite-register
    variant), the curve run, and generator-kernel finding."""
    from normsim.algorithms import dlog_circuit, ec_dlog_circuit
    from normsim.circuits import (
        AutomorphismGate,
        DesignatedBasis,
        NormalizerCircuit,
        QFTGate,
        word_exp_func,
    )

    yield "dlog p=7", dlog_circuit(7, 3, 6), (0, 0, 1), None
    bb = ZNStarGroup(15)
    basis = DesignatedBasis(cyclic_group(4), bb)
    order_circuit = NormalizerCircuit(
        basis,
        [
            QFTGate((0,)),
            AutomorphismGate(
                func=word_exp_func(basis, [2]),
                name="word_exp",
                params={"bases": [2]},
            ),
            QFTGate((0,)),
        ],
    )
    yield "order finding N=15", order_circuit, (0, 1), [2, 14]
    curve = EllipticCurveGroup(5, 1, 1)
    yield "ec p=5", ec_dlog_circuit(curve, (0, 1), (4, 2), 9), (0, 0, None), None
    domain = cyclic_group(4, 4)
    oracle = lambda coords: ZNStarGroup(15).encode(
        (pow(2, int(coords[0]), 15) * pow(7, int(coords[1]), 15)) % 15
    )
    instance = HSPInstance(group=domain, oracle=oracle)
    oracular = OracularGroup(domain, instance.oracle)
    circuit = hsp_circuit(instance, oracular)
    yield "kernel-finding", circuit, (0, 0, oracular.identity()), list(oracular.elements())


def test_criterion_7_simulation_theorem_executable():
    budget = Budget("criterion 7 (simulation theorem)", 300)
    rng = np.random.default_rng(20240614)
    # 200 random normal-form circuits over groups of order <= 512.
    for trial in range(200):
        g = random_finite_group(rng, max_order=512)
        circuit = random_circuit(g, rng, gate_count=10)
        coords = tuple(int(rng.integers(f.modulus)) for f in g.factors)
        coset = coset_run(circuit, g.reduce(coords))
        dense = dense_run(circuit, coords, cap=1 << 14)
        assert states_equal_up_to_global_phase(dense.amplitudes, coset), f"trial {trial}"
    # Black-box circuits: de-black-box, then compare full outcome distributions.
    for name, circuit, start, generators in _algorithm_circuits():
        result = deblackbox_circuit(circuit, generators=generators, rng=rng)
        rewritten = result.circuit
        start_dec = result.point_to_decomposed(start)
        coset = coset_run(rewritten, rewritten.initial_basis.elementary.reduce(start_dec))
        dense_original = dense_run(circuit, start, cap=1 << 14)
        # Structured distribution mapped back to original labels.
        structured = {
            result.point_from_decomposed(pt): float(prob)
            for pt, prob in coset.distribution().items()
        }
        reference = dense_original.probabilities(tol=1e-12)
        support_union = set(structured) | set(reference)
        tv = 0.5 * sum(
            abs(structured.get(pt, 0.0) - reference.get(pt, 0.0))
            for pt in support_union
        )
        assert tv < 1e-9, f"{name}: total variation {tv}"
        assert set(structured) == {
            pt for pt, prob in reference.items() if prob > 1e-12
        }, f"{name}: support mismatch"
    budget.finish("200 random circuits + dlog/order/ec/kernel-finding circuits, TV = 0")


def test_criterion_8_extraction_round_trips():
    budget = Budget("criterion 8 (normal-form extraction round-trips)", 120)
    rng = np.random.default_rng(8)
    for trial in range(500):
        g = random_finite_group(rng, max_order=4096)
        rep = random_matrix_rep(g, rng)
        recovered = extract_matrix_rep(lambda pt: rep.apply(g.reduce(pt)).coords, g)
        assert recovered.equals_as_map(rep), f"matrix trial {trial}"
        form = random_quadratic_form(g, rng)
        q = extract_quadratic(lambda pt: form.exponent(g.reduce(pt)), g)
        if g.order() <= 512:
            points = list(g.elements())
        else:
            points = [g.random_element(rng) for _ in range(32)]
        for el in points:
            assert q.exponent(el) == form.exponent(el), f"phase trial {trial}"
    budget.finish("500 automorphisms and 500 phase functions recovered pointwise")


def test_criterion_9_modexp_no_go():
    budget = Budget("criterion 9 (finite-modulus repeated-squaring check)", 10)
    rng = np.random.default_rng(9)
    cases = 0
    for n in (15, 21):
        group = ZNStarGroup(n)
        generators = group.sample_generators(rng)
        for a in group.elements():
            r = bb_order(group, a)
            for m in range(1, 25):
                ok, rep = check_modexp_normalizable(m, a, group, generators)
                assert ok == (m % r == 0), f"N={n}, a={a}, M={m}"
                if ok:
                    assert rep is not None  # validate_matrix_rep ran inside
                cases += 1
    budget.finish(f"{cases} (M, a) pairs agree with the divisibility rule")


def test_criterion_10_hsp_suite():
    budget = Budget("criterion 10 (hidden subgroup suite)", 60)
    rng = np.random.default_rng(10)
    recovered = 0
    for domain in (cyclic_group(2, 2, 2), cyclic_group(4, 2)):
        for subgroup in all_subgroups(domain):
            labels = {}
            names = {}
            for el in domain.elements():
                coset = frozenset(el + h for h in subgroup)
                names.setdefault(coset, f"c{len(names)}")
                labels[el.coords] = names[coset]
            instance = HSPInstance(group=domain, oracle=lambda c: labels[tuple(c)])
            run = solve_hsp(instance, rng)
            assert run.subgroup_elements() == set(subgroup)
            assert run.log["homomorphism_certified"] is True
            recovered += 1
    budget.finish(f"{recovered} planted subgroups recovered exactly, oracle certified")
