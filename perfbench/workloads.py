"""The three workloads: seeded instance plans, the timed calls, and their checks.

An instance is a timed call into normsim (`run`, given a fresh rng) and an
untimed check of its result (`check`). Checks build their own group objects,
so they add neither time nor oracle queries to the instance. Every black-box
group an instance queries is built inside `run`, so the oracle registry sees
all of its counters.

A plan is the instance list of one pass, drawn from the seed and the pass
index; set-up builds the first, and a run draws pass after pass until its
time is up. The shapes in a plan (moduli, group orders, gate counts) are
fixed per workload and only the random parts vary, so every pass has the
same mix of cheap and expensive instances, and a run averages over many
random draws of each shape.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from normsim import algorithms, blackbox, circuits, cli, coset, deblackbox, dense, groups
from normsim.config import DEFAULT_DENSE_CAP

from metrics import WORKLOADS


@dataclass
class Instance:
    kind: str
    label: str
    run: Callable  # rng -> result, timed
    check: Callable  # result -> None, raises CheckFailed


class CheckFailed(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def build_plan(workload: str, seed: int, pass_index: int, scratch_dir: str) -> list[Instance]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), pass_index])
    if workload == "decompose":
        return _decompose_plan(rng)
    if workload == "circuits":
        return _circuits_plan(rng)
    if workload == "shor":
        return _shor_plan(rng, scratch_dir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# plain-integer helpers (set-up and checks never spend counted queries)
# ---------------------------------------------------------------------------


def _units(n: int) -> list[int]:
    return [x for x in range(1, n) if math.gcd(x, n) == 1] or [1]


def _span_size(n: int, gens) -> int:
    seen = {1 % n}
    frontier = [1 % n]
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = current * g % n
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def _unit_order(a: int, n: int) -> int:
    r, x = 1, a % n
    while x != 1 % n:
        x = x * a % n
        r += 1
    return r


def _p_rank(units: list[int], n: int, p: int) -> int:
    """Number of cyclic factors of Z_n^* of order divisible by p."""
    count = sum(1 for x in units if pow(x, p, n) == 1)
    rank = 0
    while count > 1:
        count //= p
        rank += 1
    return rank


def _primes_dividing(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _closure(moduli, gens) -> set:
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % m for a, b, m in zip(current, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# decompose: group-structure learning
# ---------------------------------------------------------------------------

DECOMPOSE_MODULI = range(2, 65)
# decompose_group certifies the kernel oracle over the whole domain Z_d^k, an
# O(|domain|^2) check. Moduli whose minimal generating set gives a domain above
# 64 elements but still inside the dense cap take 0.6-1.8 s each and would
# stretch one pass to 11 s; they are left out so a run holds 100+ instances.
# Moduli past the dense cap stay in: they take the classical kernel route.
MAX_CERTIFIED_DOMAIN = 64
HSP_DOMAINS = [(2, 2, 2), (4, 2), (3, 3), (4, 4), (2, 2, 4), (6, 2), (2, 3, 4), (8, 2)]


def _decompose_plan(rng) -> list[Instance]:
    plan = []
    for n in DECOMPOSE_MODULI:
        units = _units(n)
        order = len(units)
        k = max([1] + [_p_rank(units, n, p) for p in _primes_dividing(order)])
        d = math.lcm(*(_unit_order(a, n) for a in units))
        domain = d**k
        if MAX_CERTIFIED_DOMAIN < domain and domain * order <= DEFAULT_DENSE_CAP:
            continue
        while True:
            gens = [units[int(rng.integers(len(units)))] for _ in range(k)]
            if _span_size(n, gens) == order:
                break
        plan.append(_decompose_instance(n, gens))
    for moduli in HSP_DOMAINS:
        count = int(rng.integers(1, 3))
        gens = [tuple(int(rng.integers(m)) for m in moduli) for _ in range(count)]
        plan.append(_hsp_instance(moduli, _closure(moduli, gens)))
    return plan


def _decompose_instance(n: int, gens: list[int]) -> Instance:
    def run(rng):
        return algorithms.decompose_group(blackbox.ZNStarGroup(n), gens, rng)

    def check(result):
        fresh = blackbox.ZNStarGroup(n)
        brute = blackbox.bb_decompose_bruteforce(fresh, gens)
        _require(
            result.table.isomorphism_type() == brute.isomorphism_type(),
            f"N={n}: type {result.table.isomorphism_type()} != {brute.isomorphism_type()}",
        )
        result.table.verify(blackbox.ZNStarGroup(n))

    return Instance("decompose_group", f"N={n} gens={gens}", run, check)


def _hsp_instance(moduli, subgroup: set) -> Instance:
    labels: dict = {}
    names: dict = {}
    for coords in _closure(moduli, [_unit_vector(len(moduli), i) for i in range(len(moduli))]):
        coset_key = frozenset(
            tuple((a + b) % m for a, b, m in zip(coords, h, moduli)) for h in subgroup
        )
        labels[coords] = names.setdefault(coset_key, f"c{len(names)}")

    def run(rng):
        instance = algorithms.HSPInstance(
            group=groups.cyclic_group(*moduli), oracle=lambda c: labels[tuple(int(x) for x in c)]
        )
        return algorithms.solve_hsp(instance, rng)

    def check(result):
        found = {tuple(int(c) for c in el.coords) for el in result.subgroup_elements()}
        _require(found == subgroup, f"Z{moduli}: recovered {sorted(found)} != planted")

    return Instance("solve_hsp", f"Z{moduli} |H|={len(subgroup)}", run, check)


def _unit_vector(m: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(m))


# ---------------------------------------------------------------------------
# circuits: the simulation engines and normal-form extraction
# ---------------------------------------------------------------------------

# Group shapes fix each instance's cost; the seed draws the gates.
ENGINE_SHAPES = [
    (8,), (12,), (2, 6), (4, 4), (3, 9), (2, 2, 2), (6, 6), (2, 4, 8),
    (4, 4, 4), (2, 3, 4, 5), (8, 8, 8), (16, 32), (2, 2, 2, 2, 2), (9, 9), (5, 5, 5),
]
EXTRACT_SHAPES = [
    (7,), (4, 6), (2, 2, 3), (8, 8), (3, 5, 7), (4, 4, 4, 4), (12, 12),
    (2, 4, 8, 16), (16, 16, 16), (9, 27), (6, 10, 14), (64, 64),
]
DEBLACKBOX_CIRCUITS = ("dlog p=7", "order finding N=15", "ec p=5", "kernel-finding")


def _circuits_plan(rng) -> list[Instance]:
    plan = [_engine_instance(moduli, rng) for moduli in ENGINE_SHAPES]
    plan += [_extract_instance(moduli, rng) for moduli in EXTRACT_SHAPES]
    plan += [_deblackbox_instance(name, rng) for name in DEBLACKBOX_CIRCUITS]
    return plan


def _random_automorphism(group, rng, moves: int = 6):
    """Product of shears, equal-order swaps and unit scalings, each valid."""
    moduli = [f.modulus for f in group.factors]
    m = len(moduli)
    matrix = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(moves):
        step = [[int(i == j) for j in range(m)] for i in range(m)]
        kind = int(rng.integers(3)) if m > 1 else 2
        if kind == 0:
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
            unit = moduli[i] // math.gcd(moduli[i], moduli[j])
            step[i][j] = unit * int(rng.integers(1, max(2, moduli[i] // unit + 1)))
        elif kind == 1:
            pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if moduli[i] == moduli[j]]
            if not pairs:
                continue
            i, j = pairs[int(rng.integers(len(pairs)))]
            step[i][i] = step[j][j] = 0
            step[i][j] = step[j][i] = 1
        else:
            i = int(rng.integers(m))
            units = _units(moduli[i]) if moduli[i] > 1 else [1]
            step[i][i] = units[int(rng.integers(len(units)))]
        matrix = [
            [sum(step[r][t] * matrix[t][c] for t in range(m)) for c in range(m)]
            for r in range(m)
        ]
    return circuits.validate_matrix_rep(matrix, group)


def _random_quadratic(group, rng):
    moduli = [f.modulus for f in group.factors]
    m = len(moduli)
    entries = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        entries[i][i] = Fraction(int(rng.integers(moduli[i])), moduli[i])
        for j in range(i + 1, m):
            g = math.gcd(moduli[i], moduli[j])
            entries[i][j] = entries[j][i] = Fraction(int(rng.integers(g)), g)
    v = [Fraction(int(rng.integers(n)), n) for n in moduli]
    return circuits.validate_quadratic(entries, v, group)


def _random_circuit(group, rng):
    """A full QFT, then three automorphisms, three phase gates and two
    partial QFTs in seeded order: every gate after the first touches the
    whole state, so the shape alone sets the dense engine's cost."""
    m = len(group.factors)
    gates = [circuits.QFTGate(tuple(range(m)))]
    kinds = ["auto"] * 3 + ["quad"] * 3 + ["qft"] * 2
    for index in rng.permutation(len(kinds)):
        kind = kinds[int(index)]
        if kind == "auto":
            gates.append(circuits.AutomorphismGate(rep=_random_automorphism(group, rng)))
        elif kind == "quad":
            gates.append(circuits.QuadraticGate(form=_random_quadratic(group, rng)))
        else:
            count = int(rng.integers(1, m + 1))
            registers = tuple(sorted(int(r) for r in rng.choice(m, size=count, replace=False)))
            gates.append(circuits.QFTGate(registers))
    return circuits.NormalizerCircuit(circuits.DesignatedBasis(group), gates)


def _engine_instance(moduli, rng) -> Instance:
    group = groups.cyclic_group(*moduli)
    circuit = _random_circuit(group, rng)
    start = tuple(int(rng.integers(n)) for n in moduli)

    def run(_rng):
        state = coset.coset_run(circuit, group.reduce(start))
        expanded = state.dense_amplitudes()
        reference = dense.dense_run(circuit, start)
        return state, expanded, reference

    def check(result):
        state, expanded, reference = result
        _require(
            coset.states_equal_up_to_global_phase(reference.amplitudes, state),
            f"Z{moduli}: coset and dense states differ",
        )
        _require(expanded.shape == reference.amplitudes.shape, f"Z{moduli}: expansion shape")

    return Instance("engines", f"Z{moduli}", run, check)


def _extract_instance(moduli, rng) -> Instance:
    group = groups.cyclic_group(*moduli)
    rep = _random_automorphism(group, rng)
    form = _random_quadratic(group, rng)
    if group.order() <= 512:
        points = [el.coords for el in group.elements()]
    else:
        points = [tuple(int(rng.integers(n)) for n in moduli) for _ in range(32)]

    def run(_rng):
        recovered = deblackbox.extract_matrix_rep(lambda pt: rep.apply(group.reduce(pt)).coords, group)
        q = deblackbox.extract_quadratic(lambda pt: form.exponent(group.reduce(pt)), group)
        return recovered, q

    def check(result):
        recovered, q = result
        _require(recovered.equals_as_map(rep), f"Z{moduli}: automorphism not recovered")
        for coords in points:
            el = group.reduce(coords)
            _require(q.exponent(el) == form.exponent(el), f"Z{moduli}: phase differs at {coords}")

    return Instance("extract", f"Z{moduli}", run, check)


def _algorithm_circuit(name: str, param):
    """(circuit, start point, deblackbox generators) for one algorithm circuit,
    on a freshly built black-box group."""
    if name == "dlog p=7":
        return algorithms.dlog_circuit(7, 3, pow(3, param, 7)), (0, 0, 1), None
    if name == "order finding N=15":
        group = blackbox.ZNStarGroup(15)
        basis = circuits.DesignatedBasis(groups.cyclic_group(4), group)
        circuit = circuits.NormalizerCircuit(
            basis,
            [
                circuits.QFTGate((0,)),
                circuits.AutomorphismGate(
                    func=circuits.word_exp_func(basis, [param]), name="word_exp", params={"bases": [param]}
                ),
                circuits.QFTGate((0,)),
            ],
        )
        return circuit, (0, 1), [2, 14]
    if name == "ec p=5":
        curve = blackbox.EllipticCurveGroup(5, 1, 1)
        return algorithms.ec_dlog_circuit(curve, (0, 1), param, 9), (0, 0, None), None
    if name == "kernel-finding":
        domain = groups.cyclic_group(4, 4)
        encoder = blackbox.ZNStarGroup(15)

        def oracle(coords):
            return encoder.encode(pow(2, int(coords[0]), 15) * pow(7, int(coords[1]), 15) % 15)

        instance = algorithms.HSPInstance(group=domain, oracle=oracle)
        oracular = algorithms.OracularGroup(domain, oracle)
        circuit = algorithms.hsp_circuit(instance, oracular)
        return circuit, (0, 0, oracular.identity()), list(oracular.elements())
    raise ValueError(name)


def _deblackbox_instance(name: str, rng) -> Instance:
    # The seed picks the dlog exponent, the order-finding base and the curve
    # point; the kernel-finding oracle is fixed.
    param = None
    if name == "dlog p=7":
        param = int(rng.integers(6))
    elif name == "order finding N=15":
        param = _units(15)[1 + int(rng.integers(7))]
    elif name == "ec p=5":
        curve = blackbox.EllipticCurveGroup(5, 1, 1)
        param = curve.identity()
        for _ in range(int(rng.integers(9))):
            param = curve.mul(param, (0, 1))

    def run(rng):
        circuit, start, gens = _algorithm_circuit(name, param)
        result = deblackbox.deblackbox_circuit(circuit, generators=gens, rng=rng)
        rewritten = result.circuit
        start_dec = result.point_to_decomposed(start)
        state = coset.coset_run(rewritten, rewritten.initial_basis.elementary.reduce(start_dec))
        return result, state

    def check(output):
        result, state = output
        circuit, start, _ = _algorithm_circuit(name, param)
        reference = dense.dense_run(circuit, start, cap=1 << 14).probabilities(tol=1e-12)
        structured = {
            result.point_from_decomposed(pt): float(prob) for pt, prob in state.distribution().items()
        }
        support = set(structured) | set(reference)
        tv = 0.5 * sum(abs(structured.get(pt, 0.0) - reference.get(pt, 0.0)) for pt in support)
        _require(tv < 1e-9, f"{name}: total variation {tv}")
        _require(set(structured) == set(reference), f"{name}: support mismatch")

    return Instance("deblackbox", f"{name} ({param})", run, check)


# ---------------------------------------------------------------------------
# shor: the number-theoretic algorithms
# ---------------------------------------------------------------------------

# N < 64 keeps the order-finding comb at M = 2 * 64^2, so the sampler's CDF
# grids stay at most 2^19 points. From N = 65 the comb is 2 * 128^2 and one
# unlucky order-2 base builds a 2^21-point grid with about 100 MB of
# temporaries: peak memory over a pass then ranged from 115 to 172 MB across
# seeds, against 96-101 MB below 64. The range also stays below 225 = 15^2,
# which factor() refuses as a "prime power" although it is not one.
FACTOR_RANGE = range(15, 64, 2)
CLI_SHARE = 4  # every fourth factoring instance goes through normsim.cli.main
FACTOR_ATTEMPTS = 40  # failure odds below 2^-40 per instance
DLOG_PRIMES = (5, 7, 11, 13, 17)
DLOG_REPETITIONS = 24  # a degenerate sample set has odds about 2^-24
EC_CURVES = [(5, 1, 1), (7, 3, 1), (11, 1, 1), (13, 2, 2), (17, 2, 4)]
EC_REPETITIONS = 32


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _is_prime_power(n: int) -> bool:
    return len(_primes_dividing(n)) == 1


def _shor_plan(rng, scratch_dir: str) -> list[Instance]:
    plan = []
    composites = [n for n in FACTOR_RANGE if not _is_prime(n) and not _is_prime_power(n)]
    for position, n in enumerate(composites):
        if position % CLI_SHARE == 0:
            plan.append(_cli_factor_instance(n, scratch_dir))
        else:
            plan.append(_factor_instance(n))
    for p in DLOG_PRIMES:
        for a in _units(p):
            if _unit_order(a, p) != p - 1:
                continue
            for s in range(p - 1):
                plan.append(_dlog_instance(p, a, s))
    for p, a, b in EC_CURVES:
        curve = blackbox.EllipticCurveGroup(p, a, b)
        points = [pt for pt in curve.elements() if pt is not None]
        orders = {pt: blackbox.bb_order(curve, pt) for pt in points}
        base = max(points, key=lambda pt: orders[pt])
        target = curve.identity()
        for s in range(orders[base]):
            plan.append(_ec_instance((p, a, b), base, target, s))
            target = curve.mul(target, base)
    return plan


def _factor_instance(n: int) -> Instance:
    def run(rng):
        return algorithms.factor(n, rng, attempts=FACTOR_ATTEMPTS)

    def check(result):
        _require(1 < result.divisor < n and n % result.divisor == 0, f"N={n}: bad divisor {result.divisor}")

    return Instance("factor", f"N={n}", run, check)


def _cli_factor_instance(n: int, scratch_dir: str) -> Instance:
    path = os.path.join(scratch_dir, f"factor_{n}.json")

    def run(rng):
        seed = int(rng.integers(1 << 31))
        return cli.main(
            ["factor", str(n), "--seed", str(seed), "--attempts", str(FACTOR_ATTEMPTS),
             "--out", path, "--format", "json"]
        )

    def check(code):
        _require(code == 0, f"N={n}: cli exit code {code}")
        with open(path) as fh:
            divisor = json.load(fh)["divisor"]
        _require(1 < divisor < n and n % divisor == 0, f"N={n}: cli divisor {divisor}")
        for name in (path, path + ".log.json"):
            if os.path.exists(name):
                os.remove(name)

    return Instance("cli factor", f"N={n}", run, check)


def _dlog_instance(p: int, a: int, s: int) -> Instance:
    b = pow(a, s, p)

    def run(rng):
        return algorithms.discrete_log(p, a, b, rng, repetitions=DLOG_REPETITIONS)

    def check(result):
        _require(pow(a, result.exponent, p) == b, f"p={p}: {a}^{result.exponent} != {b}")

    return Instance("discrete_log", f"p={p} a={a} s={s}", run, check)


def _ec_instance(curve_params, base, target, s: int) -> Instance:
    def run(rng):
        curve = blackbox.EllipticCurveGroup(*curve_params)
        return algorithms.ec_discrete_log(curve, base, target, rng, repetitions=EC_REPETITIONS)

    def check(result):
        curve = blackbox.EllipticCurveGroup(*curve_params)
        acc = curve.identity()
        for _ in range(result.exponent):
            acc = curve.mul(acc, base)
        _require(acc == target, f"curve {curve_params}: {result.exponent} * {base} != {target}")

    return Instance("ec_discrete_log", f"curve={curve_params} s={s}", run, check)
