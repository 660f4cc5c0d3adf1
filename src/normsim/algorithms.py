"""The algorithm suite: order finding, factoring, discrete logarithms over
black-box groups (Z_p^* and curves), Abelian hidden-subgroup solving, and
black-box group decomposition, each realized as a normalizer circuit run
through the simulators plus exact classical post-processing.

Every entry point takes an explicit rng; fixed seeds reproduce runs bit for
bit.  Results carry a JSON-serializable `log` with the circuit shape, the
samples drawn, and oracle-call counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import config
from .blackbox import (
    BlackBoxError,
    BlackBoxGroup,
    DecompositionTable,
    ZNStarGroup,
    bb_decompose_bruteforce,
    cayley_relations,
    decomposition_from_relations,
    minimal_order,
    simulator_order,
)
from .circuits import (
    AutomorphismGate,
    DesignatedBasis,
    NormalizerCircuit,
    QFTGate,
    word_exp_func,
)
from .deblackbox import EncodingBridge, ExtractionError
from .dense import DenseCapExceeded, DenseState, dense_run, dense_sample
from .dirichlet import DirichletDistribution
from .groups import ElementaryGroup, GroupElement, cyclic_group
from .linalg import (
    GroupLinearSystem,
    continued_fraction_reconstruct,
    hermite_reduce,
    identity_matrix,
    is_prime,
    prime_factors,
    solve_group_system,
)


#: Measurement samples `find_order` draws before it gives up.
FIND_ORDER_ROUNDS = 64

#: Measurement samples per `solve_hsp` batch, and the batches it draws
#: before it gives up.
HSP_ROUNDS = 16
HSP_MAX_BATCHES = 8


class AlgorithmError(RuntimeError):
    pass


class OrderFindingError(AlgorithmError):
    pass


class FactoringError(AlgorithmError):
    pass


class AttemptsExhausted(FactoringError):
    pass


class DiscreteLogError(AlgorithmError):
    pass


class HSPError(AlgorithmError):
    pass


def circuit_summary(circuit: NormalizerCircuit) -> dict:
    kinds = []
    for gate in circuit.gates:
        if isinstance(gate, QFTGate):
            kinds.append(f"qft{list(gate.registers)}")
        elif isinstance(gate, AutomorphismGate):
            kinds.append(gate.name or "automorphism")
        else:
            kinds.append(gate.name or "quadratic")
    return {
        "basis": str(circuit.initial_basis.elementary),
        "gates": kinds,
        "qft_layers": circuit.qft_layers(),
    }


def fourier_circuit(
    domain: ElementaryGroup, group: BlackBoxGroup, bases: Sequence
) -> NormalizerCircuit:
    """QFT, the black-box automorphism (x, y) -> (x, prod bases[i]^x_i * y), QFT.

    The one circuit behind the discrete logarithms, the hidden-subgroup runs
    and group decomposition; both QFTs act on every register of `domain`.
    """
    basis = DesignatedBasis(domain, group)
    registers = tuple(range(len(domain.factors)))
    bases = list(bases)
    return NormalizerCircuit(
        basis,
        [
            QFTGate(registers),
            AutomorphismGate(
                func=word_exp_func(basis, bases),
                name="word_exp",
                params={"bases": bases},
            ),
            QFTGate(registers),
        ],
    )


def _identity_run(circuit: NormalizerCircuit, cap: int | None) -> DenseState:
    """`dense_run` of a `fourier_circuit` from the zero / identity point."""
    basis = circuit.initial_basis
    start = basis.elementary.identity().coords + (basis.blackbox.identity(),)
    return dense_run(circuit, start, cap=cap)


def _sample_outcomes(state, shots: int, rng, width: int) -> list[tuple[int, ...]]:
    """`shots` measurements of the first `width` registers as integer tuples,
    each outcome repeated by its count."""
    outcomes: list[tuple[int, ...]] = []
    for point, count in dense_sample(state, shots, rng).items():
        outcomes.extend([point[:width]] * count)
    return outcomes


def _solve_pooled_pairs(pairs: list[tuple[int, int]], n: int) -> int | None:
    """The s in [0, n) with k s = ks (mod n) for every sampled pair (k, ks),
    or None when no s fits every pair.

    The solutions so far are s = r (mod m) with m | n.  A pair with
    g = gcd(k, n) dividing ks pins s mod n/g, and the generalized Chinese
    remainder theorem merges that into (r, m); the solution is unique in
    [0, n) exactly when m reaches n.
    """
    r, m = 0, 1
    for k, ks in pairs:
        g = math.gcd(k, n)
        if ks % g:
            return None
        step = n // g
        r2 = ks // g * pow(k // g, -1, step) % step
        h = math.gcd(m, step)
        if (r2 - r) % h:
            return None
        r += m * ((r2 - r) // h * pow(m // h, -1, step // h) % (step // h))
        m = m // h * step
        r %= m
    if m != n:
        raise DiscreteLogError(
            f"samples do not determine the exponent (all {len(pairs)} pairs degenerate)"
        )
    return r


# ---------------------------------------------------------------------------
# order finding
# ---------------------------------------------------------------------------


@dataclass
class OrderFindingRun:
    comb_m: int
    samples: list[Fraction]
    order: int
    log: dict = field(default_factory=dict)


def find_order(
    group: BlackBoxGroup,
    a,
    rng,
    comb_m: int | None = None,
    grid_size: int | None = None,
) -> OrderFindingRun:
    """Order of `a` recovered from torus-register measurement samples.

    The order is unknown, as in the black-box model: elements are n-bit
    strings, so it is bounded by r_max = 2^n from the encoding length alone,
    and the comb half-length M defaults to 2 r_max^2.

    The run simulates the physics in closed form: the comb collapses to a
    random residue and an outcome is drawn from the squared Dirichlet kernel.
    That law needs the true period, which `simulator_order` reads from the
    group's order outside the oracle model; only where that order is not
    exact (a Z_N^* whose N trial division below 2^16 leaves unfactored) does
    it walk the powers on the counted oracle, refused past 2^20.
    Recovery sees only the samples: continued fractions reconstruct nearby
    k/r fractions and the least common multiple of their denominators is
    accepted once the oracle confirms a^r = 1 (minimality is automatic
    because every denominator divides the true order).  The logged
    `oracle_calls` are then the confirming `power` calls alone.
    """
    if not group.is_element(a):
        raise OrderFindingError(f"{a!r} is not a group element")
    r_max = 1 << group.encoding_length
    # Physics side: the closed-form distribution needs the actual period.
    try:
        r_true = simulator_order(group, a)
    except BlackBoxError as exc:
        raise OrderFindingError(f"simulator: {exc}") from None
    m = comb_m if comb_m is not None else 2 * r_max * r_max
    if m < r_true:
        raise OrderFindingError(f"comb half-length {m} below the order")
    samples: list[Fraction] = []
    fractions: list[Fraction] = []
    denominators: list[int] = []
    for round_index in range(FIND_ORDER_ROUNDS):
        s = int(rng.integers(r_true))
        dist = DirichletDistribution(r_true, m, s)
        grid = grid_size or _auto_grid(dist.l)
        p = dist.sample(1, rng, grid_size=grid)[0]
        samples.append(p)
        fraction = continued_fraction_reconstruct(p, r_max)
        if fraction is None:
            continue
        fractions.append(fraction)
        denominators.append(fraction.denominator)
        # A tail sample can reconstruct to a spurious fraction, so candidates
        # come from pairs, and a confirmed multiple is stripped down to the
        # actual order prime by prime.
        for other in denominators:
            candidate = math.lcm(denominators[-1], other)
            if candidate > r_max * r_max:
                continue
            if group.power(a, candidate) != group.identity():
                continue
            order = minimal_order(group, a, candidate, group.power)
            return OrderFindingRun(
                comb_m=m,
                samples=samples,
                order=order,
                log={
                    "comb_m": m,
                    "r_max": r_max,
                    "rounds": round_index + 1,
                    "samples": [str(p) for p in samples],
                    "fractions": [str(f) for f in fractions],
                    "oracle_calls": group.counter.total,
                },
            )
    raise OrderFindingError(
        f"no confirmed order after {FIND_ORDER_ROUNDS} samples (r_max={r_max})"
    )


def _auto_grid(l: int) -> int:
    """Grid fine enough to resolve 1/L-wide peaks of the sampling density."""
    return max(config.DEFAULT_GRID_SIZE, 1 << (32 * l - 1).bit_length())


# ---------------------------------------------------------------------------
# factoring
# ---------------------------------------------------------------------------


@dataclass
class FactoringRun:
    divisor: int
    attempts: int
    log: dict = field(default_factory=dict)


def factor(n: int, rng, attempts: int = 10, comb_m: int | None = None) -> FactoringRun:
    """Nontrivial divisor of n via the reduction to order finding.

    Preconditions follow the classical reduction: n odd, composite, and not
    a prime power (those cases are handled classically up front).
    """
    if attempts < 1:
        raise FactoringError(f"attempts must be positive, got {attempts}")
    if n < 3 or n % 2 == 0:
        raise FactoringError(f"{n} must be an odd integer >= 3")
    primes = prime_factors(n)
    if primes == [n]:
        raise FactoringError(f"{n} is prime")
    if len(primes) == 1:
        p, k, rest = primes[0], 0, n
        while rest > 1:
            rest //= p
            k += 1
        raise FactoringError(f"{n} is a prime power: {p}^{k}")
    transcript = []
    group = ZNStarGroup(n)
    for attempt in range(1, attempts + 1):
        a = int(rng.integers(2, n - 1))
        g = math.gcd(a, n)
        if g > 1:
            transcript.append({"a": a, "event": "gcd shortcut", "divisor": g})
            return FactoringRun(divisor=g, attempts=attempt, log={"transcript": transcript})
        run = find_order(group, a, rng, comb_m=comb_m)
        r = run.order
        entry = {"a": a, "order": r, "samples": run.log["samples"]}
        if r % 2 == 1:
            entry["event"] = "odd order"
            transcript.append(entry)
            continue
        x = pow(a, r // 2, n)
        if x == n - 1:
            entry["event"] = "trivial square root"
            transcript.append(entry)
            continue
        # x^2 = 1 but x != 1 (r is the order) and x != n - 1: n divides
        # (x - 1)(x + 1) and neither factor, so gcd(x - 1, n) is proper.
        divisor = math.gcd(x - 1, n)
        entry["event"] = "split"
        entry["divisor"] = divisor
        transcript.append(entry)
        return FactoringRun(divisor=divisor, attempts=attempt, log={"transcript": transcript})
    raise AttemptsExhausted(f"no factor of {n} found in {attempts} attempts")


# ---------------------------------------------------------------------------
# discrete logarithm over a black-box group
# ---------------------------------------------------------------------------


@dataclass
class DiscreteLogRun:
    exponent: int
    order: int  # the modulus n of the circuit's Z_n^2 registers
    samples: list[tuple[int, int]]
    log: dict = field(default_factory=dict)


def ec_dlog_circuit(group: BlackBoxGroup, a, b, n: int) -> NormalizerCircuit:
    """The two-QFT-layer circuit over Z_n^2 x B."""
    return fourier_circuit(cyclic_group(n, n), group, [a, b])


def dlog_circuit(p: int, a: int, b: int) -> NormalizerCircuit:
    """The discrete-log circuit over Z_{p-1}^2 x Z_p^*."""
    return ec_dlog_circuit(ZNStarGroup(p), a, b, p - 1)


def _discrete_log(
    group: BlackBoxGroup, a, b, n: int, repetitions: int, rng, cap: int | None
) -> tuple[int | None, list[tuple[int, int]], NormalizerCircuit]:
    """The s in [0, n) that the pooled outcomes (k, ks) of `repetitions`
    shots of `ec_dlog_circuit` pin down (None when they are inconsistent),
    with the outcomes and the circuit."""
    circuit = ec_dlog_circuit(group, a, b, n)
    pairs = _sample_outcomes(_identity_run(circuit, cap), repetitions, rng, 2)
    return _solve_pooled_pairs(pairs, n), pairs, circuit


def discrete_log(
    p: int, a: int, b: int, rng, repetitions: int = 10, cap: int | None = None
) -> DiscreteLogRun:
    """Least s with a^s = b mod p, for a generating Z_p^*.

    The black-box discrete log on Z_p^* with n = p - 1: the runs are pooled
    into one linear system mod p-1, which pins s down unless every sampled k
    shares a factor with p-1 (probability at most about 2^-repetitions).
    """
    if repetitions < 1:
        raise DiscreteLogError(f"repetitions must be positive, got {repetitions}")
    if not is_prime(p):
        raise DiscreteLogError(f"{p} is not prime")
    group = ZNStarGroup(p)
    if not group.is_element(b):
        raise DiscreteLogError(f"{b} is not a unit mod {p}")
    # a generates Z_p^* exactly when its order is p - 1: no prime of p - 1
    # strips off (Lagrange); a non-unit raises BlackBoxError.
    group._check(a)
    if minimal_order(group, a, p - 1, group.power) != p - 1:
        raise DiscreteLogError(f"{a} does not generate the units mod {p}")
    s, pairs, circuit = _discrete_log(group, a, b, p - 1, repetitions, rng, cap)
    if s is None:
        raise DiscreteLogError("inconsistent samples; the oracle promise failed")
    if pow(a, s, p) != b:
        raise DiscreteLogError("postprocessing produced a wrong exponent")
    log = {"circuit": circuit_summary(circuit), "pairs": pairs, "repetitions": repetitions}
    return DiscreteLogRun(exponent=s, order=p - 1, samples=pairs, log=log)


def ec_discrete_log(
    group: BlackBoxGroup, a, b, rng, repetitions: int = 12, cap: int | None = None
) -> DiscreteLogRun:
    """Least s with a^s = b in any finite black-box group, elliptic curves
    included (there s a = b), by the two-ancilla circuit.

    The ancilla modulus is the order of `a`, found by the order-finding run;
    outcomes (u, v) satisfy v = s u, pooled and solved mod that order.  One
    check a^s = b afterwards rejects a b outside <a>: the pooled samples are
    then inconsistent, or their solution fails the check.
    """
    if repetitions < 1:
        raise DiscreteLogError(f"repetitions must be positive, got {repetitions}")
    order_run = find_order(group, a, rng)
    n = order_run.order
    s, pairs, circuit = _discrete_log(group, a, b, n, repetitions, rng, cap)
    if s is None or group.power(a, s) != b:
        raise DiscreteLogError(f"{b!r} is not a multiple of {a!r}")
    log = {
        "circuit": circuit_summary(circuit),
        "pairs": pairs,
        "order_samples": order_run.log["samples"],
    }
    return DiscreteLogRun(exponent=s, order=n, samples=pairs, log=log)


# ---------------------------------------------------------------------------
# the hidden subgroup problem
# ---------------------------------------------------------------------------


class OracularGroup(BlackBoxGroup):
    """Group structure induced on an HSP oracle's value set.

    Multiplication goes through stored preimage representatives:
    x * y = f(r(x) + r(y)), with r(x) the first preimage of x in enumeration
    order.  Well-definedness is exactly the coset promise of the oracle.
    The constructor evaluates f once per domain point and keeps the table of
    values, from which `certify_homomorphism` checks the promise with one
    lookup per point and unit generator and no further oracle calls.
    """

    def __init__(self, domain: ElementaryGroup, oracle: Callable) -> None:
        super().__init__()
        self.domain = domain
        self.oracle = oracle
        self._table: list = []  # f at every domain point, in enumeration order
        self._representative: dict = {}  # value -> coordinates of r(value)
        for el in domain.elements():
            value = oracle(el.coords)
            self._table.append(value)
            self._representative.setdefault(value, el.coords)
        self._moduli = [f.modulus for f in domain.factors]
        self._values = sorted(self._representative, key=repr)
        self.encoding_length = max(1, (len(self._values) - 1).bit_length())

    def _check(self, x):
        self._representative[x]  # the lookup `_mul` fails on for a non-element
        return x

    def _mul(self, x, y):
        gx = self._representative[x]
        gy = self._representative[y]
        return self.oracle(tuple((a + b) % n for a, b, n in zip(gx, gy, self._moduli)))

    _product = _mul  # the lookups are the check

    def _inv(self, x):
        gx = self._representative[x]
        return self.oracle(tuple(-a % n for a, n in zip(gx, self._moduli)))

    def identity(self):
        return self._table[0]  # the zero element is enumerated first

    def is_element(self, x) -> bool:
        return x in self._representative

    def encode(self, x) -> str:
        return repr(x)

    def elements(self):
        return iter(self._values)

    def order(self) -> int:
        return len(self._values)

    def random_element(self, rng):
        return self._values[int(rng.integers(len(self._values)))]

    def certify_homomorphism(self) -> bool:
        """Check that f's level sets are the cosets of a subgroup H.

        Test: f(g + e_i) = f(r(g) + e_i) for every point g and unit
        generator e_i, i.e. k |G| table lookups and no oracle calls.  For a
        deterministic oracle this is equivalent to the pairwise test
        f(g + h) = f(r(g) + r(h)) over all g, h:
        (1) passing makes f(g) = f(g') imply f(g + e_i) = f(g' + e_i), and
            the e_i generate G, so every translation preserves the level sets;
        (2) a translation-invariant partition of a finite group is the coset
            partition of its block H = f^-1(f(0)), which is then a subgroup;
        (3) on a coset partition r(g) - g is in H, so both tests pass.
        """
        # labels[g]: index of r(g); equal labels <=> equal oracle values.
        first: dict = {}
        labels = np.array(
            [first.setdefault(value, i) for i, value in enumerate(self._table)],
            dtype=np.int64,
        ).reshape([f.modulus for f in self.domain.factors])
        flat = labels.ravel()
        for axis in range(labels.ndim):
            shifted = np.roll(labels, -1, axis=axis).ravel()  # labels of g + e_i
            if not np.array_equal(shifted, shifted[flat]):
                return False
        return True


@dataclass
class HSPInstance:
    group: ElementaryGroup  # finite, explicitly decomposed
    oracle: Callable  # coords tuple -> hashable value


@dataclass
class HSPRun:
    domain: ElementaryGroup
    generators: list[GroupElement]
    log: dict = field(default_factory=dict)

    def subgroup_elements(self) -> set:
        seen = {self.domain.identity()}
        frontier = [self.domain.identity()]
        while frontier:
            current = frontier.pop()
            for gen in self.generators:
                nxt = current + gen
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def hsp_circuit(instance: HSPInstance, oracular: OracularGroup) -> NormalizerCircuit:
    bases = [oracular.oracle(el.coords) for el in _unit_elements(instance.group)]
    return fourier_circuit(instance.group, oracular, bases)


def _unit_elements(group: ElementaryGroup) -> list[GroupElement]:
    return [group.reduce(row) for row in identity_matrix(len(group.factors))]


def _sample_kernel(circuit: NormalizerCircuit, rng, cap: int | None) -> tuple[list, list, int]:
    """Kernel H of x -> prod bases[i]^x_i, sampled from a `fourier_circuit`
    run once from the zero / identity point: H's non-identity generators, the
    samples and the number of batches.

    Each measured vector y annihilates H.  Batches of samples, scaled into
    Z_d^k and taken with the wraparounds d Z^k, span the lattice of the
    sampled dual subgroup S, whose annihilator S^perp estimates H.  Sampling
    stops once the Hermite form of that lattice is the same after two
    batches: the form is canonical and S -> S^perp is a bijection, so equal
    forms mean an equal estimate.  One congruence solve then gives H.
    """
    domain = circuit.initial_basis.elementary
    state = _identity_run(circuit, cap)
    moduli = [f.modulus for f in domain.factors]
    d = math.lcm(*moduli)
    wraps = [[d if i == j else 0 for j in range(len(moduli))] for i in range(len(moduli))]
    samples: list[tuple[int, ...]] = []
    previous = None
    for batch in range(HSP_MAX_BATCHES):
        samples.extend(_sample_outcomes(state, HSP_ROUNDS, rng, len(moduli)))
        scaled = [[y[j] * (d // moduli[j]) for j in range(len(moduli))] for y in set(samples)]
        rows = hermite_reduce(scaled + wraps)
        if rows == previous:
            break
        previous = rows
    else:
        raise HSPError(f"estimate did not stabilize after {HSP_MAX_BATCHES} batches")
    solved = solve_group_system(
        GroupLinearSystem(rows, [0] * len(rows), [d] * len(rows), len(moduli))
    )
    if solved is None:
        raise HSPError("homogeneous system cannot be infeasible")
    gens = [domain.reduce(gen) for gen in solved[1]]
    return [g for g in gens if not g.is_identity()], samples, batch + 1


def solve_hsp(instance: HSPInstance, rng, cap: int | None = None) -> HSPRun:
    """Generating set of the hidden subgroup: the oracle's promise is
    certified, then `hsp_circuit` over the induced group is sampled."""
    group = instance.group
    if not group.is_finite:
        raise HSPError("the hidden subgroup domain must be finite here")
    oracular = OracularGroup(group, instance.oracle)
    certified = oracular.certify_homomorphism()
    if not certified:
        raise HSPError("oracle does not hide a subgroup: induced product ill-defined")
    circuit = hsp_circuit(instance, oracular)
    generators, samples, batches = _sample_kernel(circuit, rng, cap)
    return HSPRun(
        domain=group,
        generators=generators,
        log={
            "circuit": circuit_summary(circuit),
            "circuit_validated": True,  # dense_run replayed the trace
            "samples": samples,
            "batches": batches,
            "homomorphism_certified": certified,
            "oracular_order": oracular.order(),
        },
    )


# ---------------------------------------------------------------------------
# group decomposition (the extended structure-learning algorithm)
# ---------------------------------------------------------------------------


@dataclass
class GroupDecompositionRun:
    table: DecompositionTable
    log: dict = field(default_factory=dict)


def decompose_group(
    group: BlackBoxGroup,
    generators: Sequence,
    rng,
    cap: int | None = None,
) -> GroupDecompositionRun:
    """Full decomposition table for <generators> = B.

    Steps: per-generator orders by the order-finding run, with d their lcm;
    the kernel of the exponent map x -> prod generators[i]^x_i on Z_d^k,
    sampled from `fourier_circuit` over Z_d^k x B (the sampler `solve_hsp`
    runs) unless the dense engine refuses that circuit under `cap`, and read
    off the Cayley walk then, the route recorded in the log.  Every oracle
    call falls on the group's own counter, so the log's total holds them
    all.  The kernel rows plus d Z^k form the full relation lattice, and its
    Smith normal form gives the table (`decomposition_from_relations`): beta
    from the columns of the transform U, their orders from the diagonal, and
    B from the rows of U^-1.  The table is the one `bb_decompose_bruteforce`
    builds from the same lattice, and `DecompositionTable.verify` checks it
    by oracle multiplication, orders of beta included.
    """
    generators = list(generators)
    if not generators:
        raise AlgorithmError("need at least one generator")
    k = len(generators)
    log: dict = {"steps": []}

    orders = []
    for g in generators:
        run = find_order(group, g, rng)
        orders.append(run.order)
    d = math.lcm(*orders)
    log["steps"].append({"step": "orders", "orders": orders, "lcm": d})

    kernel_rows, route = _exponent_kernel(group, generators, d, rng, cap)
    log["steps"].append({"step": "kernel", "route": route, "generators": kernel_rows})

    wraps = [[d if i == j else 0 for j in range(k)] for i in range(k)]
    table = decomposition_from_relations(group, generators, kernel_rows + wraps)
    log["steps"].append({"step": "independent generators", "type": table.c})
    table.verify(group)
    log["oracle_calls"] = group.counter.total
    return GroupDecompositionRun(table=table, log=log)


def _exponent_kernel(
    group: BlackBoxGroup, generators: Sequence, d: int, rng, cap: int | None
) -> tuple[list[list[int]], str]:
    """Kernel generators of x -> prod generators[i]^x(i) on Z_d^k: sampled,
    or read off the Cayley walk when the dense engine refuses the circuit
    (before any oracle call or rng draw)."""
    circuit = fourier_circuit(cyclic_group(*([d] * len(generators))), group, generators)
    try:
        kernel = _sample_kernel(circuit, rng, cap)[0]
    except DenseCapExceeded:
        relations = cayley_relations(group, generators).relations
        rows = hermite_reduce([[value % d for value in rel] for rel in relations])
        return rows, "classical kernel oracle (dense cap exceeded)"
    return [list(gen.coords) for gen in kernel], "hidden-subgroup rounds (dense)"


# ---------------------------------------------------------------------------
# hidden kernel problem and linear systems over black-box groups
# ---------------------------------------------------------------------------


def solve_hkp(
    domain: ElementaryGroup,
    group: BlackBoxGroup,
    f: Callable,
    rng,
    cap: int | None = None,
) -> HSPRun:
    """Kernel generators of a homomorphism oracle f: domain -> B.

    Infinite Z factors are first reduced modulo the lcm of the image orders
    of the canonical generators, turning the instance into a finite
    hidden-subgroup run whose hidden subgroup is ker f.
    """
    if domain.is_finite:
        finite_domain = domain
        lift = None
    else:
        orders = []
        for unit in _unit_elements(domain):
            image = f(unit.coords)
            run = find_order(group, image, rng)
            orders.append(run.order)
        d = math.lcm(*orders)
        moduli = [
            f_.modulus if f_.kind == "cyclic" else d for f_ in domain.factors
        ]
        finite_domain = cyclic_group(*moduli)
        lift = moduli
    instance = HSPInstance(
        group=finite_domain,
        oracle=lambda coords: group.encode(f(coords)),
    )
    run = solve_hsp(instance, rng, cap=cap)
    if lift is None:
        return run
    gens = [domain.reduce(g.coords) for g in run.generators]
    for i, factor in enumerate(domain.factors):
        if factor.kind == "Z":
            coords = [0] * len(domain.factors)
            coords[i] = lift[i]
            gens.append(domain.reduce(coords))
    run.generators = gens
    run.log["domain"] = str(domain)
    return run


@dataclass
class LinearSystemRun:
    solution: GroupElement | None
    kernel: list[GroupElement]
    log: dict = field(default_factory=dict)

    @property
    def infeasible(self) -> bool:
        return self.solution is None


def solve_linear_system_bb(
    domain: ElementaryGroup,
    group: BlackBoxGroup,
    f: Callable,
    target,
    rng,
) -> LinearSystemRun:
    """General solution of f(x) = target over a finite domain.

    The black-box side is decomposed from generators sampled with `rng`, f
    is rewritten as an integer matrix through the encoding bridge, and the
    resulting congruence system yields a particular solution plus kernel
    generators (or infeasibility, which is a legitimate outcome, not an
    error).
    """
    if not domain.is_finite:
        raise AlgorithmError("finite domains only at desk scale")
    table = bb_decompose_bruteforce(group, group.sample_generators(rng))
    bridge = EncodingBridge(group=group, table=table)
    columns = [bridge.decode(f(unit.coords)).coords for unit in _unit_elements(domain)]
    target_vec = list(bridge.decode(target).coords)
    rows = [
        [columns[j][i] for j in range(len(domain.factors))]
        for i in range(len(table.c))
    ]
    solved = solve_group_system(
        GroupLinearSystem(rows, target_vec, list(table.c), len(domain.factors))
    )
    log = {"isomorphism_type": table.isomorphism_type()}
    if solved is None:
        return LinearSystemRun(solution=None, kernel=[], log=log)
    x0, kernel = solved
    solution = domain.reduce(x0)
    kernel_els = []
    for gen in kernel:
        el = domain.reduce(gen)
        if not el.is_identity() and el not in kernel_els:
            kernel_els.append(el)
    if f(solution.coords) != target:
        raise AlgorithmError("solver returned a non-solution")
    return LinearSystemRun(solution=solution, kernel=kernel_els, log=log)


def multivariate_dlog(group: BlackBoxGroup, beta: Sequence, b) -> list[int]:
    """Exponent vector x with beta_1^x1 ... beta_l^xl = b.

    x is b's word in the group's kept walk of beta (`cayley_relations`), for
    |<beta>| - 1 + l `mul`: for independent beta, the one x with
    0 <= x_i < ord(beta_i).
    """
    walk = cayley_relations(group, beta)
    if not group.is_element(b):
        raise ExtractionError(f"{b!r} is not in the black-box group")
    p = walk.position.get(group.encode(b))
    if p is None:
        raise AlgorithmError(f"{b!r} is not generated by the given elements")
    return list(walk.word(p))
