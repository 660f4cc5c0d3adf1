"""Black-box Abelian groups: uniquely encoded elements, oracle multiply/invert.

Backends here are desk-scale stand-ins for the oracle model: Z_N^* under
multiplication and elliptic-curve groups over prime fields.  Every mul/inv
goes through the oracle counter, so tests can assert query budgets.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .linalg import (
    Matrix, finite_presentation, hermite_reduce, is_prime, prime_factors
)

DEFAULT_ORDER_CAP = 1 << 20

#: Random candidates `sample_generators` draws before it gives up.
SAMPLE_GENERATOR_TRIES = 256

#: `ZNStarGroup.order_within` tries trial division by the integers below this.
SMALL_TRIAL_BOUND = 1 << 16


class BlackBoxError(ValueError):
    pass


class OracleCounter:
    """Tally of group-oracle queries; the cost measure of the black-box model."""

    def __init__(self) -> None:
        self.mul = 0
        self.inv = 0

    @property
    def total(self) -> int:
        return self.mul + self.inv


class BlackBoxGroup:
    """Finite Abelian group with unit-cost oracle multiplication.

    Elements are canonical immutable Python values; `encode` maps them to the
    unique strings of the black-box model.  Subclasses implement the raw
    operations; this base class wraps them with query counting.
    """

    encoding_length: int

    def __init__(self) -> None:
        self.counter = OracleCounter()
        self._walk: tuple | None = None  # (generator encodings, CosetWalk)

    # -- subclass surface ---------------------------------------------------

    def _check(self, x):
        """x itself; raises the backend's error when x is not an element."""
        raise NotImplementedError

    def _product(self, x, y):
        """x * y for operands already known to be elements."""
        raise NotImplementedError

    def _mul(self, x, y):
        return self._product(self._check(x), self._check(y))

    def _inv(self, x):
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def is_element(self, x) -> bool:
        raise NotImplementedError

    def encode(self, x) -> str:
        raise NotImplementedError

    def elements(self) -> Iterator:
        """Desk-scale extension outside the oracle model: every element, at
        no oracle call.  The dense engine labels its black-box axis in this
        order, and tests use it as a reference listing."""
        raise NotImplementedError

    def order(self) -> int:
        raise NotImplementedError

    def order_within(self, limit: float) -> tuple[int, bool]:
        """(order, True), or (b, False) with b a lower bound on the order and
        b > limit, where finding the order could be slow.  Only the
        simulator reads it, never an algorithm: the dense cap, the generator
        walk's cap, the brute-force oracle's count check and the period
        `simulator_order` hands to order finding's closed-form sampler."""
        return self.order(), True

    # -- oracle calls -------------------------------------------------------

    def mul(self, x, y):
        self.counter.mul += 1
        return self._mul(x, y)

    def inv(self, x):
        self.counter.inv += 1
        return self._inv(x)

    def power(self, x, k: int):
        """x^k by left-to-right square-and-multiply.

        For k > 0 this counts bit_length(k) + popcount(k) - 2 `mul` calls:
        one squaring per bit after the leading one and one product per set
        bit after it, so x^1 counts none; k = 0 counts none, and k < 0 one
        `inv` more.  The argument is checked once, with the error `mul`
        would raise: every value inside the loop is a product of elements,
        hence an element, so the loop multiplies unchecked.
        """
        if k < 0:
            return self.power(self.inv(x), -k)
        if not k:
            return self.identity()
        k = operator.index(k)
        base = self._check(x)
        self.counter.mul += k.bit_length() + k.bit_count() - 2
        return self._power(base, k)

    def _power(self, base, k: int):
        """base^k for an element `base` and k >= 0, by the squarings and
        products `power` counts, at no oracle call: from `base`, each bit of
        k after the leading one squares, and a set bit then multiplies by
        `base`."""
        if not k:
            return self.identity()
        result = base
        for bit in bin(k)[3:]:
            result = self._product(result, result)
            if bit == "1":
                result = self._product(result, base)
        return result

    def word(self, generators: Sequence, exponents: Sequence[int]):
        """generators[0]^e0 * generators[1]^e1 * ...

        Zero exponents are skipped, so a word with t nonzero exponents costs
        its t `power` calls plus t - 1 `mul`; an all-zero word is the
        identity at no call."""
        if len(generators) != len(exponents):
            raise BlackBoxError("generator/exponent length mismatch")
        terms = [self.power(g, e) for g, e in zip(generators, exponents) if e]
        if not terms:
            return self.identity()
        return functools.reduce(self.mul, terms)

    def sample_generators(self, rng) -> list:
        """Random generating set, keeping only candidates outside the walk of
        those already kept (so the set stays logarithmically small).  Each kept
        candidate folds its cosets onto the group's kept walk, so sampling
        costs |<gens>| - 1 + len(gens) `mul` in all, and the group keeps the
        walk of the generators returned."""
        target, _ = self.order_within(DEFAULT_ORDER_CAP)
        if target > DEFAULT_ORDER_CAP:  # the walk below would raise this
            raise BlackBoxError(f"group order exceeds cap {DEFAULT_ORDER_CAP}")
        gens: list = []
        walk = coset_walk(self, self.encode, self.identity(), [])
        tries = 0
        while len(walk) < target:
            candidate = self.random_element(rng)
            tries += 1
            if tries > SAMPLE_GENERATOR_TRIES:
                raise BlackBoxError("failed to sample a generating set")
            if self.encode(candidate) not in walk.position:
                gens.append(candidate)
                walk = cayley_relations(self, gens)
        if not gens:
            gens.append(self.identity())
        return gens

    def random_element(self, rng):
        raise NotImplementedError


class ZNStarGroup(BlackBoxGroup):
    """Multiplicative group of units modulo N; mul/inv via Euclid."""

    def __init__(self, modulus: int) -> None:
        super().__init__()
        if modulus < 2:
            raise BlackBoxError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        self.encoding_length = max(1, (modulus - 1).bit_length())
        self._order: int | None = None
        self._unfactored = False  # trial division below SMALL_TRIAL_BOUND failed

    def _check(self, x) -> int:
        if not self.is_element(x):
            raise BlackBoxError(f"{x} is not a unit modulo {self.modulus}")
        return x

    def _product(self, x, y):
        return (x * y) % self.modulus

    def _inv(self, x):
        return pow(self._check(x), -1, self.modulus)

    def identity(self):
        return 1

    def is_element(self, x) -> bool:
        return (
            isinstance(x, int)
            and 1 <= x < self.modulus
            and math.gcd(x, self.modulus) == 1
        )

    def encode(self, x) -> str:
        return format(self._check(x), "b").zfill(self.encoding_length)

    def elements(self) -> Iterator[int]:
        return (x for x in range(1, self.modulus) if math.gcd(x, self.modulus) == 1)

    def order(self) -> int:
        return self.order_within(math.inf)[0]

    def order_within(self, limit: float) -> tuple[int, bool]:
        """phi(N) = N prod (1 - 1/p) over the prime factors p of N, computed
        once.  When trial division below SMALL_TRIAL_BOUND leaves N
        unfactored and isqrt(N // 2) > limit, (isqrt(N // 2), False) instead,
        as phi(N) >= sqrt(N/2) for every N: a huge N is not factored.  The
        failed division is remembered, so it runs at most once."""
        if self._order is None:
            floor = math.isqrt(self.modulus // 2)
            if floor > limit and self._unfactored:
                return floor, False
            primes = prime_factors(self.modulus, SMALL_TRIAL_BOUND if floor > limit else None)
            if primes is None:
                self._unfactored = True
                return floor, False
            self._order = self.modulus
            for p in primes:
                self._order -= self._order // p
        return self._order, True

    def random_element(self, rng):
        # Rejection sampling of [0, N) by gcd.
        while True:
            x = int(rng.integers(self.modulus))
            if x >= 1 and math.gcd(x, self.modulus) == 1:
                return x

    def __repr__(self) -> str:
        return f"ZNStarGroup({self.modulus})"


Point = tuple[int, int] | None  # affine point, or None for the point at infinity


class EllipticCurveGroup(BlackBoxGroup):
    """Points of y^2 = x^3 + a x + b over F_p (p > 3 prime), plus O.

    The chord-and-tangent law; O is the identity and -P reflects about the
    x axis.  Elements encode canonically as `x,y` with coordinates in [0, p)
    and O as a reserved tag.
    """

    def __init__(self, p: int, a: int, b: int) -> None:
        super().__init__()
        if p <= 3 or not is_prime(p):
            raise BlackBoxError(f"field size must be a prime > 3, got {p}")
        a %= p
        b %= p
        if (-16 * (4 * a**3 + 27 * b**2)) % p == 0:
            raise BlackBoxError(f"singular curve: discriminant is 0 mod {p}")
        self.p = p
        self.a = a
        self.b = b
        self.encoding_length = 2 * max(1, (p - 1).bit_length()) + 1

    def is_element(self, pt: Point) -> bool:
        if pt is None:
            return True
        if not (isinstance(pt, tuple) and len(pt) == 2):
            return False
        x, y = pt
        if not (0 <= x < self.p and 0 <= y < self.p):
            return False
        return (y * y - (x**3 + self.a * x + self.b)) % self.p == 0

    def _check(self, pt: Point) -> Point:
        if not self.is_element(pt):
            raise BlackBoxError(f"{pt} is not on the curve")
        return pt

    def _product(self, pt1: Point, pt2: Point) -> Point:
        if pt1 is None:
            return pt2
        if pt2 is None:
            return pt1
        x1, y1 = pt1
        x2, y2 = pt2
        if x1 == x2 and (y1 + y2) % self.p == 0:
            return None  # inverse pair meets at the point at infinity
        if pt1 == pt2:
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, self.p) % self.p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, self.p) % self.p
        x3 = (lam * lam - x1 - x2) % self.p
        y3 = (lam * (x1 - x3) - y1) % self.p
        return (x3, y3)

    def _inv(self, pt: Point) -> Point:
        self._check(pt)
        if pt is None:
            return None
        x, y = pt
        return (x, (-y) % self.p)

    def identity(self) -> Point:
        return None

    def encode(self, pt: Point) -> str:
        self._check(pt)
        if pt is None:
            return "O"
        return f"{pt[0]},{pt[1]}"

    @functools.cached_property
    def _point_tuple(self) -> tuple[Point, ...]:
        """O, then the affine points in increasing x and, for each x, increasing y."""
        roots: dict[int, list[int]] = {}
        for y in range(self.p):
            roots.setdefault(y * y % self.p, []).append(y)
        return (None,) + tuple(
            (x, y)
            for x in range(self.p)
            for y in roots.get((x**3 + self.a * x + self.b) % self.p, ())
        )

    def elements(self) -> Iterator[Point]:
        return iter(self._point_tuple)

    def order(self) -> int:
        return len(self._point_tuple)

    def random_element(self, rng) -> Point:
        return self._point_tuple[int(rng.integers(len(self._point_tuple)))]

    def __repr__(self) -> str:
        return f"EllipticCurveGroup(p={self.p}, a={self.a}, b={self.b})"


def bb_order(group: BlackBoxGroup, a, cap: int = DEFAULT_ORDER_CAP) -> int:
    """Order of `a` by brute force; the classical test oracle.

    An order r <= cap counts r - 1 `mul` calls, one per power a^2, ..., a^r,
    so the identity counts none.  An order past the cap counts `cap` calls,
    the powers up to a^cap and one step more, then raises; a cap below 1
    raises at once and counts none.  A non-identity `a` is checked once,
    with the error `mul` would raise, after its first call is counted: every
    later power is a product of elements, so the loop multiplies unchecked.
    """
    if cap < 1:
        raise BlackBoxError(f"order of {a!r} exceeds cap {cap}")
    identity = group.identity()
    if a == identity:
        return 1
    group.counter.mul += 1  # a^2
    current = base = group._check(a)
    for r in range(2, cap + 1):
        current = group._product(current, base)
        if current == identity:
            group.counter.mul += r - 2
            return r
    group.counter.mul += cap - 1
    raise BlackBoxError(f"order of {a!r} exceeds cap {cap}")


def simulator_order(group: BlackBoxGroup, a) -> int:
    """Order of the element `a` for the simulator, outside the oracle model.

    When `order_within(0)` gives the group's order n exactly, the order is
    `minimal_order` of n by `_power`, so no oracle call is counted (the way
    `elements` lists a group at none).  Otherwise `bb_order` walks the
    powers, counted, and raises past DEFAULT_ORDER_CAP (2^20).
    """
    n, exact = group.order_within(0)
    if not exact:
        return bb_order(group, a, DEFAULT_ORDER_CAP)
    return minimal_order(group, group._check(a), n, group._power)


def minimal_order(group: BlackBoxGroup, a, multiple: int, power) -> int:
    """Smallest divisor r of `multiple` with a^r = identity, given that
    a^multiple = identity: each prime q of `multiple` is stripped while q | r
    and power(a, r / q) is the identity."""
    r, identity = multiple, group.identity()
    for q in prime_factors(multiple):
        while r % q == 0 and power(a, r // q) == identity:
            r //= q
    return r


@dataclass
class DecompositionTable:
    """Learned structure of a black-box group.

    beta are independent generators with orders c (so the group is the direct
    sum of the <beta_i>), and the integer matrices relate old and new
    generators: beta = alpha * A and alpha = beta * B, in multiplicative
    word notation.
    """

    alpha: list
    beta: list
    a: Matrix
    b: Matrix
    c: list[int]

    def isomorphism_type(self) -> list[int]:
        """Invariant factors (sorted by divisibility) of the group."""
        k = len(self.c)
        diagonal = [[c * (i == j) for j in range(k)] for i, c in enumerate(self.c)]
        return finite_presentation(diagonal, k)[2]

    def order(self) -> int:
        return math.prod(self.c)

    def verify(self, group: BlackBoxGroup, exhaustive: bool = False) -> None:
        """Check the table's defining identities by oracle multiplication.

        beta = alpha A and alpha = beta B cost one `word` per column, and
        each ord(beta_i) = c_i its prime certificate, `minimal_order` of c_i:
        one `power` to c_i and one to c_i / q per prime q of c_i, O(log^2 c_i)
        `mul` in all where a walk of the powers would take c_i - 1.
        """
        k, ell = len(self.alpha), len(self.beta)
        if any(len(row) != ell for row in self.a) or len(self.a) != k:
            raise BlackBoxError("matrix A has the wrong shape")
        if any(len(row) != k for row in self.b) or len(self.b) != ell:
            raise BlackBoxError("matrix B has the wrong shape")
        for j in range(ell):
            column = [self.a[i][j] for i in range(k)]
            if group.word(self.alpha, column) != self.beta[j]:
                raise BlackBoxError(f"beta[{j}] != alpha * A[:, {j}]")
        for j in range(k):
            column = [self.b[i][j] for i in range(ell)]
            if group.word(self.beta, column) != self.alpha[j]:
                raise BlackBoxError(f"alpha[{j}] != beta * B[:, {j}]")
        identity = group.identity()
        for i, (b_i, c_i) in enumerate(zip(self.beta, self.c)):
            # ord(b_i) = c_i exactly when b_i^c_i = 1 and no prime strips
            # off c_i.  prime_factors(0) is empty, so a c_i below 1 is
            # refused first.
            if (
                c_i < 1
                or group.power(b_i, c_i) != identity
                or minimal_order(group, b_i, c_i, group.power) != c_i
            ):
                raise BlackBoxError(f"order of beta[{i}] is not {c_i}")
        if exhaustive:
            # Direct-sum check.  The checks above give <beta> = <alpha> and
            # ord(beta_i) = c_i, so x -> beta^x maps Z_c onto <alpha>: a
            # bijection exactly when |<alpha>| = prod c, read off the group's
            # kept walk (`cayley_relations`), which raises past the cap.
            reached = len(cayley_relations(group, self.alpha)) if self.alpha else 1
            if reached != self.order():
                raise BlackBoxError("beta generators are not independent")


@dataclass
class CosetWalk:
    """The coset y0 <g_1, .., g_k> in mixed-radix order: elements[p] is
    y0 g_1^d_1 .. g_k^d_k for (d_1, .., d_k) = word(p), d_r < moduli[r], and
    position maps each element's key to p, in that order.  y0 g_r^moduli[r]
    is y0 times the word carries[r] in g_1, .., g_(r-1).  `word` and its
    inverse `index` take ints or integer numpy arrays."""

    elements: list
    position: dict
    moduli: list[int] = field(default_factory=list)
    carries: list[tuple[int, ...]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.elements)

    def word(self, p):
        digits = []
        for m in self.moduli:
            p, d = divmod(p, m)
            digits.append(d)
        return tuple(digits)

    def index(self, exponents):
        """Position of y0 g_1^x_1 .. g_k^x_k for any integers x_r (arrays
        broadcast): x_r is reduced by its relation, last generator first,
        the quotient times carries[r] added to the earlier exponents."""
        x, p = list(exponents), 0
        for r in reversed(range(len(x))):
            q, d = divmod(x[r], self.moduli[r])
            for i, w in enumerate(self.carries[r]):
                if w:
                    x[i] = x[i] + q * w
            p = p * self.moduli[r] + d
        return p

    @property
    def relations(self) -> list[list[int]]:
        """m_r e_r - carries[r]: k lower-triangular rows of diagonal product len(self)."""
        return [[-w for w in carry] + [m] + [0] * (len(self.moduli) - 1 - r)
                for r, (m, carry) in enumerate(zip(self.moduli, self.carries))]


def coset_walk(group: BlackBoxGroup, key, start, generators: Sequence,
               walk: CosetWalk | None = None, cap: float = math.inf) -> CosetWalk:
    """The fold of the coset start <generators>, appended to `walk` if given.

    Generator g multiplies the last coset reached by g, one product per
    element, while its first image is new; the first image whose key the
    walk holds closes y0 g^m = an element of the walk before g.  So the walk
    costs |<generators>| - 1 + k `mul`, on the unchecked product after one
    `_check` per generator, counted in bulk: every product made, also when
    `key` (element -> hashable key) raises.  A coset that would take the walk
    past `cap` elements raises.  This fold is the step a sqrt(n) method replaces.
    """
    if walk is None:
        walk = CosetWalk([start], {key(start): 0})
    elements, position, product = walk.elements, walk.position, group._product
    for g in generators:
        g = group._check(g)
        size = n = len(elements)
        try:
            while True:
                value = product(elements[n - size], g)  # the last coset times g
                k = key(value)
                if n % size == 0:
                    if k in position:
                        break
                    if n + size > cap:
                        raise BlackBoxError(f"group order exceeds cap {cap}")
                position[k] = n
                elements.append(value)
                n += 1
        finally:
            group.counter.mul += n - size + 1
        walk.carries.append(walk.word(position[k]))
        walk.moduli.append(n // size)
    return walk


def cayley_relations(group: BlackBoxGroup, generators: Sequence) -> CosetWalk:
    """The `coset_walk` of <generators> from the identity, keyed by `encode`,
    for n - 1 + k `mul`; raises past DEFAULT_ORDER_CAP elements.  The group
    keeps its last walk: walking the same generators again is free, and more
    generators after them fold onto it."""
    generators = list(generators)
    if not generators:
        raise BlackBoxError("need at least one generator")
    key = tuple(group.encode(g) for g in generators)
    kept, walk = group._walk or ((), None)
    if key[:len(kept)] != kept:
        kept, walk = (), None
    group._walk = None  # a walk that raises half-extended is not kept
    walk = coset_walk(group, group.encode, group.identity(), generators[len(kept):], walk,
                      DEFAULT_ORDER_CAP)
    group._walk = (key, walk)
    return walk


def bb_decompose_bruteforce(group: BlackBoxGroup, generators: Sequence) -> DecompositionTable:
    """Classical decomposition oracle: exhaust the group, then SNF the relations."""
    generators = list(generators)
    walk = cayley_relations(group, generators)
    if group.order_within(len(walk))[0] != len(walk):
        raise BlackBoxError("generators do not generate the group")
    table = decomposition_from_relations(group, generators, walk.relations)
    if table.order() != len(walk):
        raise BlackBoxError("relation lattice does not pin down the group")
    return table


def decomposition_from_relations(
    group: BlackBoxGroup, generators: Sequence, relations: Sequence[Sequence[int]]
) -> DecompositionTable:
    """Build a decomposition table from a full relation lattice for `generators`.

    The relation lattice L must satisfy Z^k / L isomorphic to the group via
    exponent words; the SNF change of basis U then gives independent
    generators beta_i = alpha^(U e_i) with the diagonal as their orders.
    """
    k = len(generators)
    presentation = finite_presentation(hermite_reduce(relations), k)
    if presentation is None:
        raise BlackBoxError("relation lattice has infinite quotient")
    snf, keep, c = presentation
    beta = []
    a_matrix = [[snf.u[i][j] for j in keep] for i in range(k)]
    for j in keep:
        column = [snf.u[i][j] for i in range(k)]
        beta.append(group.word(generators, column))
    b_matrix = [
        [snf.u_inv[i][j] % c[pos] for j in range(k)]
        for pos, i in enumerate(keep)
    ]
    return DecompositionTable(alpha=list(generators), beta=beta, a=a_matrix, b=b_matrix, c=c)
