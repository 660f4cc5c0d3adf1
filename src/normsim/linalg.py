"""Exact integer/rational linear algebra: Smith normal form, linear systems
over groups with mixed moduli, continued fractions, and trial-division
primality.

Matrices are plain lists of lists of Python ints (or Fractions where noted),
so every result is exact.  Nothing here is asymptotically clever; desk-scale
inputs keep the classical elimination algorithms comfortably fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index, mul
from typing import Sequence

Matrix = list[list[int]]
Vector = list[int]


class LinalgError(ValueError):
    pass


# ---------------------------------------------------------------------------
# small dense helpers
# ---------------------------------------------------------------------------


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in a]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    if a and b and len(a[0]) != len(b):
        raise LinalgError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass
class SmithDecomposition:
    """A = U @ D @ V with U, V unimodular and D diagonal, d1 | d2 | ...

    u_inv and v_inv hold the exact integer inverses of U and V; they come out
    of the elimination for free and every consumer of the decomposition wants
    at least one of them.
    """

    u: Matrix
    d: Matrix
    v: Matrix
    u_inv: Matrix
    v_inv: Matrix

    @property
    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]

    def verify(self, a: Sequence[Sequence[int]]) -> None:
        if mat_mul(self.u, mat_mul(self.d, self.v)) != mat_copy(a):
            raise LinalgError("U @ D @ V != A")
        # Integer inverses make U and V unimodular: det U * det U^-1 = 1.
        if mat_mul(self.u, self.u_inv) != identity_matrix(len(self.u)):
            raise LinalgError("u_inv is wrong")
        if mat_mul(self.v, self.v_inv) != identity_matrix(len(self.v)):
            raise LinalgError("v_inv is wrong")
        diag = self.diagonal
        for i, entry in enumerate(diag):
            if entry < 0:
                raise LinalgError("negative diagonal entry")
            if i + 1 < len(diag) and diag[i] != 0 and diag[i + 1] % diag[i] != 0:
                raise LinalgError("divisibility chain broken")


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form via elementary operations, smallest pivot first.

    Choosing the minimal-magnitude nonzero entry as pivot keeps coefficient
    growth in check on the integer matrices seen here.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = mat_copy(a)
    u = identity_matrix(rows)
    u_inv = identity_matrix(rows)
    v = identity_matrix(cols)
    v_inv = identity_matrix(cols)

    # Row op on d is mirrored inversely on u (columns) and directly on u_inv
    # (rows), maintaining u @ d @ v == a, u @ u_inv == I, v @ v_inv == I.
    def row_add(i: int, j: int, k: int) -> None:  # row_j += k * row_i
        d[j] = [x + k * y for x, y in zip(d[j], d[i])]
        for r in range(rows):
            u[r][i] -= k * u[r][j]
        u_inv[j] = [x + k * y for x, y in zip(u_inv[j], u_inv[i])]

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        for r in range(rows):
            u[r][i], u[r][j] = u[r][j], u[r][i]
        u_inv[i], u_inv[j] = u_inv[j], u_inv[i]

    def row_negate(i: int) -> None:
        d[i] = [-x for x in d[i]]
        for r in range(rows):
            u[r][i] = -u[r][i]
        u_inv[i] = [-x for x in u_inv[i]]

    def col_add(i: int, j: int, k: int) -> None:  # col_j += k * col_i
        for r in range(rows):
            d[r][j] += k * d[r][i]
        v[i] = [x - k * y for x, y in zip(v[i], v[j])]
        for r in range(cols):
            v_inv[r][j] += k * v_inv[r][i]

    def col_swap(i: int, j: int) -> None:
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        v[i], v[j] = v[j], v[i]
        for r in range(cols):
            v_inv[r][i], v_inv[r][j] = v_inv[r][j], v_inv[r][i]

    def smallest_pivot(k: int) -> tuple[int, int] | None:
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    for k in range(min(rows, cols)):
        while True:
            pivot = smallest_pivot(k)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            if d[k][k] < 0:
                row_negate(k)
            # Clear column k below the pivot, then row k to its right.
            progressed = False
            for i in range(k + 1, rows):
                if d[i][k] != 0:
                    row_add(k, i, -(d[i][k] // d[k][k]))
                    progressed = progressed or d[i][k] != 0
            for j in range(k + 1, cols):
                if d[k][j] != 0:
                    col_add(k, j, -(d[k][j] // d[k][k]))
                    progressed = progressed or d[k][j] != 0
            if any(d[i][k] != 0 for i in range(k + 1, rows)):
                continue
            if any(d[k][j] != 0 for j in range(k + 1, cols)):
                continue
            # Pivot must divide the whole remaining block for the chain.
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if d[i][j] % d[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(offender, k, 1)
        if smallest_pivot(k) is None:
            break

    return SmithDecomposition(u=u, d=d, v=v, u_inv=u_inv, v_inv=v_inv)


def finite_presentation(
    relations: Sequence[Sequence[int]], rank: int
) -> tuple[SmithDecomposition, list[int], list[int]] | None:
    """Smith presentation of Z^rank / L, L spanned by the rows `relations`.

    The relations are the columns of the matrix R = U D V that is put in
    Smith form, so L = U D Z^s.  Returns (snf, keep, orders): column keep[i]
    of snf.u has order orders[i] mod L, and Z^rank / L is the direct sum of
    the cyclic groups they generate.  None when the quotient is infinite
    (L has rank below `rank`).
    """
    if relations:
        matrix = [[row[i] for row in relations] for i in range(rank)]
    else:
        matrix = [[0] for _ in range(rank)]
    snf = smith_normal_form(matrix)
    diag = snf.diagonal + [0] * (rank - len(snf.diagonal))
    if 0 in diag:
        return None
    keep = [i for i in range(rank) if diag[i] > 1]
    return snf, keep, [diag[i] for i in keep]


# ---------------------------------------------------------------------------
# Hermite reduction of generating sets
# ---------------------------------------------------------------------------


def hermite_reduce(vectors: Sequence[Sequence[int]]) -> list[Vector]:
    """Row-style Hermite normal form of the lattice spanned by `vectors`.

    Returns a deterministic, duplicate-free generating set: echelon shape
    with positive pivots, entries above each pivot reduced into [0, pivot).
    """
    work = [list(v) for v in vectors if any(v)]
    if not work:
        return []
    n = len(work[0])
    basis: list[Vector] = []
    for col in range(n):
        # Invariant: every row in `work` is zero left of `col`.
        while True:
            nonzero = sorted(
                (r for r in work if r[col] != 0), key=lambda r: abs(r[col])
            )
            if len(nonzero) <= 1:
                break
            head = nonzero[0]
            for r in nonzero[1:]:
                q = r[col] // head[col]
                for j in range(n):
                    r[j] -= q * head[j]
            work = [r for r in work if any(r)]
        remaining = [r for r in work if r[col] != 0]
        if remaining:
            head = remaining[0]
            if head[col] < 0:
                for j in range(n):
                    head[j] = -head[j]
            basis.append(head)
            work = [r for r in work if r is not head]
    # Reduce entries above each pivot for a canonical basis.
    for i in range(len(basis)):
        pivot_col = next(j for j in range(n) if basis[i][j] != 0)
        for k in range(i):
            q = basis[k][pivot_col] // basis[i][pivot_col]
            if q:
                for j in range(n):
                    basis[k][j] -= q * basis[i][j]
    return basis


# ---------------------------------------------------------------------------
# Linear systems over groups with mixed moduli
# ---------------------------------------------------------------------------


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, s, t) with d = gcd(a, b) >= 0 and d = s a + t b."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


@dataclass
class GroupLinearSystem:
    """Rows are congruences: sum_j a[i][j] x_j = b[i]  (mod moduli[i]).

    A modulus of 0 means the row holds over Z.  Unknowns range over Z, and
    there are `width` of them, so a system with no rows still has a full
    solution lattice; callers whose unknowns live in Z_N get the N e_j
    relations in the kernel automatically whenever the system itself
    respects them.  The solution set is a coset x0 + K of a lattice K in
    Z^width, and `solve_group_system` returns the canonical description of
    it: the Hermite basis of K and the representative x0 reduced against it.
    """

    a: Matrix
    b: Vector
    moduli: Vector
    width: int

    def __post_init__(self) -> None:
        rows = len(self.a)
        if len(self.b) != rows or len(self.moduli) != rows:
            raise LinalgError("inconsistent system dimensions")
        if any(len(row) != self.width for row in self.a):
            raise LinalgError(f"every row needs {self.width} coefficients")
        if any(m < 0 for m in self.moduli):
            raise LinalgError("moduli must be nonnegative")


def solve_group_system(system: GroupLinearSystem) -> tuple[Vector, list[Vector]] | None:
    """General solution (x0, kernel) of a mixed-modulus system, or None if
    infeasible.

    One sweep of lattice intersections, a row at a time (Cohen, "A Course in
    Computational Algebraic Number Theory", 2.4): the solutions so far are
    x0 + span(basis), starting from x0 = 0 and the unit basis.  A row
    (a, b, m) gives each basis vector the value a . v (mod m) and leaves the
    residual r = b - a . x0.  Extended gcds fold the vectors with nonzero
    values into one pivot p of value g, and turn the others into
    combinations of value 0 (a unimodular change of basis).  With
    h = gcd(g, m), the row is solvable iff h | r; then x0 moves by c p with
    c g = r (mod m), and p gives way to (m/h) p (to nothing when m = 0).

    The output depends on the solution set alone: the kernel is its
    lattice's unique Hermite basis, and reducing x0 against the pivots maps
    every point of the coset to the same representative.
    """
    cols = system.width
    x0 = [0] * cols
    basis = identity_matrix(cols)
    for row, rhs, m in zip(system.a, system.b, system.moduli):
        # Python ints from here on: numpy integers would overflow in the products.
        row, rhs, m = list(map(index, row)), index(rhs), index(m)
        r = rhs - sum(map(mul, row, x0))
        values = [sum(map(mul, row, vector)) for vector in basis]
        if m:
            r %= m
            values = [value % m for value in values]
        pivot, g, rest = None, 0, []
        for vector, value in zip(basis, values):
            if not value:
                rest.append(vector)
            elif pivot is None:
                pivot, g = vector, value
            else:
                d, s, t = extended_gcd(g, value)
                p_scale, q_scale = value // d, g // d
                rest.append([p_scale * x - q_scale * y for x, y in zip(pivot, vector)])
                pivot = [s * x + t * y for x, y in zip(pivot, vector)]
                g = d
        basis = rest
        if pivot is None:
            if r:
                return None
            continue
        h = math.gcd(g, m)
        if r % h:
            return None
        if m:
            step = m // h
            c = r // h * pow(g // h, -1, step) % step
            basis.append([step * x for x in pivot])
        else:
            c = r // g
        x0 = [x + c * y for x, y in zip(x0, pivot)]
    kernel = hermite_reduce(basis)
    # Shift the particular solution into a canonical corner of the lattice.
    for gen in kernel:
        pivot = next(j for j in range(cols) if gen[j] != 0)
        q = x0[pivot] // gen[pivot]
        if q:
            for j in range(cols):
                x0[j] -= q * gen[j]
    return x0, kernel


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


def continued_fraction_reconstruct(p: Fraction, r_max: int) -> Fraction | None:
    """Best rational k/r with r <= r_max hidden in a noisy sample p in [0, 1).

    If some k/r with r <= r_max satisfies |p - k/r| <= 1/(2 r_max^2) it is
    unique and is found among the convergents of p; otherwise returns None.

    Integer Euclid on p = num/den gives the convergents h/k.  With
    err = |num k - h den|, the distance |p - h/k| is err / (den k), so the
    tolerance test is 2 r_max^2 err <= den k, and h/k is closer than the best
    so far when err k_best < err_best k.
    """
    if r_max < 1:
        raise LinalgError(f"r_max must be >= 1, got {r_max}")
    p = Fraction(p)
    if not 0 <= p < 1:
        raise LinalgError(f"sample must lie in [0, 1), got {p}")
    num, den = p.numerator, p.denominator
    scale = 2 * r_max * r_max
    best: tuple[int, int] | None = None
    best_err = 0
    h_prev, h = 1, 0
    k_prev, k = 0, 1
    a, b = num, den  # the remainder x = a / b of p's expansion
    while True:
        err = abs(num * k - h * den)
        if k <= r_max and 0 <= h < k and scale * err <= den * k:
            if best is None or err * best[1] < best_err * k:
                best, best_err = (h, k), err
        if a == 0 or k > r_max:
            break
        digit, (a, b) = b // a, (b % a, a)
        h_prev, h = h, digit * h + h_prev
        k_prev, k = k, digit * k + k_prev
    return None if best is None else Fraction(*best)


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Trial division; desk-scale moduli keep it instant."""
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def prime_factors(n: int, limit: int | None = None) -> list[int] | None:
    """The distinct prime factors of n, increasing, by trial division; None
    if the division would have to try `limit` or beyond."""
    out = []
    p = 2
    while p * p <= n:
        if p == limit:
            return None
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out
