"""Closed-form measurement distribution of hybrid order finding.

After the comb of half-length M collapses onto the residue s mod r, the
torus-basis wavefunction is a Dirichlet kernel sin(pi L p r)/sin(pi p r)
up to phase, with L comb teeth surviving.  This module evaluates that
amplitude exactly, integrates peak masses, and samples measurement outcomes
without ever representing the infinite register densely.

The discretized cross-check lives here too: the D-dimensional DFT of the
truncated comb (D = 2M+1) must reproduce the continuous transform sampled
at the points k/D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate

from .config import DEFAULT_GRID_SIZE

#: Analytic floor for the mass within one resolution window of the peaks.
PEAK_MASS_FLOOR = 4 / math.pi**2


class DirichletError(ValueError):
    pass


def comb_length(r: int, m: int, s: int) -> tuple[int, int, int]:
    """Surviving comb teeth (L_a, L_b, L) for residue s, |support| <= m."""
    l_b = (m - s) // r
    l_a = (m + s) // r
    return l_a, l_b, l_a + l_b + 1


@dataclass
class DirichletDistribution:
    """Outcome density |D_{L,r}(p)|^2 / L on the torus, for one residue s."""

    r: int
    m: int
    s: int = 0

    def __post_init__(self) -> None:
        if self.r < 1:
            raise DirichletError(f"order must be positive, got {self.r}")
        if self.m < self.r:
            raise DirichletError(f"comb half-length {self.m} below order {self.r}")
        if not 0 <= self.s < self.r:
            raise DirichletError(f"residue {self.s} outside [0, {self.r})")
        self.l_a, self.l_b, self.l = comb_length(self.r, self.m, self.s)

    # -- exact amplitude -----------------------------------------------------

    def amplitude(self, p: Fraction) -> complex:
        """psi_hat(p) = sum_x exp(2 pi i p x) psi(x) over the surviving comb."""
        p = Fraction(p)
        phase = np.exp(2j * np.pi * float(self.s * p % 1))
        pr = p * self.r
        if pr % 1 == 0:
            return phase * self.l / math.sqrt(self.l)
        z = np.exp(2j * np.pi * float(pr % 1))
        total = (z ** (self.l_b + 1) - z ** (-self.l_a)) / (z - 1)
        return phase * total / math.sqrt(self.l)

    def density(self, p) -> float:
        """|psi_hat(p)|^2; float p is fine, only magnitudes matter here."""
        u = (float(p) * self.r) % 1.0
        return _fejer_density(u, self.l)

    # -- peak masses ----------------------------------------------------------

    def default_resolution(self) -> Fraction:
        return Fraction(1, self.l * self.r)

    def peak_mass(self, delta: Fraction | None = None) -> float:
        """Total mass within delta/2 of some k/r (all r peaks together)."""
        delta = self._check_delta(delta)
        w = float(delta) * self.r / 2
        half, _ = integrate.quad(_fejer_density, 0, w, args=(self.l,), limit=200)
        return 2 * half

    def total_mass(self) -> float:
        half, _ = integrate.quad(
            _fejer_density, 0, 0.5, args=(self.l,), limit=50 + 4 * self.l
        )
        return 2 * half

    def _check_delta(self, delta) -> Fraction:
        if delta is None:
            return self.default_resolution()
        delta = Fraction(delta)
        if delta <= 0 or delta * self.r > 1:
            raise DirichletError(f"window {delta} incompatible with {self.r} peaks")
        return delta

    def density_rows(self, grid_size: int = 1 << 10) -> list[tuple[float, float]]:
        """(p, density) pairs on a uniform grid, for CSV dumps and plotting."""
        return [
            (i / grid_size, self.density(i / grid_size)) for i in range(grid_size)
        ]

    # -- sampling -------------------------------------------------------------

    def sample(self, shots: int, rng, grid_size: int = DEFAULT_GRID_SIZE) -> list[Fraction]:
        """Draw outcomes p as exact grid rationals.

        The density depends on p only through u = frac(r p), so outcomes are
        p = (k + u)/r with k uniform and u drawn from the squared Dirichlet
        kernel by inverse CDF on a grid of `grid_size` points.
        """
        u_indices = _sample_fejer_indices(self.l, shots, rng, grid_size)
        ks = rng.integers(self.r, size=shots)
        return [
            (Fraction(int(k)) + Fraction(int(i), grid_size)) / self.r
            for k, i in zip(ks, u_indices)
        ]


def _fejer_density(u: float, l: int) -> float:
    s = math.sin(math.pi * u)
    if abs(s) < 1e-15:
        return float(l)
    return math.sin(math.pi * l * u) ** 2 / (l * s * s)


_CDF_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _fejer_cdf(l: int, grid_size: int) -> np.ndarray:
    key = (l, grid_size)
    cached = _CDF_CACHE.get(key)
    if cached is not None:
        return cached
    u = np.arange(grid_size) / grid_size
    s = np.sin(np.pi * u)
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.where(
            np.abs(s) < 1e-15, float(l), np.sin(np.pi * l * u) ** 2 / (l * s * s)
        )
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    if len(_CDF_CACHE) > 32:
        _CDF_CACHE.clear()
    _CDF_CACHE[key] = cdf
    return cdf


def _sample_fejer_indices(l: int, shots: int, rng, grid_size: int) -> np.ndarray:
    cdf = _fejer_cdf(l, grid_size)
    draws = rng.random(shots)
    return np.searchsorted(cdf, draws, side="left")


# ---------------------------------------------------------------------------
# module-level wrappers
# ---------------------------------------------------------------------------


def dirichlet_sample(
    r: int,
    m: int,
    shots: int,
    rng,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> list[Fraction]:
    """Measurement outcomes for order r and comb half-length m.

    Each shot first draws the collapsed residue, exactly as the run itself
    would.
    """
    out: list[Fraction] = []
    for residue, count in zip(*np.unique(rng.integers(r, size=shots), return_counts=True)):
        dist = DirichletDistribution(r, m, int(residue))
        out.extend(dist.sample(int(count), rng, grid_size))
    return out


def dirichlet_peak_mass(r: int, m: int) -> float:
    return DirichletDistribution(r, m).peak_mass()


def nearest_peak_distance(p: Fraction, r: int) -> Fraction:
    """Torus distance from p to the closest multiple k/r."""
    u = (Fraction(p) * r) % 1
    return min(u, 1 - u) / r


def discretization_deviation(r: int, m: int, s: int = 0) -> float:
    """max_k |sqrt(D) QFT_D(comb)(k) - psi_hat(k/D)| with D = 2M+1.

    The discrete transform of the truncated comb, computed by plain DFT on
    the D-dimensional register, must agree with the continuous-transform
    closed form sampled at k/D to float accuracy.
    """
    dist = DirichletDistribution(r, m, s)
    d = 2 * m + 1
    psi = np.zeros(d, dtype=np.complex128)
    for x in range(-m, m + 1):
        if (x - s) % r == 0:
            psi[x % d] = 1 / math.sqrt(dist.l)
    n = np.arange(d)
    dft = np.exp(2j * np.pi * np.outer(n, n) / d) / math.sqrt(d)
    discrete = math.sqrt(d) * (dft @ psi)
    closed_form = np.array([dist.amplitude(Fraction(k, d)) for k in range(d)])
    return float(np.max(np.abs(discrete - closed_form)))
