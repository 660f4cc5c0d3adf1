"""Closed-form measurement distribution of hybrid order finding.

After the comb of half-length M collapses onto the residue s mod r, the
torus-basis wavefunction is a Dirichlet kernel sin(pi L p r)/sin(pi p r)
up to phase, with L comb teeth surviving.  This module evaluates that
amplitude exactly, sums peak masses from the kernel's finite cosine series
(no quadrature), and samples measurement outcomes without ever representing
the infinite register densely.  Outcomes are exact grid rationals, drawn by
rejection sampling whose law is the grid's law cell by cell, so no CDF or
other array of grid size is ever built.

The discretized cross-check lives here too: the D-dimensional DFT of the
truncated comb (D = 2M+1) must reproduce the continuous transform sampled
at the points k/D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
        """Total mass within delta/2 of some k/r (all r peaks together).

        In u = r p the density is sum_{|k| < L} (1 - |k|/L) e^{2 pi i k u}, so
        its integral over [-w, w], w = delta r / 2, is the finite sum below,
        and the mass of one period (delta = 1/r) is its constant term, 1.
        """
        delta = self._check_delta(delta)
        w = float(delta) * self.r / 2
        k = np.arange(1, self.l)
        series = 2 * (1 - k / self.l) * np.sin(2 * np.pi * k * w) / (np.pi * k)
        return float(2 * w + series.sum())

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
        p = (k + u)/r with k uniform and u = i / grid_size, where the cell i
        has probability proportional to the squared Dirichlet kernel at u.
        Cells are drawn by rejection from an envelope with a closed-form
        inverse, so no array of grid size is built: the expected cost per
        shot is O(1) and the memory O(shots), whatever the grid.
        """
        cells = _sample_fejer_indices(self.l, shots, rng, grid_size)
        ks = rng.integers(self.r, size=shots).tolist()
        return [(k + Fraction(i, grid_size)) / self.r for k, i in zip(ks, cells)]


def _fejer_density(u: float, l: int) -> float:
    s = math.sin(math.pi * u)
    if abs(s) < 1e-15:
        return float(l)
    return math.sin(math.pi * l * u) ** 2 / (l * s * s)


def _fejer_envelope(l: int, grid_size: int) -> tuple[int, int, float, float]:
    """(J, H, flat mass, tail mass) of the rejection envelope on grid cells.

    A cell i sits at distance j = min(i, G - i) <= H = G // 2 from the peak.
    The envelope is e_j = L on the flat part j <= J = ceil(G / 2L) and
    e_j = G^2 / (4 L j (j - 1)) on the tail J < j <= H; it bounds the density
    at j / G because sin(pi u) >= 2u on [0, 1/2].  The masses are the sums of
    e_j over each part; the tail's telescopes to G^2 (1/J - 1/H) / 4L.
    """
    half = grid_size // 2
    flat = min(-(-grid_size // (2 * l)), half)
    tail = grid_size**2 * (half - flat) / (4 * l * flat * half) if flat < half else 0.0
    return flat, half, float(l * (flat + 1)), tail


def _sample_fejer_indices(l: int, shots: int, rng, grid_size: int) -> list[int]:
    """Grid cells i, each drawn with probability proportional to the density
    at i / grid_size, by exact rejection from the envelope.

    A proposal picks the flat part or the tail in proportion to their masses,
    then a distance j: uniform on [0, J] on the flat part; on the tail
    ceil(x) with x of density 1/x^2 on [J, H] (closed-form inverse), which
    gives j a mass proportional to 1/(j (j - 1)), hence to e_j.  It is kept
    with probability density / e_j, halved at j = 0 and j = G/2 (the cells
    with one sign only), and the sign of j is then fair, so every cell's
    probability is its density over one common constant.  The uniform w
    that decides acceptance also decides the sign: given w < a, w / a is
    uniform.  Uniforms are drawn in batches of at most 4096 pairs.
    """
    flat, half, flat_mass, tail_mass = _fejer_envelope(l, grid_size)
    p_flat = flat_mass / (flat_mass + tail_mass)
    cells: list[int] = []
    while len(cells) < shots:
        batch = min(2 * (shots - len(cells)) + 8, 4096)
        ts, ws = rng.random((2, batch)).tolist()
        for t, w in zip(ts, ws):
            if t < p_flat:
                j = min(int(t / p_flat * (flat + 1)), flat)
                envelope = l
            else:
                x = 1 / (1 / flat - (t - p_flat) / (1 - p_flat) * (1 / flat - 1 / half))
                j = min(max(math.ceil(x), flat + 1), half)
                envelope = grid_size**2 / (4 * l * j * (j - 1))
            accept = _fejer_density(j / grid_size, l) / envelope
            if j == 0 or 2 * j == grid_size:
                accept /= 2
            if w < accept:
                cells.append(-j % grid_size if w < accept / 2 else j)
                if len(cells) == shots:
                    break
    return cells


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


def discretization_deviation(r: int, m: int, s: int = 0) -> float:
    """max_k |sqrt(D) QFT_D(comb)(k) - psi_hat(k/D)| with D = 2M+1.

    The discrete transform of the truncated comb, computed by numpy's
    inverse FFT on the D-dimensional register (O(D) memory), must agree with
    the continuous-transform closed form sampled at k/D to float accuracy.
    """
    dist = DirichletDistribution(r, m, s)
    d = 2 * m + 1
    x = np.arange(-m, m + 1)
    psi = np.zeros(d, dtype=np.complex128)
    psi[x[(x - s) % r == 0] % d] = 1 / math.sqrt(dist.l)
    discrete = math.sqrt(d) * np.fft.ifft(psi, norm="ortho")
    closed_form = np.array([dist.amplitude(Fraction(k, d)) for k in range(d)])
    return float(np.max(np.abs(discrete - closed_form)))
