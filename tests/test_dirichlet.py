"""Tests for the order-finding measurement distribution."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from helpers import nearest_peak_distance
from normsim.dirichlet import (
    PEAK_MASS_FLOOR,
    DirichletDistribution,
    DirichletError,
    _fejer_density,
    _fejer_envelope,
    _sample_fejer_indices,
    comb_length,
    dirichlet_peak_mass,
    dirichlet_sample,
    discretization_deviation,
)


def test_comb_length_counts_surviving_teeth():
    # Oracle: count integers in [-M, M] congruent to s mod r.
    for r in [1, 2, 3, 4, 7]:
        for m in [r, 2 * r, 17, 40]:
            for s in range(r):
                expected = sum(1 for x in range(-m, m + 1) if (x - s) % r == 0)
                assert comb_length(r, m, s)[2] == expected


def test_r1_concentrates_at_zero():
    dist = DirichletDistribution(1, 8)
    assert dist.peak_mass() > 0.7
    rng = np.random.default_rng(0)
    samples = dist.sample(400, rng)
    near_zero = sum(1 for p in samples if min(p, 1 - p) < Fraction(1, 8))
    assert near_zero / len(samples) > 0.85  # all peaks sit at p = 0 for r = 1


def test_amplitude_matches_direct_sum():
    # Oracle: direct summation of exp(2 pi i p x) over the comb.
    for r, m, s in [(4, 30, 1), (3, 10, 0), (5, 23, 2)]:
        dist = DirichletDistribution(r, m, s)
        for p in [Fraction(1, 7), Fraction(3, 4), Fraction(0), Fraction(13, 40)]:
            direct = sum(
                np.exp(2j * np.pi * float((p * x) % 1)) / math.sqrt(dist.l)
                for x in range(-m, m + 1)
                if (x - s) % r == 0
            )
            assert dist.amplitude(p) == pytest.approx(direct, abs=1e-9)


def test_density_normalizes_to_one():
    # Oracle: quadrature of the density over one period; the series must
    # give the same mass at delta = 1/r, where its constant term is all of it.
    for r, m in [(1, 4), (4, 64), (7, 120), (12, 200)]:
        for s in (0, r - 1):
            dist = DirichletDistribution(r, m, s)
            total, _ = integrate.quad(dist.density, 0, 1, limit=50 + 4 * r * dist.l)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert dist.peak_mass(Fraction(1, r)) == pytest.approx(1.0, abs=1e-12)


def test_peak_mass_bounds_paper_case():
    # r = 4, M = 64: mass within Delta/2 of some k/4 at Delta = 1/(L r).
    mass = dirichlet_peak_mass(4, 64)
    assert mass >= PEAK_MASS_FLOOR  # analytic floor 4/pi^2
    assert mass >= 2 / 3  # tighter numerically-established floor


def test_peak_mass_bounds_sweep():
    for r in range(1, 13):
        m = 16 * r
        for s in (0, r // 2):
            mass = DirichletDistribution(r, m, s).peak_mass()
            assert mass >= PEAK_MASS_FLOOR
            assert mass >= 2 / 3


def test_peak_mass_agrees_with_direct_quadrature():
    # Oracle: integrate |D_{L,r}(p)|^2 / L over the r windows in p-space.
    for r in range(1, 17):
        for m in (r, 16 * r, 64 * r):
            for s in {0, r - 1}:
                dist = DirichletDistribution(r, m, s)
                for delta in (dist.default_resolution(), Fraction(1, 3 * r), Fraction(1, r)):
                    total = 0.0
                    for k in range(r):
                        lo = float(Fraction(k, r) - delta / 2)
                        hi = float(Fraction(k, r) + delta / 2)
                        value, _ = integrate.quad(dist.density, lo, hi, limit=200)
                        total += value
                    assert dist.peak_mass(delta) == pytest.approx(total, abs=1e-9), (
                        r, m, s, delta
                    )


def test_sampler_hits_peaks_at_the_analytic_rate():
    rng = np.random.default_rng(2024)
    r, m = 4, 64
    samples = dirichlet_sample(r, m, 4000, rng)
    dist = DirichletDistribution(r, m, 0)
    delta = dist.default_resolution()
    hits = sum(1 for p in samples if nearest_peak_distance(p, r) <= delta / 2)
    rate = hits / len(samples)
    # Expected ~0.77; must stay above the analytic floor minus 3 sigma.
    assert rate >= PEAK_MASS_FLOOR - 3 * math.sqrt(0.25 / len(samples))


def test_sampler_seed_reproducible():
    a = dirichlet_sample(3, 30, 50, np.random.default_rng(5))
    b = dirichlet_sample(3, 30, 50, np.random.default_rng(5))
    assert a == b


def test_samples_are_exact_rationals():
    samples = dirichlet_sample(3, 30, 10, np.random.default_rng(1), grid_size=1 << 10)
    assert all(isinstance(p, Fraction) and 0 <= p < 1 for p in samples)


def test_discretization_examples():
    assert discretization_deviation(4, 30) < 1e-10
    assert discretization_deviation(1, 9) < 1e-12
    assert discretization_deviation(5, 50, s=3) < 1e-10


def test_discretization_memory_is_linear_in_the_register():
    # A D x D DFT matrix at D = 1025 alone is 16.8 MB of complex128; the
    # FFT keeps a few arrays of D entries.
    import tracemalloc

    tracemalloc.start()
    try:
        assert discretization_deviation(1, 512) < 1e-10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_bad_parameters_rejected():
    with pytest.raises(DirichletError):
        DirichletDistribution(0, 4)
    with pytest.raises(DirichletError):
        DirichletDistribution(5, 4)
    with pytest.raises(DirichletError):
        DirichletDistribution(4, 16, 4)
    with pytest.raises(DirichletError):
        DirichletDistribution(2, 16).peak_mass(Fraction(2, 3))


# -- the rejection sampler against the grid law -------------------------------


def _grid_law(l, g):
    """The normalized law of grid cell i: density at i / g over the grid sum."""
    weights = np.array([_fejer_density(i / g, l) for i in range(g)])
    return weights / weights.sum()


GRID_AND_L = st.integers(4, 12).flatmap(
    lambda k: st.tuples(st.just(1 << k), st.integers(1, 4 << k))
)


@settings(max_examples=30, deadline=None)
@given(GRID_AND_L)
@example((16, 1))  # one flat part, no tail
@example((4096, 4096))  # G = L: the lowest acceptance, about 2/9
@example((64, 3))
def test_envelope_law_is_exact_cell_by_cell(grid_and_l):
    g, l = grid_and_l
    flat, half, flat_mass, tail_mass = _fejer_envelope(l, g)
    assert flat == min(-(-g // (2 * l)), half) and half == g // 2

    def envelope(j):
        return Fraction(l) if j <= flat else Fraction(g * g, 4 * l * j * (j - 1))

    # The masses in closed form, exactly: the flat part and the telescoped tail.
    exact_flat = sum(envelope(j) for j in range(flat + 1))
    exact_tail = sum((envelope(j) for j in range(flat + 1, half + 1)), Fraction(0))
    assert flat_mass == pytest.approx(float(exact_flat), rel=1e-12)
    assert tail_mass == pytest.approx(float(exact_tail), rel=1e-12, abs=0)
    p_flat = exact_flat / (exact_flat + exact_tail)

    def proposal(j):
        # Uniform on [0, J]; on the tail, ceil(x) with density 1/x^2 on [J, H].
        if j <= flat:
            return p_flat / (flat + 1)
        span = Fraction(1, flat) - Fraction(1, half)
        return (1 - p_flat) * (Fraction(1, j - 1) - Fraction(1, j)) / span

    ratios = set()
    acceptance = 0.0
    for j in range(half + 1):
        density = _fejer_density(j / g, l)
        # e_j bounds the density; the float density may round up by an ulp.
        assert density <= float(envelope(j)) * (1 + 4 * sys.float_info.epsilon)
        one_sign = j == 0 or 2 * j == g
        multiplicity = 1 if one_sign else 2
        halving = Fraction(1, 2) if one_sign else 1
        ratios.add(proposal(j) * halving / (multiplicity * envelope(j)))
        acceptance += float(proposal(j) * halving) * density / float(envelope(j))
    # Cell law = proposal * halving * density / e_j, so one common ratio makes
    # every cell's probability its density over one constant: the grid law.
    assert len(ratios) == 1
    assert acceptance >= 1 / 8


class _Uniforms:
    """Stands in for a Generator: random((2, n)) hands out queued (t, w) pairs."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def random(self, shape):
        _, n = shape
        batch, self.pairs = self.pairs[:n], self.pairs[n:]
        return np.array(batch + [(0.0, 0.0)] * (n - len(batch))).T


@pytest.mark.parametrize("l, g", [(3, 64), (40, 16)])
def test_each_cell_is_kept_with_density_over_envelope(l, g):
    # Feed the sampler a proposal uniform t inside the interval it maps to
    # distance j, then an acceptance uniform w on either side of a_j and of
    # a_j / 2: the cell must be j, -j mod G or rejected, exactly as a_j says.
    flat, half, flat_mass, tail_mass = _fejer_envelope(l, g)
    p_flat = flat_mass / (flat_mass + tail_mass)

    def t_of(j):
        if j <= flat:
            return (j + 0.5) / (flat + 1) * p_flat
        return p_flat + (1 - p_flat) * (1 / flat - 1 / (j - 0.5)) / (1 / flat - 1 / half)

    for j in range(half + 1):
        envelope = l if j <= flat else g * g / (4 * l * j * (j - 1))
        one_sign = j == 0 or 2 * j == g
        a = _fejer_density(j / g, l) / envelope / (2 if one_sign else 1)
        # After a rejection the next pair is accepted at a cell other than j.
        fallback, rejected = ((t_of(1), 0.0), g - 1) if j == 0 else ((t_of(0), 0.0), 0)

        def draw(w):
            return _sample_fejer_indices(l, 1, _Uniforms([(t_of(j), w), fallback]), g)[0]

        assert draw(a * (1 + 1e-9)) == rejected
        if a > 1e-12:
            assert draw(a * (1 - 1e-9)) == j
            assert draw(a / 2 * (1 - 1e-9)) == -j % g


@pytest.mark.parametrize("l", [3, 40, 5000])
def test_rejection_sampler_matches_the_grid_law(l):
    # The grid _auto_grid would pick without its 2^16 floor: >= 32 L cells.
    g = 1 << (32 * l - 1).bit_length()
    shots = 200_000
    law = _grid_law(l, g)
    cells = _sample_fejer_indices(l, shots, np.random.default_rng(l), g)
    assert len(cells) == shots and all(0 <= i < g for i in cells)
    tv = 0.5 * np.abs(np.bincount(cells, minlength=g) / shots - law).sum()
    # An exact sampler of the same law at the same size scores the same:
    # about 0.009, 0.016 and 0.02 here.
    exact = np.random.default_rng(l).multinomial(shots, law) / shots
    reference = 0.5 * np.abs(exact - law).sum()
    assert tv < 1.3 * reference


def test_sampler_handles_tiny_grids_and_no_shots():
    rng = np.random.default_rng(0)
    assert _sample_fejer_indices(5, 0, rng, 1 << 10) == []
    # G = 1 and G = 2 have single-sign cells only.
    assert _sample_fejer_indices(3, 20, rng, 1) == [0] * 20
    assert set(_sample_fejer_indices(3, 200, rng, 2)) <= {0, 1}
    # G < L: the small grids of `order --resolution`.
    cells = _sample_fejer_indices(5000, 2000, rng, 16)
    assert all(0 <= i < 16 for i in cells)
