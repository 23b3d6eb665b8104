import re
from pathlib import Path

import numpy as np
import pytest

from dppln import (
    ConfigurationError,
    DegeneratePatternError,
    IDEAL_HARMONIC_AMPLITUDE,
    PolingPattern,
    phase_match,
    poling_fourier_coefficient,
    solve_modes,
    synthesize_poling,
)
from dppln.config import load_config

PERIOD_1 = 6.7969
PERIOD_2 = 6.8316
SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))


@pytest.fixture(scope="module")
def dual_pattern():
    return synthesize_poling(PERIOD_1, PERIOD_2, 1.0)


def dense_fourier_oracle(pattern, k, samples=2_000_000):
    """Riemann-sum transform of the ideal sign function (not the segments)."""
    x = (np.arange(samples) + 0.5) * (pattern.length_um / samples)
    d = np.where(
        np.cos(2.0 * np.pi * x / PERIOD_1) - np.cos(2.0 * np.pi * x / PERIOD_2) > 0.0,
        1.0,
        -1.0,
    )
    step = pattern.length_um / samples
    return abs(np.sum(d * np.exp(-1j * k * x)) * step) / pattern.length_um


def bisection_reference(period1_um, period2_um, length_cm):
    """(boundaries, first sign) by bisecting each bracket of the sub-period
    sign grid 48 times: the oracle of the closed-form zeros."""
    length_um = length_cm * 1e4

    def value(x):
        return np.cos(2.0 * np.pi * x / period1_um) - np.cos(2.0 * np.pi * x / period2_um)

    step = min(period1_um, period2_um) / 16.0
    n_cells = int(np.ceil(length_um / step))
    mid = (np.arange(n_cells + 1) + 0.5) * step
    mid = mid[mid < length_um]
    signs = np.sign(value(mid))
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]

    lo = mid[flips].copy()
    hi = mid[flips + 1].copy()
    f_lo = value(lo)
    for _ in range(48):
        m = 0.5 * (lo + hi)
        f_m = value(m)
        take_left = f_lo * f_m <= 0.0
        hi = np.where(take_left, m, hi)
        lo = np.where(take_left, lo, m)
        f_lo = np.where(take_left, f_lo, f_m)
    boundaries = 0.5 * (lo + hi)

    first_sign = int(np.sign(value(min(0.5 * boundaries[0], 0.5 * step)))) if len(boundaries) else 1
    return boundaries, first_sign if first_sign != 0 else 1


def assert_matches_bisection(period1_um, period2_um, length_cm):
    pattern = synthesize_poling(period1_um, period2_um, length_cm)
    boundaries, first_sign = bisection_reference(period1_um, period2_um, length_cm)
    assert pattern.first_sign == first_sign
    assert len(pattern.boundaries_um) == len(boundaries)
    np.testing.assert_allclose(pattern.boundaries_um, boundaries, rtol=0.0, atol=1e-9)


def assert_mismatches_are_micro_pairs(pattern, period1_um, period2_um):
    """Every domain whose midpoint disagrees with the ideal sign sits on a
    dropped sub-resolution micro-domain pair: the ideal sign flips back
    within half a bracketing step.  Returns the number of mismatches."""
    signs = pattern.segment_signs()
    assert np.all(signs[:-1] * signs[1:] == -1)
    edges = pattern.segment_edges()
    mids = 0.5 * (edges[:-1] + edges[1:])

    def ideal(x):
        return np.sign(
            np.cos(2.0 * np.pi * x / period1_um) - np.cos(2.0 * np.pi * x / period2_um)
        )

    step = min(period1_um, period2_um) / 16.0
    mismatched = mids[signs != ideal(mids)]
    for x in mismatched:
        assert ideal(x - 0.5 * step) == ideal(x + 0.5 * step) != ideal(x)
    return len(mismatched)


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda path: path.name)
def test_shipped_patterns_match_the_bisection_reference(config):
    loaded = load_config(str(config))
    request = loaded.request()
    matched = phase_match(request, solve_modes(request, loaded.material))
    assert_matches_bisection(matched.period1_um, matched.period2_um, request.geometry.length_cm)


def test_pattern_matches_the_bisection_reference():
    assert_matches_bisection(PERIOD_1, PERIOD_2, 1.0)


def test_seeded_patterns_match_the_bisection_reference():
    rng = np.random.default_rng(18)
    triples = 0
    while triples < 300:
        period1, period2 = rng.uniform(1.0, 20.0, 2)
        length = rng.uniform(0.05, 2.0)
        if length * 1e4 >= 10.0 * max(period1, period2):
            assert_matches_bisection(period1, period2, length)
            triples += 1


@pytest.mark.parametrize("period2", [17.0 / 15.0, 21.0 / 11.0])
def test_a_zero_on_a_grid_midpoint_flips_once(period2):
    # At these rational period ratios three grid midpoints each evaluate to
    # exactly zero.  Before, a zero midpoint bracketed no flip, and every
    # later domain had the wrong sign (781 of 881 and 893 of 903 domains)
    pattern = synthesize_poling(1.0, period2, 0.05)
    assert np.all(np.diff(pattern.boundaries_um) > 0.0)
    assert pattern.boundaries_um[0] > 0.0
    assert pattern.boundaries_um[-1] < pattern.length_um
    assert_mismatches_are_micro_pairs(pattern, 1.0, period2)


def test_degenerate_periods_rejected():
    with pytest.raises(DegeneratePatternError):
        synthesize_poling(6.8, 6.8, 1.0)


def test_pattern_length_must_cover_many_periods():
    with pytest.raises(ConfigurationError) as error:
        synthesize_poling(6.7969, 6.8316, 1e-3)
    assert error.value.field == "length_cm"
    minimum = float(re.search(r"use at least (\S+) cm$", str(error.value)).group(1))
    assert synthesize_poling(6.7969, 6.8316, minimum).length_um >= 68.316


def test_boundaries_sorted_and_contained(dual_pattern):
    b = dual_pattern.boundaries_um
    assert np.all(np.diff(b) > 0.0)
    assert b[0] >= 0.0
    assert b[-1] <= dual_pattern.length_um


def test_segment_signs_alternate_and_match_ideal(dual_pattern):
    # The digitiser drops sub-resolution micro-domain pairs at the beat
    # nodes; any midpoint disagreement must sit inside such a micro-domain.
    mismatched = assert_mismatches_are_micro_pairs(dual_pattern, PERIOD_1, PERIOD_2)
    assert mismatched <= 0.01 * (len(dual_pattern.boundaries_um) + 1)


def test_square_wave_first_harmonic():
    period = 6.0
    length = 200 * period
    boundaries = np.arange(period / 2, length, period / 2)
    pattern = PolingPattern(boundaries_um=boundaries, length_um=length, first_sign=1)
    first = poling_fourier_coefficient(pattern, 2.0 * np.pi / period)
    assert first == pytest.approx(2.0 / np.pi, abs=1e-6)
    second = poling_fourier_coefficient(pattern, 4.0 * np.pi / period)
    assert abs(second) < 1e-9


def test_dual_pattern_harmonics_near_ideal(dual_pattern):
    f1 = poling_fourier_coefficient(dual_pattern, 2.0 * np.pi / PERIOD_1)
    f2 = poling_fourier_coefficient(dual_pattern, 2.0 * np.pi / PERIOD_2)
    assert f1 == pytest.approx(IDEAL_HARMONIC_AMPLITUDE, rel=0.10)
    assert f2 == pytest.approx(IDEAL_HARMONIC_AMPLITUDE, rel=0.10)
    assert f1 == pytest.approx(f2, rel=0.05)


def test_dual_pattern_matches_dense_transform_oracle(dual_pattern):
    for period in (PERIOD_1, PERIOD_2):
        k = 2.0 * np.pi / period
        exact = poling_fourier_coefficient(dual_pattern, k)
        oracle = dense_fourier_oracle(dual_pattern, k)
        assert exact == pytest.approx(oracle, rel=1e-3)


def test_dual_pattern_is_nearly_balanced(dual_pattern):
    assert poling_fourier_coefficient(dual_pattern, 0.0) < 0.05
