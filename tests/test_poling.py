import re

import numpy as np
import pytest

from dppln import (
    ConfigurationError,
    DegeneratePatternError,
    IDEAL_HARMONIC_AMPLITUDE,
    PolingPattern,
    poling_fourier_coefficient,
    synthesize_poling,
)

PERIOD_1 = 6.7969
PERIOD_2 = 6.8316


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
    signs = dual_pattern.segment_signs()
    assert np.all(signs[:-1] * signs[1:] == -1)
    edges = dual_pattern.segment_edges()
    mids = 0.5 * (edges[:-1] + edges[1:])

    def ideal(x):
        return np.sign(
            np.cos(2.0 * np.pi * x / PERIOD_1) - np.cos(2.0 * np.pi * x / PERIOD_2)
        )

    # The digitiser drops sub-resolution micro-domain pairs at the beat
    # nodes; any midpoint disagreement must sit inside such a micro-domain,
    # i.e. the ideal sign flips back within half a bracketing step.
    step = min(PERIOD_1, PERIOD_2) / 16.0
    mismatched = mids[signs != ideal(mids)]
    assert len(mismatched) <= 0.01 * len(mids)
    for x in mismatched:
        assert ideal(x - 0.5 * step) == ideal(x + 0.5 * step) != ideal(x)


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
