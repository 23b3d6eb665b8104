import numpy as np
import pytest

from dppln import (
    ConfigurationError,
    DEFAULT_INCREMENTS,
    IndexIncrementTable,
    Polarization,
    WavelengthRangeError,
    ZELMON_1997,
)

E = Polarization.EXTRAORDINARY
O = Polarization.ORDINARY

# Independent high-precision evaluation of the embedded extraordinary
# Sellmeier polynomial at 1550 nm (mpmath, 30 digits).
N_E_1550 = 2.1375596497855564
N_O_1550 = 2.2111110086535738


def test_sellmeier_matches_independent_evaluation():
    assert ZELMON_1997.index(E, 1550.0) == pytest.approx(N_E_1550, rel=1e-9)
    assert ZELMON_1997.index(O, 1550.0) == pytest.approx(N_O_1550, rel=1e-9)


def test_negative_uniaxial_ordering():
    for lam in np.linspace(450.0, 4500.0, 60):
        assert ZELMON_1997.index(O, lam) > ZELMON_1997.index(E, lam)


def test_normal_dispersion_monotone_on_1nm_grid():
    grid = np.arange(500.0, 1601.0, 1.0)
    for pol in (O, E):
        values = np.array([ZELMON_1997.index(pol, lam) for lam in grid])
        assert np.all(np.diff(values) < 0.0)
        assert np.all((values > 1.0) & (values < 3.0))


def test_normal_dispersion_endpoints():
    assert ZELMON_1997.index(E, 519.0) > ZELMON_1997.index(E, 1551.03)


def test_out_of_range_wavelength_names_interval():
    with pytest.raises(WavelengthRangeError, match=r"\[400, 5000\]"):
        ZELMON_1997.index(E, 300.0)
    with pytest.raises(WavelengthRangeError):
        ZELMON_1997.index(O, 6000.0)


def test_tabulated_increments_returned_exactly():
    for lam, expected in ((519.0, 0.0037), (775.0, 0.0030), (780.0, 0.0030),
                          (1551.03, 0.0025), (1571.19, 0.0025)):
        assert DEFAULT_INCREMENTS.increment(E, lam) == expected


def test_increment_midpoint_is_linear_blend():
    midpoint = 0.5 * (780.0 + 1551.03)
    expected = 0.5 * (0.0030 + 0.0025)
    assert DEFAULT_INCREMENTS.increment(E, midpoint) == pytest.approx(expected, rel=1e-12)


def test_increment_clamps_outside_span():
    assert DEFAULT_INCREMENTS.increment(E, 400.0) == 0.0037
    assert DEFAULT_INCREMENTS.increment(E, 1800.0) == 0.0025


def test_increment_missing_polarization():
    table = IndexIncrementTable({E: ((519.0, 0.0037), (780.0, 0.0030))})
    with pytest.raises(ConfigurationError, match="ordinary"):
        table.increment(O, 700.0)


def test_increment_table_validation():
    with pytest.raises(ConfigurationError, match="ascending"):
        IndexIncrementTable({E: ((780.0, 0.003), (519.0, 0.0037))})
    with pytest.raises(ConfigurationError, match="outside"):
        IndexIncrementTable({E: ((519.0, 0.02),)})
    with pytest.raises(ConfigurationError, match="outside"):
        IndexIncrementTable({E: ((519.0, 0.0),)})
    with pytest.raises(ConfigurationError, match="outside"):
        IndexIncrementTable({E: ((519.0, -0.001),)})
