import math

import numpy as np
import pytest

from dppln import (
    ConfigurationError,
    DEFAULT_INCREMENTS,
    IndexIncrementTable,
    Polarization,
    SellmeierModel,
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


@pytest.mark.parametrize(
    "terms,wavelength_nm,shown",
    [(((-5.0, 0.01),), 519.0, "n^2 = -4.19"),  # n^2 below zero
     (((0.5, 1.0),), 1000.0, "n^2 = inf"),  # a pole at exactly 1 um
     (((1e308, 0.01), (1e308, 0.02)), 519.0, "n^2 = inf"),  # overflow
     (((-0.5, 0.01),), 780.0, "n^2 = 0.491")],  # below the air cover's 1
    ids=["negative", "pole", "overflow", "below-one"],
)
def test_sellmeier_rejects_nonpositive_or_infinite_square(terms, wavelength_nm, shown):
    model = SellmeierModel("bad", (400.0, 5000.0), {E: terms})
    with pytest.raises(ConfigurationError) as caught:
        model.index(E, wavelength_nm)
    message = str(caught.value)
    for part in ("'bad'", "extraordinary", f"{wavelength_nm:g} nm", shown):
        assert part in message


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


@pytest.mark.parametrize("valid", [(5000.0, 400.0), (400.0, 400.0), (math.nan, 400.0),
                                   (400.0, math.inf), (400.0,), (400, 10**400)])
def test_sellmeier_model_checks_its_valid_range(valid):
    # before, such a model was built and then refused every wavelength, and
    # an integer too large for a float raised OverflowError
    with pytest.raises(ConfigurationError, match=r"^expected \[low_nm, high_nm\] with low < "
                                                 r"high, got \(") as raised:
        SellmeierModel("x", valid, ZELMON_1997.terms)
    assert raised.value.field == "valid_range_nm"


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
    with pytest.raises(ConfigurationError) as caught:
        IndexIncrementTable({O: ((519.0, 0.003), (780.0, 0.02))})
    assert caught.value.field == "ordinary"
    # before, a NaN support point interpolated to nan and 10**400 overflowed
    for lam in (math.nan, math.inf, 10**400):
        for dn in (0.002, 10**400):
            with pytest.raises(ConfigurationError, match="^extraordinary increment table "
                                                         "wavelength (nan|inf) nm is not finite$"
                               ) as caught:
                IndexIncrementTable({E: ((500.0, 0.003), (lam, dn))})
            assert caught.value.field == "extraordinary"


def test_sellmeier_model_names_a_bad_term_or_a_missing_polarization():
    # before, a term too large for a float raised OverflowError in `index`
    # and a polarization without terms raised KeyError
    for term in ((10**400, 0.02), (2.98, math.nan), (2.98,)):
        with pytest.raises(ConfigurationError, match="^extraordinary terms of Sellmeier set "
                                                     "'x' must be pairs of finite") as raised:
            SellmeierModel("x", (400.0, 5000.0), {E: (term,)})
        assert raised.value.field == "terms"
    model = SellmeierModel("x", (400.0, 5000.0), {E: ZELMON_1997.terms[E]})
    with pytest.raises(ConfigurationError, match="^Sellmeier set 'x' has no terms for ordinary "
                                                 "polarization$") as raised:
        model.index(O, 780.0)
    assert raised.value.field == "ordinary"

