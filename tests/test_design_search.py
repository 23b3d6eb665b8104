import concurrent.futures
import dataclasses
import os
import re

import pytest

from dppln import (
    ConfigurationError,
    DesignRequest,
    Polarization,
    Scheme,
    WaveguideGeometry,
    design,
    find_best_geometry,
    sweep,
)
from dppln import design_search
from dppln.design_search import SweepRow
from conftest import request_for

E = Polarization.EXTRAORDINARY
O = Polarization.ORDINARY


def test_scheme_polarization_assignments():
    type0 = Scheme.TYPE0_EEE.polarizations()
    assert set(type0.values()) == {E}
    type2 = Scheme.TYPE2_CROSS.polarizations()
    assert type2["pump"] is O
    assert type2["signal_1"] is O and type2["idler_1"] is E
    assert type2["signal_2"] is E and type2["idler_2"] is O


def test_request_validation():
    geometry = WaveguideGeometry(10.0, 10.0, 1.0)
    with pytest.raises(ConfigurationError, match="differ") as raised:
        DesignRequest(Scheme.TYPE0_EEE, 519.0, 780.0, 780.0, geometry)
    assert raised.value.field == "signal2_nm"
    with pytest.raises(ConfigurationError, match="down-convert") as raised:
        DesignRequest(Scheme.TYPE0_EEE, 519.0, 500.0, 775.0, geometry)
    assert raised.value.field == "signal1_nm"
    # at or beyond twice the pump the "signal" is the longer photon of its pair
    for signal2 in (1038.0, 1200.0):
        with pytest.raises(ConfigurationError, match="shorter wavelength") as raised:
            DesignRequest(Scheme.TYPE0_EEE, 519.0, 780.0, signal2, geometry)
        assert raised.value.field == "signal2_nm"


@pytest.mark.parametrize("scheme", list(Scheme))
def test_short_length_names_the_field_and_its_limit(scheme):
    # the 8 x FWHM design spectra widen as 1/L until one reaches the pump
    with pytest.raises(ConfigurationError, match="geometry.length_cm") as raised:
        design(request_for(scheme, 10.0, length_cm=0.01))
    assert raised.value.field == "length_cm"
    limit = float(re.search(r"use more than (\S+) cm", str(raised.value)).group(1))
    assert 0.01 < limit < 0.05
    with pytest.raises(ConfigurationError, match="geometry.length_cm"):
        design(request_for(scheme, 10.0, length_cm=limit * (1.0 - 1e-5)))
    design(request_for(scheme, 10.0, length_cm=limit * (1.0 + 1e-5)))


def test_design_intermediates_consistent(design_type0_10):
    result = design_type0_10
    assert result.process_1.signal_nm == 780.0
    assert result.process_1.idler_nm == pytest.approx(1551.03, abs=0.01)
    assert result.process_2.idler_nm == pytest.approx(1571.19, abs=0.01)
    assert set(result.modes) == {"pump", "signal_1", "idler_1", "signal_2", "idler_2"}
    assert result.overlap_1 > 0.0 and result.overlap_2 > 0.0
    assert 0.0 < result.gamma <= 1.0
    assert result.state_weights[0] + result.state_weights[1] == pytest.approx(1.0, abs=1e-12)
    # amplitudes are evaluated at exact phase matching
    assert result.amplitude_1.sinc_factor == 1.0
    assert result.amplitude_2.sinc_factor == 1.0
    assert result.period1_um > 0.0 and result.period2_um > 0.0


def test_design_deterministic(design_type0_10):
    again = design(request_for(Scheme.TYPE0_EEE, 10.0))
    assert again.gamma == design_type0_10.gamma
    assert again.period1_um == design_type0_10.period1_um
    assert again.spectra["signal_1"].fwhm_nm == design_type0_10.spectra["signal_1"].fwhm_nm


def test_single_element_sweep_matches_design(design_type0_10):
    result = sweep(request_for(Scheme.TYPE0_EEE, 10.0), [10.0], [10.0])
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.error is None
    assert row.gamma == design_type0_10.gamma
    assert row.period1_um == design_type0_10.period1_um


def test_sweep_zip_and_product_shapes():
    template = request_for(Scheme.TYPE0_EEE, 10.0)
    zipped = sweep(template, [8.0, 10.0], [8.0, 10.0], pairing="zip")
    assert [(r.depth_um, r.width_um) for r in zipped.rows] == [(8.0, 8.0), (10.0, 10.0)]
    crossed = sweep(template, [8.0, 10.0], [8.0, 10.0], pairing="product")
    assert [(r.depth_um, r.width_um) for r in crossed.rows] == [
        (8.0, 8.0), (8.0, 10.0), (10.0, 8.0), (10.0, 10.0)
    ]
    with pytest.raises(ConfigurationError) as raised:
        sweep(template, [8.0], [8.0, 10.0], pairing="zip")
    assert raised.value.field == "pairing"
    # a value out of WaveguideGeometry's range fails before any row is solved
    for depths, widths, field in (([10.0, 60.0], [10.0], "depths_um"),
                                  ([10.0], [10.0, 0.5], "widths_um")):
        with pytest.raises(ConfigurationError, match="outside the supported range") as raised:
            sweep(template, depths, widths)
        assert raised.value.field == field
    with pytest.raises(ConfigurationError):
        sweep(template, [], [8.0])
    with pytest.raises(ConfigurationError):
        sweep(template, [8.0], [8.0], pairing="diagonal")
    for max_workers in (0, -1):  # as the CLI rejects --parallel 0
        with pytest.raises(ConfigurationError, match="max_workers") as raised:
            sweep(template, [8.0], [8.0], max_workers=max_workers)
        assert raised.value.field == "max_workers"


def test_sweep_rows_permute_with_inputs():
    template = request_for(Scheme.TYPE0_EEE, 10.0)
    forward = sweep(template, [8.0, 12.0], [8.0, 12.0], pairing="zip")
    backward = sweep(template, [12.0, 8.0], [12.0, 8.0], pairing="zip")
    assert [dataclasses.astuple(r) for r in reversed(backward.rows)] == [
        dataclasses.astuple(r) for r in forward.rows
    ]


def test_sweep_records_row_failures_without_aborting():
    template = request_for(Scheme.TYPE0_EEE, 10.0)
    result = sweep(template, [1.5, 10.0], [1.5, 10.0], pairing="zip")
    failed, ok = result.rows
    assert failed.error is not None
    assert failed.gamma is None
    assert ok.error is None
    assert ok.gamma is not None


def test_sweep_parallel_matches_serial():
    template = request_for(Scheme.TYPE0_EEE, 10.0)
    serial = sweep(template, [8.0, 10.0], [8.0, 10.0], pairing="zip")
    parallel = sweep(template, [8.0, 10.0], [8.0, 10.0], pairing="zip", max_workers=2)
    assert [dataclasses.astuple(r) for r in serial.rows] == [
        dataclasses.astuple(r) for r in parallel.rows
    ]


@pytest.mark.parametrize(
    "max_workers,cpus,pools",
    [(100_000, 64, [4]), (100_000, 2, [2]), (3, 64, [3]), (1, 64, []), (None, 64, [])],
)
def test_sweep_pool_size_is_capped_by_rows_and_cpus(monkeypatch, max_workers, cpus, pools):
    sizes = []

    class RecordingPool:
        """Stand-in pool: records its size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # also replaced on the module, should it hold its own reference: this test
    # must start no process
    monkeypatch.setattr(design_search, "ProcessPoolExecutor", RecordingPool, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(design_search, "_sweep_row",
                        lambda template, material, d, w: SweepRow(d, w, 1.0, 2.0, 3.0))
    template = request_for(Scheme.TYPE0_EEE, 10.0)
    result = sweep(template, [8.0, 10.0], [8.0, 10.0], max_workers=max_workers)
    assert sizes == pools
    assert [(r.depth_um, r.width_um) for r in result.rows] == [
        (8.0, 8.0), (8.0, 10.0), (10.0, 8.0), (10.0, 10.0)
    ]


def test_find_best_geometry_degenerate_bounds(design_type0_10):
    geometry, best = find_best_geometry(request_for(Scheme.TYPE0_EEE, 10.0), (10.0, 10.0))
    assert geometry.width_um == 10.0 and geometry.depth_um == 10.0
    assert best.gamma == design_type0_10.gamma


@pytest.mark.parametrize("bounds", [(6.5, 60.0), (0.5, 12.0), (12.0, 6.5), (0.5, 60.0)])
def test_find_best_geometry_checks_bounds_before_any_design(monkeypatch, bounds):
    def no_design(request, material):
        raise AssertionError(f"design() called at {request.geometry}")

    monkeypatch.setattr(design_search, "design", no_design)
    with pytest.raises(ConfigurationError, match="bounds") as raised:
        find_best_geometry(request_for(Scheme.TYPE0_EEE, 10.0), bounds)
    assert raised.value.field == "bounds_um"


def test_find_best_geometry_designs_each_point_once(monkeypatch):
    # the search returns the design it scored, so no geometry is solved twice
    solved = {}

    def counted(request, material):
        assert request.geometry not in solved
        solved[request.geometry] = design(request, material)
        return solved[request.geometry]

    monkeypatch.setattr(design_search, "design", counted)
    geometry, best = find_best_geometry(request_for(Scheme.TYPE0_EEE, 10.0), (9.0, 10.0))
    assert len(solved) > 16
    assert best is solved[geometry]
    assert best.gamma == max(result.gamma for result in solved.values())


def test_find_best_geometry_tracks_table_trend(type0_designs):
    # gamma grows with size for the co-polarized scheme, so the optimum sits
    # at or near the top of the box and beats every grid candidate
    geometry, best = find_best_geometry(request_for(Scheme.TYPE0_EEE, 10.0), (6.5, 12.0))
    assert best.gamma >= 0.984
    assert geometry.width_um > 10.0 and geometry.depth_um > 10.0
    assert best.gamma >= max(d.gamma for d in type0_designs.values()) - 1e-9
