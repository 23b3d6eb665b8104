import concurrent.futures
import dataclasses
import gc
import math
import os
import re

import numpy as np
import pytest

from dppln import (
    DEFAULT_MATERIAL,
    BoundaryOptimumError,
    ConfigurationError,
    DesignRequest,
    EffectiveIndexSolver,
    IndexProfile,
    NoFeasibleDesignError,
    NoGuidedModeError,
    PhaseMatchingError,
    PhysicsError,
    Polarization,
    QuadratureConvergenceError,
    Scheme,
    WavelengthRangeError,
    WaveguideGeometry,
    design,
    design_spectra,
    find_best_geometry,
    idler_wavelength,
    phase_match,
    solve_mode,
    solve_modes,
    sweep,
)
from dppln import design_search, mode_solver
from dppln.design_search import SweepRow
from dppln.dispersion import ZELMON_1997
from dppln.quadrature import refine_scalar
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
    # a bad pump is named before the down-conversion test reads it
    for pump in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ConfigurationError, match="^pump_nm must be finite") as raised:
            DesignRequest(Scheme.TYPE0_EEE, pump, 780.0, 775.0, geometry)
        assert raised.value.field == "pump_nm"


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


def test_a_spectrum_that_reaches_the_pump_at_every_supported_length_suggests_none():
    # near degeneracy the design spectra are so wide that only a length beyond
    # the supported range would keep them clear of the pump
    request = dataclasses.replace(request_for(Scheme.TYPE0_EEE, 10.0), signal1_nm=1037.9)
    for length_cm in (1.0, mode_solver.MAX_LENGTH_CM):
        geometry = dataclasses.replace(request.geometry, length_cm=length_cm)
        with pytest.raises(ConfigurationError, match="no supported length") as raised:
            design(dataclasses.replace(request, geometry=geometry))
        assert raised.value.field == "length_cm"
        assert "use more than" not in str(raised.value)


def _assert_same_design(a, b):
    """Equal designs; the spectra hold arrays, so they are compared field by field."""
    assert dataclasses.replace(a, spectra=None) == dataclasses.replace(b, spectra=None)
    assert list(a.spectra) == list(b.spectra)
    for role, spectrum in a.spectra.items():
        other = b.spectra[role]
        assert (spectrum.role, spectrum.center_nm, spectrum.fwhm_nm) == (
            other.role, other.center_nm, other.fwhm_nm)
        assert np.array_equal(spectrum.wavelengths_nm, other.wavelengths_nm)
        assert np.array_equal(spectrum.gain, other.gain)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_design_is_its_three_stages(scheme):
    request = request_for(scheme, 10.0)
    matched = phase_match(request, solve_modes(request))
    staged = design_spectra(matched)
    _assert_same_design(staged, design(request))  # gamma, periods, FWHM and gains included
    assert dataclasses.replace(staged, spectra=None) == matched


@pytest.mark.parametrize("scheme", list(Scheme))
def test_only_design_spectra_depends_on_the_length(scheme):
    request = request_for(scheme, 10.0, length_cm=0.01)
    matched = phase_match(request, solve_modes(request))
    assert matched.spectra is None and matched.gamma > 0.0
    with pytest.raises(ConfigurationError, match="geometry.length_cm") as raised:
        design_spectra(matched)
    assert raised.value.field == "length_cm"


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
    for max_workers in (0, -1, math.nan, 1.5):  # as the CLI rejects --parallel 0
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


def test_sweep_parallel_matches_serial_with_a_failing_first_depth():
    # two batches of eight rows; every row of the first depth fails
    template = request_for(Scheme.TYPE2_CROSS, 10.0)
    depths, widths = [1.0, 6.5, 10.0, 14.0], [2.0, 6.5, 10.0, 16.0]
    serial = sweep(template, depths, widths)
    assert all(row.error is not None for row in serial.rows[:4])
    assert any(row.error is None for row in serial.rows[4:])
    assert sweep(template, depths, widths, max_workers=2) == serial


def test_sweep_with_failing_rows_leaves_no_garbage(monkeypatch):
    # stored lane errors carry no traceback, and a phase-matching failure,
    # raised with its cause's traceback, is kept only as text: no frame <-> error cycle
    def failing(*args):
        raise PhaseMatchingError("the chosen failure")

    template = request_for(Scheme.TYPE0_EEE, 10.0)
    errors = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(design_search, "SpdcProcess", failing)
        gc.collect()
        gc.disable()
        try:
            result = sweep(template, [1.0, 10.0], [2.0, 10.0])
            assert gc.collect() == 0
        finally:
            gc.enable()
        errors.append([row.error for row in result.rows])
    assert [error is None for error in errors[0]] == [False, False, False, True]
    assert errors[1] == errors[0][:3] + ["process_1 (780.00 nm): the chosen failure"]


def _outcome(call):
    try:
        return call()
    except PhysicsError as error:
        return type(error), str(error)


def _solved(result):
    """A solve's result with a failure as its class and message."""
    return (type(result), str(result)) if isinstance(result, PhysicsError) else result


def _wavelengths(request):
    return {"pump": request.pump_nm, "signal_1": request.signal1_nm,
            "signal_2": request.signal2_nm,
            "idler_1": idler_wavelength(request.pump_nm, request.signal1_nm),
            "idler_2": idler_wavelength(request.pump_nm, request.signal2_nm)}


def _final_order(mode):
    """The Gauss order at which the final refinement of a solved mode's n_eff^2 settles."""
    start = mode_solver._grid_start(mode.profile, mode.wavelength_nm)
    ((_, order),) = mode_solver._finished([start], [(mode.alpha_y, mode.alpha_z)])
    return order


def test_lock_step_batch_matches_one_lane_solves(monkeypatch):
    # one batch of mixed lanes against one-lane solve_mode, bit for bit
    vertices = []
    steps = mode_solver._nelder_mead_steps

    def recorded(simplex, **options):
        run = steps(simplex, **options)
        try:
            x = next(run)
            while True:
                vertices.append(tuple(x))
                x = run.send((yield x))
        except StopIteration as done:
            return done.value

    monkeypatch.setattr(mode_solver, "_nelder_mead_steps", recorded)
    narrow = dataclasses.replace(DEFAULT_MATERIAL, lateral_scale=0.02)
    jobs = []
    for material, size in ((DEFAULT_MATERIAL, 10.0), (narrow, 6.5), (DEFAULT_MATERIAL, 2.0),
                           (narrow, 10.0), (DEFAULT_MATERIAL, 6.5)):
        solver = EffectiveIndexSolver(material, WaveguideGeometry(size, 0.8 * size, 1.0))
        for scheme in Scheme:
            request = request_for(scheme, size)
            for role, pol in list(scheme.polarizations().items())[::2]:
                wavelength = _wavelengths(request)[role]
                jobs.append((solver.profile(wavelength, pol), wavelength, pol))
    jobs.append((IndexProfile(WaveguideGeometry(8.0, 8.0, 1.0), 2.2, 1e-6), 780.0, E))

    # one outcome per job, the lanes after a failure solved as well
    batch = mode_solver.solve_lanes(jobs)
    assert len(batch) >= 20 and any(min(x) <= mode_solver._ALPHA_FLOOR for x in vertices)
    kinds = set()  # the final order of each solved lane, the class of each failure
    for job, result in zip(jobs, batch):
        assert not isinstance(result, PhysicsError) or result.__traceback__ is None
        assert _solved(result) == _outcome(lambda: solve_mode(*job)), job
        kinds.add(type(result) if isinstance(result, PhysicsError) else _final_order(result))
    assert {96, BoundaryOptimumError, NoGuidedModeError} <= kinds and kinds & {192, 384}
    first_failure = next(k for k, result in enumerate(batch) if isinstance(result, PhysicsError))
    assert 0 < first_failure < len(jobs) - 1
    assert not all(isinstance(result, PhysicsError) for result in batch[first_failure:])

    # whole requests: the first failing wave in role order, a profile's
    # WavelengthRangeError included, as the role-by-role solve gives it
    requests = [request_for(Scheme.TYPE2_CROSS, 8.0), request_for(Scheme.TYPE0_EEE, 1.5),
                dataclasses.replace(request_for(Scheme.TYPE0_EEE, 10.0), signal1_nm=560.0),
                request_for(Scheme.TYPE0_EEE, 12.0)]
    failures = []
    for request, result in zip(requests, design_search._solve_requests(requests,
                                                                        DEFAULT_MATERIAL)):
        expected = {}
        solver = EffectiveIndexSolver(DEFAULT_MATERIAL, request.geometry)
        for role, pol in request.scheme.polarizations().items():
            wavelength = _wavelengths(request)[role]
            mode = _outcome(lambda: solver.solve(wavelength, pol))
            if isinstance(mode, tuple):
                expected = mode[0], f"{role} ({wavelength:.2f} nm): {mode[1]}"
                failures.append(mode[0])
                break
            expected[role] = mode
        assert _solved(result) == expected
        assert _outcome(lambda: solve_modes(request)) == expected
    assert failures == [BoundaryOptimumError, WavelengthRangeError]


def _jobs_settling_at_96_and_384():
    narrow = dataclasses.replace(DEFAULT_MATERIAL, lateral_scale=0.02)
    jobs = [(EffectiveIndexSolver(material, WaveguideGeometry(size, 0.8 * size, 1.0))
             .profile(780.0, pol), 780.0, pol)
            for material, size, pol in ((DEFAULT_MATERIAL, 10.0, O), (narrow, 6.5, E))]
    assert [_final_order(solve_mode(*job)) for job in jobs] == [96, 384]
    return jobs


def test_a_lane_after_a_failed_lane_completes_and_its_request_reports_the_first_failure(
        monkeypatch):
    # a lane fails at its finish while the next lane, of another material,
    # still runs: that run completes as its one-lane solve does; a request
    # with failures at two waves reports the first in role order
    jobs = _jobs_settling_at_96_and_384()
    request = request_for(Scheme.TYPE0_EEE, 10.0)
    nm, solver = _wavelengths(request), EffectiveIndexSolver(DEFAULT_MATERIAL, request.geometry)
    failures = [jobs[0][0]] + [solver.profile(nm[role], E) for role in ("signal_1", "idler_2")]
    finished, steps, evaluations = mode_solver._finished, mode_solver._nelder_mead_steps, []

    def failing(starts, points):
        return [BoundaryOptimumError("the chosen failure") if start.profile in failures
                else outcome for start, outcome in zip(starts, finished(starts, points))]

    def counted(simplex, **options):
        evaluations.append(0)
        run, lane = steps(simplex, **options), len(evaluations) - 1
        try:
            x = next(run)
            while True:
                evaluations[lane] += 1
                x = run.send((yield x))
        except StopIteration as done:
            return done.value

    monkeypatch.setattr(mode_solver, "_finished", failing)
    monkeypatch.setattr(mode_solver, "_nelder_mead_steps", counted)
    error, later = mode_solver.solve_lanes(jobs)
    assert (type(error), str(error), error.__traceback__) == (BoundaryOptimumError,
                                                              "the chosen failure", None)
    assert later == solve_mode(*jobs[1])
    assert evaluations[1] == evaluations[2]  # the later run was not stopped
    with pytest.raises(BoundaryOptimumError,
                       match=fr"^signal_1 \({nm['signal_1']:.2f} nm\): the chosen failure$"):
        solve_modes(request)
    assert len(evaluations) == 3 + 5  # every wave of the request was solved


def _never_converging(monkeypatch, profile):
    """Patch `_rq_taylor` so that the quotients of `profile` gain 1/order and
    never converge; every other profile keeps its values."""
    rq_taylor = mode_solver._rq_taylor

    def noisy(p, k0, scaled, sy, sz):
        value, *derivatives = rq_taylor(p, k0, scaled, sy, sz)
        order = len(scaled.y_exponent) // 2
        return (value + 1.0 / order if p is profile else value), *derivatives

    monkeypatch.setattr(mode_solver, "_rq_taylor", noisy)


def test_refinement_gives_each_lane_refine_scalar_over_rq_taylor(monkeypatch):
    # the final refinement gives each lane the (value, order) of
    # refine_scalar over its own `_rq_taylor` quotient: lanes that settle at
    # 96 and at 384, at their grid points and off them
    jobs = _jobs_settling_at_96_and_384()
    jobs += [(IndexProfile(WaveguideGeometry(w, 9.0, 1.0), 2.2, 0.003), 1000.0, E)
             for w in (5.0, 14.0)]
    starts = [mode_solver._grid_start(profile, nm) for profile, nm, _ in jobs]
    lanes = starts * 3
    points = ([(s.ay, s.az) for s in starts] + [(s.ay * 1.3, s.az * 0.8) for s in starts]
              + [(1.0, 1.0)] * len(starts))

    def one_lane(start, point):
        profile, (ay, az) = start.profile, point
        return refine_scalar(lambda n: mode_solver._rq_taylor(
            profile, start.k0, mode_solver._scaled(profile.lateral_scale, profile.depth_scale, n),
            ay * ay, az * az)[0])

    batched = mode_solver._finished(lanes, points)
    assert batched == [one_lane(*lane) for lane in zip(lanes, points)]
    assert [order for _, order in batched[:2]] == [96, 384]

    # a lane that never converges gets its own QuadratureConvergenceError
    _never_converging(monkeypatch, jobs[1][0])
    batched = mode_solver._finished(lanes, points)
    for k, outcome in enumerate(batched):
        if k % len(starts) == 1:
            assert isinstance(outcome, QuadratureConvergenceError)
            assert outcome.__traceback__ is None
        else:
            assert outcome == one_lane(lanes[k], points[k])


def test_a_lane_that_never_converges_fails_only_itself(monkeypatch):
    # its refinement fails in `_finished`, after its Nelder-Mead run
    jobs = _jobs_settling_at_96_and_384()
    other = (IndexProfile(WaveguideGeometry(8.0, 8.0, 1.0), 2.2, 0.003), 900.0, E)
    expected = [solve_mode(*jobs[0]), solve_mode(*other)]
    _never_converging(monkeypatch, jobs[1][0])
    with pytest.raises(QuadratureConvergenceError, match="within order 3072"):
        mode_solver.effective_index(*jobs[1][:2])
    first, error, *others = mode_solver.solve_lanes(jobs + [other, other])
    assert [first, *others] == [expected[0], expected[1], expected[1]]
    assert type(error) is QuadratureConvergenceError and error.__traceback__ is None


def test_effective_index_runs_no_nelder_mead(monkeypatch):
    # Newton works on the GRID_ORDER rows and only the final refinement
    # settles an order, yet each n_eff is solve_mode's to 2 ulp: lanes that
    # settle at 96, 384 and (a narrow channel wall at 1551 nm) 192
    narrow = dataclasses.replace(DEFAULT_MATERIAL, lateral_scale=0.02)
    profile = EffectiveIndexSolver(narrow, WaveguideGeometry(10.0, 8.0, 1.0)).profile(1551.03, E)
    jobs = _jobs_settling_at_96_and_384() + [(profile, 1551.03, E)]
    assert _final_order(solve_mode(profile, 1551.03, E)) == 192
    expected = [solve_mode(*job).n_eff for job in jobs]

    def nelder_mead(starts):
        raise AssertionError("effective_index ran Nelder-Mead")

    monkeypatch.setattr(mode_solver, "_nelder_mead_optima", nelder_mead)
    for (profile, wavelength, _), n_eff in zip(jobs, expected):
        assert abs(mode_solver.effective_index(profile, wavelength) - n_eff) <= 2 * math.ulp(n_eff)


def test_lock_step_batch_builds_no_one_lane_objective_or_refine_scalar(monkeypatch):
    # a batch solves its lanes without rayleigh_quotient's one-lane objective
    # or refine_scalar, and builds the node rows of its one shape once, at
    # GRID_ORDER
    request = request_for(Scheme.TYPE2_CROSS, 9.0)
    solver, nm = EffectiveIndexSolver(DEFAULT_MATERIAL, request.geometry), _wavelengths(request)
    jobs = [(solver.profile(nm[role], pol), nm[role], pol)
            for role, pol in request.scheme.polarizations().items()]
    expected = [solve_mode(*job) for job in jobs]
    calls, node_rows = [], mode_solver._node_rows
    monkeypatch.setattr(mode_solver, "rayleigh_quotient",
                        lambda *args: calls.append("rayleigh_quotient"))
    monkeypatch.setattr(mode_solver, "refine_scalar",
                        lambda *args, **options: calls.append("refine_scalar"))
    monkeypatch.setattr(mode_solver, "_node_rows",
                        lambda *key: calls.append(key) or node_rows(*key))
    assert mode_solver.solve_lanes(jobs) == expected
    assert calls == [(9.0, 9.0, DEFAULT_MATERIAL.lateral_scale, DEFAULT_MATERIAL.depth_scale,
                      mode_solver.GRID_ORDER)]


def _batch_traffic(monkeypatch):
    """Per Nelder-Mead batch, its starts' shapes, its `panel_nodes` calls and
    its number of stacked objectives, recorded as the batches run."""
    batches = []
    optima, rq_rows, panel_nodes = (mode_solver._nelder_mead_optima, mode_solver._rq_rows,
                                    mode_solver.panel_nodes)

    def recorded(starts):
        batches.append({"shapes": {mode_solver._shape(s.profile) for s in starts},
                        "reads": [], "objectives": 0})
        return optima(starts)

    def stacked(lanes):
        batches[-1]["objectives"] += 1
        return rq_rows(lanes)

    def read(edges, order):
        batches[-1]["reads"].append((edges, order))
        return panel_nodes(edges, order)

    monkeypatch.setattr(mode_solver, "_nelder_mead_optima", recorded)
    monkeypatch.setattr(mode_solver, "_rq_rows", stacked)
    monkeypatch.setattr(mode_solver, "panel_nodes", read)
    return batches


def test_a_batch_reads_the_panel_nodes_of_each_shape_twice_however_often_it_restacks(
        monkeypatch):
    # one design: its five lanes share one shape, whose y and z nodes it reads
    # once each, though its batch restacks; a sweep batch reads two node sets
    # for each row shape, all at GRID_ORDER
    request = request_for(Scheme.TYPE0_EEE, 10.0)
    expected = design(request)  # builds the scaled rows, which read unit-box nodes
    batches = _batch_traffic(monkeypatch)
    assert design(request).modes == expected.modes
    (batch,) = batches
    geometry = request.geometry
    assert len(batch["shapes"]) == 1 and batch["objectives"] >= 2
    assert batch["reads"] == [
        (mode_solver._y_edges(geometry.width_um), mode_solver.GRID_ORDER),
        (mode_solver._z_edges(geometry.depth_um), mode_solver.GRID_ORDER)]

    batches.clear()
    sizes = np.geomspace(2.0, 18.0, 4).tolist()
    rows = sweep(request, sizes, sizes).rows
    assert sum(row.error is None for row in rows) >= 8 and len(batches) >= 2
    for batch in batches:
        assert sorted(batch["reads"]) == sorted(
            (edges, mode_solver.GRID_ORDER) for w, h, *_ in batch["shapes"]
            for edges in (mode_solver._y_edges(w), mode_solver._z_edges(h)))
    assert max(batch["objectives"] for batch in batches) >= 2


def test_a_profile_error_of_a_later_wave_waits_for_the_earlier_waves():
    # this Sellmeier set gives n^2 < 0 at the idlers only: its ConfigurationError
    # comes once the earlier waves solve, and yields to their failures
    terms = {**ZELMON_1997.terms, E: ZELMON_1997.terms[E] + ((-2.0, 1.44),)}
    material = dataclasses.replace(
        DEFAULT_MATERIAL, sellmeier=dataclasses.replace(ZELMON_1997, terms=terms))
    with pytest.raises(ConfigurationError, match=r"n\^2 = -0.413234 .* at 1551.03 nm"):
        solve_modes(request_for(Scheme.TYPE0_EEE, 10.0), material)
    for size, role in ((1.0, "pump"), (2.0, "signal_1")):
        with pytest.raises(BoundaryOptimumError, match=f"^{role} "):
            design(request_for(Scheme.TYPE0_EEE, size), material)
    rows = sweep(request_for(Scheme.TYPE0_EEE, 1.0), [1.0, 2.0], [1.0, 2.0],
                 material=material, max_workers=2).rows
    assert [row.error.split(" ")[0] for row in rows] == ["pump", "pump", "signal_1", "signal_1"]
    with pytest.raises(ConfigurationError, match="1551.03 nm"):
        sweep(request_for(Scheme.TYPE0_EEE, 1.0), [1.0, 10.0], [10.0], material=material)


def _recorded_batches(monkeypatch):
    """The geometries of each `_solve_requests` call, recorded as they come."""
    batches, solve_requests = [], design_search._solve_requests

    def recorded(requests, material):
        batches.append([(r.geometry.depth_um, r.geometry.width_um) for r in requests])
        return solve_requests(requests, material)

    monkeypatch.setattr(design_search, "_solve_requests", recorded)
    return batches


def test_sweep_solves_its_rows_in_bounded_contiguous_batches(monkeypatch):
    batches = _recorded_batches(monkeypatch)
    depths, widths = [float(d) for d in range(2, 12)], [8.0, 10.0]
    rows = sweep(request_for(Scheme.TYPE0_EEE, 10.0), depths, widths).rows
    assert design_search.SWEEP_BATCH_ROWS == 8
    assert [len(batch) for batch in batches] == [6, 7, 7]
    pairs = [(d, w) for d in depths for w in widths]
    assert [pair for batch in batches for pair in batch] == pairs
    assert [(row.depth_um, row.width_um) for row in rows] == pairs


def test_a_sweep_builds_scaled_rows_once_and_node_rows_only_at_grid_order(monkeypatch):
    # a 16x16 sweep builds the scaled rows once per (scales, order) and the
    # node rows of each row shape that a Nelder-Mead run reads once, at
    # GRID_ORDER: none for the grid or the final n_eff
    keys, built = [], []
    scaled, node_rows = mode_solver._scaled, mode_solver._node_rows
    scaled.cache_clear()
    monkeypatch.setattr(mode_solver, "_scaled", lambda *key: keys.append(key) or scaled(*key))
    monkeypatch.setattr(mode_solver, "_node_rows",
                        lambda *key: built.append(key) or node_rows(*key))
    sizes = np.geomspace(2.0, 18.0, 16).tolist()
    rows = sweep(request_for(Scheme.TYPE2_CROSS, 10.0), sizes, sizes).rows
    assert len(rows) == 256 and sum(row.error is None for row in rows) > 100
    assert scaled.cache_info().misses == len(set(keys)) <= 5
    assert {key[-1] for key in built} == {mode_solver.GRID_ORDER}
    assert len(built) == len(set(built)) <= 256
    assert {(row.width_um, row.depth_um) for row in rows if row.error is None} <= {
        (w, h) for w, h, *_ in built}
    # the n_eff path of dispersive scans builds no node rows at all
    built.clear()
    EffectiveIndexSolver(DEFAULT_MATERIAL, WaveguideGeometry(9.0, 7.0, 1.0)).index(780.0, E)
    assert built == []


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
    monkeypatch.setattr(design_search, "_sweep_rows",
                        lambda material, requests: [
                            SweepRow(r.geometry.depth_um, r.geometry.width_um, 1.0, 2.0, 3.0)
                            for r in requests])
    template = request_for(Scheme.TYPE0_EEE, 10.0)
    result = sweep(template, [8.0, 10.0], [8.0, 10.0], max_workers=max_workers)
    assert sizes == pools
    assert [(r.depth_um, r.width_um) for r in result.rows] == [
        (8.0, 8.0), (8.0, 10.0), (10.0, 8.0), (10.0, 10.0)
    ]


@pytest.mark.parametrize("peak", [0.1, 0.9], ids=["near-lower-bound", "near-upper-bound"])
def test_golden_section_finds_a_peak_near_either_bound(peak):
    found = design_search._golden_section(lambda x: -(x - peak) ** 2, 0.0, 1.0, 1e-6)
    assert found == pytest.approx(peak, abs=1e-6)


def test_find_best_geometry_with_no_feasible_candidate_raises():
    # a 1 um channel guides no wave of the request, and with lo == hi every
    # grid candidate is that channel
    with pytest.raises(NoFeasibleDesignError, match="no geometry in the search grid"):
        find_best_geometry(request_for(Scheme.TYPE0_EEE, 10.0), (1.0, 1.0))


def test_find_best_geometry_degenerate_bounds(design_type0_10):
    geometry, best = find_best_geometry(request_for(Scheme.TYPE0_EEE, 10.0), (10.0, 10.0))
    assert geometry.width_um == 10.0 and geometry.depth_um == 10.0
    assert best.gamma == design_type0_10.gamma


@pytest.mark.parametrize("bounds", [(6.5, 60.0), (0.5, 12.0), (12.0, 6.5), (0.5, 60.0)])
def test_find_best_geometry_checks_bounds_before_any_design(monkeypatch, bounds):
    def no_solve(jobs):
        raise AssertionError(f"solve_lanes called on {len(jobs)} jobs")

    for module in (design_search, mode_solver):
        monkeypatch.setattr(module, "solve_lanes", no_solve)
    with pytest.raises(ConfigurationError, match="bounds") as raised:
        find_best_geometry(request_for(Scheme.TYPE0_EEE, 10.0), bounds)
    assert raised.value.field == "bounds_um"


def test_find_best_geometry_designs_each_point_once(monkeypatch):
    # every point is phase-matched once, in the sweep's batches; only the
    # returned design gets its four spectra
    batches = _recorded_batches(monkeypatch)
    gammas, scans = [], []
    matched_by, scanned_by = design_search.phase_match, design_search.spectrum_scan

    def matched(request, modes):
        result = matched_by(request, modes)
        gammas.append(result.gamma)
        return result

    def scanned(*args):
        scans.append(args)
        return scanned_by(*args)

    monkeypatch.setattr(design_search, "phase_match", matched)
    monkeypatch.setattr(design_search, "spectrum_scan", scanned)
    template = request_for(Scheme.TYPE0_EEE, 10.0)
    geometry, best = find_best_geometry(template, (9.0, 10.0))
    # the 16 grid points go in two batches of 8, then one point per golden-section step
    assert [len(batch) for batch in batches[:2]] == [8, 8]
    assert len(batches) > 2 and all(len(batch) == 1 for batch in batches[2:])
    solved = [pair for batch in batches for pair in batch]
    assert len(solved) == len(set(solved)) > 16
    assert len(scans) == 4
    assert best.gamma == max(gammas)
    monkeypatch.undo()
    _assert_same_design(best, design(dataclasses.replace(template, geometry=geometry)))


def test_find_best_geometry_tracks_table_trend(type0_designs):
    # gamma grows with size for the co-polarized scheme, so the optimum sits
    # at or near the top of the box and beats every grid candidate
    geometry, best = find_best_geometry(request_for(Scheme.TYPE0_EEE, 10.0), (6.5, 12.0))
    assert best.gamma >= 0.984
    assert geometry.width_um > 10.0 and geometry.depth_um > 10.0
    assert best.gamma >= max(d.gamma for d in type0_designs.values()) - 1e-9


@pytest.mark.parametrize("depths, widths, pairing, field", [
    ([], [8.0], "product", "depths_um"), ([8.0], [], "zip", "widths_um"),
    ([8.0], [8.0], "diagonal", "pairing"),
    # 317 x 316 rows, just over MAX_SWEEP_ROWS: rejected before any row is listed
    ([8.0] * 317, [8.0] * 316, "product", "pairing")])
def test_sweep_argument_errors_name_their_field(monkeypatch, depths, widths, pairing, field):
    assert design_search.MAX_SWEEP_ROWS == 100_000
    monkeypatch.setattr(design_search, "_requests", lambda *args: pytest.fail("rows built"))
    with pytest.raises(ConfigurationError) as raised:
        sweep(request_for(Scheme.TYPE0_EEE, 10.0), depths, widths, pairing=pairing)
    assert raised.value.field == field
