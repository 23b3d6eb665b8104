"""The library boundary under bad numbers: each float argument of the public
functions of `dppln`, of the classes that carry their inputs, of the ranges,
terms and support points of the dispersion tables and of the wavelength
methods of those tables and `EffectiveIndexSolver`, set in turn to nan,
+-inf, 0, -1, 1e300, 1e-300, the subnormals 1e-310 and 5e-324 or an integer
too large for a float (+-10**400), gives a finite result or a ToolkitError,
and no quadrature refinement evaluates an order above 384.  So do the calls
that read a process whose wavelengths are extreme but valid."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import request_for
from dppln import (DEFAULT_INCREMENTS, DEFAULT_MATERIAL, ZELMON_1997, ConfigurationError,
                   CouplingAmplitude, DesignRequest, EffectiveIndexSolver, IndexIncrementTable,
                   IndexProfile, Material, ModeSolution, Polarization, Scheme, SellmeierModel,
                   SpdcProcess, ToolkitError, WaveguideGeometry,
                   degree_of_entanglement, design, estimate_fwhm_nm,
                   field_overlap, find_best_geometry,
                   idler_wavelength, phase_mismatch, poling_fourier_coefficient,
                   qpm_period, rayleigh_quotient, sinc, solve_mode, spectrum_scan,
                   state_weights_and_entropy, sweep, synthesize_poling)
from dppln import mode_solver, quadrature

BAD = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, 1e-300, 1e-310, 5e-324, 10**400,
       -10**400)
# The highest Gauss order a refinement may evaluate on any of these inputs.
MAX_REFINED_ORDER = 384

E = Polarization.EXTRAORDINARY


def _init_fields(record):
    """The fields of a dataclass record that its constructor takes, by name."""
    return {field.name: getattr(record, field.name) for field in dataclasses.fields(record)
            if field.init}


def _calls():
    """Name -> (call, its float arguments by keyword at valid values)."""
    template = request_for(Scheme.TYPE0_EEE, 10.0)
    matched = design(template)
    process, a1, a2 = matched.process_1, matched.amplitude_1, matched.amplitude_2
    geometry = template.geometry
    profile = IndexProfile(geometry, 2.2, 0.003)
    fields = _init_fields(process)
    numbers = {name: value for name, value in fields.items() if isinstance(value, float)}
    pattern = synthesize_poling(6.8, 6.9, 0.1)
    solver = EffectiveIndexSolver(DEFAULT_MATERIAL, geometry)
    pump, signal, idler = (matched.modes[role] for role in ("pump", "signal_1", "idler_1"))
    mode = _init_fields(signal)

    def amplitudes(metric):
        return lambda o1, o2: metric(dataclasses.replace(a1, overlap_per_um=o1),
                                     dataclasses.replace(a2, overlap_per_um=o2))

    return {
        "WaveguideGeometry": (WaveguideGeometry, dict(width_um=10.0, depth_um=8.0,
                                                      length_cm=1.0)),
        "IndexProfile": (partial(IndexProfile, geometry),
                         dict(bulk_index=2.2, increment=0.003, lateral_scale=0.5,
                              depth_scale=2.0)),
        "Material": (Material, dict(lateral_scale=0.5, depth_scale=2.0)),
        "DesignRequest": (partial(DesignRequest, Scheme.TYPE0_EEE, geometry=geometry),
                          dict(pump_nm=519.0, signal1_nm=780.0, signal2_nm=775.0)),
        "SpdcProcess": (partial(SpdcProcess, **fields), numbers),
        "ModeSolution": (lambda **values: field_overlap(pump, ModeSolution(**{**mode, **values}),
                                                        idler),
                         {name: value for name, value in mode.items() if isinstance(value, float)}),
        "solve_mode": (partial(solve_mode, profile, polarization=E), dict(wavelength_nm=780.0)),
        "IndexIncrementTable": (lambda lam, dn: IndexIncrementTable(
            {E: ((500.0, 0.003), (lam, dn))}).increment(E, 780.0), dict(lam=1000.0, dn=0.002)),
        "IndexIncrementTable.increment": (partial(DEFAULT_INCREMENTS.increment, E),
                                          dict(wavelength_nm=780.0)),
        "SellmeierModel": (lambda low, high: SellmeierModel(
            "x", (low, high), ZELMON_1997.terms).index(E, 780.0), dict(low=400.0, high=5000.0)),
        "SellmeierModel.terms": (lambda B, C: SellmeierModel(
            "x", (400.0, 5000.0), {E: ((B, C),)}).index(E, 780.0), dict(B=2.9804, C=0.02047)),
        "SellmeierModel.index": (partial(ZELMON_1997.index, E), dict(wavelength_nm=780.0)),
        "EffectiveIndexSolver.profile": (partial(solver.profile, pol=E),
                                         dict(wavelength_nm=780.0)),
        "EffectiveIndexSolver.index": (partial(solver.index, pol=E), dict(wavelength_nm=780.0)),
        "EffectiveIndexSolver.solve": (partial(solver.solve, pol=E), dict(wavelength_nm=780.0)),
        "rayleigh_quotient": (partial(rayleigh_quotient, profile),
                              dict(wavelength_nm=780.0, alpha_y=1.0, alpha_z=1.0)),
        "idler_wavelength": (idler_wavelength, dict(pump_nm=519.0, signal_nm=780.0)),
        "qpm_period": (qpm_period, dict(n_p=process.n_pump, n_s=process.n_signal,
                                        n_i=process.n_idler, pump_nm=process.pump_nm,
                                        signal_nm=process.signal_nm,
                                        idler_nm=process.idler_nm)),
        "phase_mismatch": (partial(phase_mismatch, process), dict(signal_nm=781.0)),
        "CouplingAmplitude": (partial(CouplingAmplitude, process),
                              dict(overlap_per_um=matched.overlap_1, delta_k_rad_per_m=0.0,
                                   length_cm=1.0)),
        "degree_of_entanglement": (amplitudes(degree_of_entanglement),
                                   dict(o1=a1.overlap_per_um, o2=a2.overlap_per_um)),
        "state_weights_and_entropy": (amplitudes(state_weights_and_entropy),
                                      dict(o1=a1.overlap_per_um, o2=a2.overlap_per_um)),
        "estimate_fwhm_nm": (partial(estimate_fwhm_nm, process, "signal"),
                             dict(length_cm=1.0)),
        "spectrum_scan": (partial(spectrum_scan, process, "signal"),
                          dict(span_nm=6.0, samples=101, length_cm=1.0)),
        "synthesize_poling": (synthesize_poling,
                              dict(period1_um=6.8, period2_um=6.9, length_cm=0.1)),
        "poling_fourier_coefficient": (partial(poling_fourier_coefficient, pattern),
                                       dict(k_rad_per_um=2.0 * math.pi / 6.8)),
        "sinc": (sinc, dict(x=0.5)),
        "find_best_geometry": (lambda lo, hi: find_best_geometry(template, (lo, hi)),
                               dict(lo=6.5, hi=12.0)),
        "sweep": (lambda depth, width: sweep(template, [depth], [width]),
                  dict(depth=10.0, width=10.0)),
    }


CALLS = _calls()


def _finite(value):
    """Whether every number of a result, through its dataclasses, sequences
    and mappings, is finite."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, field.name)) for field in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, (float, np.floating, np.ndarray)):
        return bool(np.isfinite(value).all())
    return True


def _counted(orders):
    """`quadrature.refine` recording each Gauss order it evaluates."""
    refine = quadrature.refine

    def counted(evaluate, *args, **options):
        return refine(lambda order: orders.append(order) or evaluate(order), *args, **options)

    return counted


@pytest.mark.parametrize("name, argument",
                         [(name, argument) for name, (_, numbers) in CALLS.items()
                          for argument in numbers])
@settings(max_examples=50)
@given(bad=st.sampled_from(BAD))
def test_a_bad_number_gives_a_finite_result_or_a_toolkit_error(name, argument, bad):
    call, numbers = CALLS[name]
    orders = []
    with pytest.MonkeyPatch.context() as patch:
        counted = _counted(orders)
        # mode_solver holds its own reference; refine_scalar calls quadrature's
        patch.setattr(quadrature, "refine", counted)
        patch.setattr(mode_solver, "refine", counted)
        try:
            result = call(**{**numbers, argument: bad})
        except ToolkitError:
            pass
        else:
            assert _finite(result), result
    assert max(orders, default=0) <= MAX_REFINED_ORDER


@pytest.mark.parametrize("name", ["SellmeierModel.index", "IndexIncrementTable.increment",
                                  "EffectiveIndexSolver.profile", "EffectiveIndexSolver.index",
                                  "EffectiveIndexSolver.solve"])
@pytest.mark.parametrize("bad", BAD[:5])
def test_a_wavelength_that_is_not_finite_and_positive_is_a_configuration_error(name, bad):
    # before, the Sellmeier range test made nan, +-inf, 0 and -1 nm a
    # WavelengthRangeError, a physics error, at every slot but the increment's
    call, _ = CALLS[name]
    with pytest.raises(ConfigurationError) as raised:
        call(wavelength_nm=bad)
    assert raised.value.field == "wavelength_nm"


@pytest.mark.parametrize("bad", BAD)
def test_a_mode_solution_names_its_bad_number_or_gives_a_finite_overlap(bad):
    call, numbers = CALLS["ModeSolution"]
    assert set(numbers) == {"n_eff", "alpha_y", "alpha_z", "wavelength_nm"}
    for name in numbers:
        try:
            overlap = call(**{**numbers, name: bad})
        except ConfigurationError as error:
            assert error.field == name, error
        else:
            assert math.isfinite(overlap), (name, overlap)


@pytest.mark.parametrize("pump_nm, signal_nm", [(1e200, 1.5e200), (1e-300, 1.5e-300)])
def test_a_process_of_extreme_wavelengths_gives_a_finite_result_or_a_toolkit_error(pump_nm,
                                                                                  signal_nm):
    # before, the FWHM estimate and the spectrum scan squared the 1e200 nm
    # centre into an OverflowError
    process = SpdcProcess(pump_nm, signal_nm, E, E, E, 2.2, 2.1, 2.0)
    span = 1e-3 * signal_nm
    calls = [partial(phase_mismatch, process, signal_nm * (1.0 + 1e-7)),
             partial(CouplingAmplitude, process, 0.1, 0.0, 1.0)]
    calls += [partial(call, process, axis, *args) for axis in ("signal", "idler")
              for call, args in ((estimate_fwhm_nm, (1.0,)), (spectrum_scan, (span, 101, 1.0)))]
    for call in calls:
        try:
            result = call()
        except ToolkitError:
            continue
        assert _finite(result), (call, result)


def test_the_bad_numbers_reach_every_slot_and_the_refinements_are_counted():
    # Hypothesis exhausts the eleven values, and the counter sees the orders
    # of a solve: its one refinement, the final n_eff^2, settling at 96
    seen = set()

    @settings(max_examples=50)
    @given(bad=st.sampled_from(BAD))
    def record(bad):
        seen.add(repr(bad))

    record()
    assert seen == set(map(repr, BAD))
    orders = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mode_solver, "refine", _counted(orders))
        solve_mode(IndexProfile(WaveguideGeometry(10.0, 10.0, 1.0), 2.2, 0.003), 780.0, E)
    assert orders == [48, 96]
