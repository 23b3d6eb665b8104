"""The library boundary under bad numbers: each float argument of the public
functions of `dppln`, of the classes that carry their inputs and of the
wavelength methods of the dispersion tables and `EffectiveIndexSolver`, set in
turn to nan, +-inf, 0, -1, 1e300 or 1e-300, gives a finite result or a
ToolkitError, and no quadrature refinement evaluates an order above 384."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import request_for
from dppln import (DEFAULT_INCREMENTS, DEFAULT_MATERIAL, ZELMON_1997, DesignRequest,
                   EffectiveIndexSolver, IndexProfile, Material, Polarization, Scheme, SpdcProcess,
                   ToolkitError, WaveguideGeometry, coupling_amplitude, degree_of_entanglement,
                   design, estimate_fwhm_nm, find_best_geometry, idler_wavelength, make_process,
                   phase_mismatch, poling_fourier_coefficient, qpm_period, rayleigh_quotient, sinc,
                   solve_mode, spectrum_scan, state_weights_and_entropy, sweep, synthesize_poling)
from dppln import mode_solver, quadrature

BAD = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, 1e-300)
# The highest Gauss order a refinement may evaluate on any of these inputs.
MAX_REFINED_ORDER = 384

E = Polarization.EXTRAORDINARY


def _calls():
    """Name -> (call, its float arguments by keyword at valid values)."""
    template = request_for(Scheme.TYPE0_EEE, 10.0)
    matched = design(template)
    process, a1, a2 = matched.process_1, matched.amplitude_1, matched.amplitude_2
    geometry = template.geometry
    profile = IndexProfile(geometry, 2.2, 0.003)
    fields = {field.name: getattr(process, field.name) for field in dataclasses.fields(process)}
    numbers = {name: value for name, value in fields.items() if isinstance(value, float)}
    pattern = synthesize_poling(6.8, 6.9, 0.1)
    solver = EffectiveIndexSolver(DEFAULT_MATERIAL, geometry)

    def amplitudes(metric):
        return lambda m1, m2: metric(dataclasses.replace(a1, magnitude=m1),
                                     dataclasses.replace(a2, magnitude=m2))

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
        "solve_mode": (partial(solve_mode, profile, polarization=E), dict(wavelength_nm=780.0)),
        "IndexIncrementTable.increment": (partial(DEFAULT_INCREMENTS.increment, E),
                                          dict(wavelength_nm=780.0)),
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
        "make_process": (partial(make_process, pump_pol=E, signal_pol=E, idler_pol=E),
                         dict(pump_nm=519.0, signal_nm=780.0, n_pump=process.n_pump,
                              n_signal=process.n_signal, n_idler=process.n_idler)),
        "phase_mismatch": (partial(phase_mismatch, process), dict(signal_nm=781.0)),
        "coupling_amplitude": (partial(coupling_amplitude, process),
                               dict(overlap_per_um=matched.overlap_1, delta_k_rad_per_m=0.0,
                                    length_cm=1.0)),
        "degree_of_entanglement": (amplitudes(degree_of_entanglement),
                                   dict(m1=a1.magnitude, m2=a2.magnitude)),
        "state_weights_and_entropy": (amplitudes(state_weights_and_entropy),
                                      dict(m1=a1.magnitude, m2=a2.magnitude)),
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
    """`quadrature.refine_rows` recording each Gauss order it evaluates."""
    refine_rows = quadrature.refine_rows

    def counted(evaluate, count, *args, **options):
        return refine_rows(lambda order, rows: orders.append(order) or evaluate(order, rows),
                           count, *args, **options)

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
        patch.setattr(quadrature, "refine_rows", counted)
        patch.setattr(mode_solver, "refine_rows", counted)
        try:
            result = call(**{**numbers, argument: bad})
        except ToolkitError:
            pass
        else:
            assert _finite(result), result
    assert max(orders, default=0) <= MAX_REFINED_ORDER


def test_the_bad_numbers_reach_every_slot_and_the_refinements_are_counted():
    # Hypothesis exhausts the seven values, and the counter sees the orders
    # of a solve: the order lock and the final refinement, both locking at 96
    seen = set()

    @settings(max_examples=50)
    @given(bad=st.sampled_from(BAD))
    def record(bad):
        seen.add(repr(bad))

    record()
    assert seen == set(map(repr, BAD))
    orders = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mode_solver, "refine_rows", _counted(orders))
        solve_mode(IndexProfile(WaveguideGeometry(10.0, 10.0, 1.0), 2.2, 0.003), 780.0, E)
    assert orders == [48, 96] * 2
