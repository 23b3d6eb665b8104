import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppln import mode_solver
from dppln import (
    AmplitudeUndefinedError,
    ConfigurationError,
    ConsistencyError,
    CouplingAmplitude,
    DownConversionError,
    EffectiveIndexSolver,
    PhaseMatchingError,
    Polarization,
    SpanTooNarrowError,
    SpdcProcess,
    degree_of_entanglement,
    design,
    estimate_fwhm_nm,
    idler_wavelength,
    phase_mismatch,
    qpm_period,
    sinc,
    spectral_distinguishability,
    spectrum_scan,
    state_weights_and_entropy,
    synthesize_poling,
)
from dppln.dispersion import DEFAULT_MATERIAL
from dppln.spdc import HALF_MAX_ARG

E = Polarization.EXTRAORDINARY

# Exact rationals: 519*780/261 and 519*775/256.
IDLER_1_NM = 1551.0344827586207
IDLER_2_NM = 1571.19140625

# Hand computation for gamma = 0.9817: p2 = g^2/(1+g^2), H = -sum p log2 p.
ENTROPY_AT_GAMMA_9817 = 0.9997539737102910
WEIGHT2_AT_GAMMA_9817 = 0.49076629177780714


def synthetic_process():
    return SpdcProcess(500.0, 900.0, E, E, E, 2.30, 2.25, 2.20)


def synthetic_amplitude(magnitude):
    """CouplingAmplitude with a prescribed phase-matched magnitude."""
    process = synthetic_process()
    base = CouplingAmplitude(process, 1.0, 0.0, 1.0)
    scale = magnitude / base.magnitude if base.magnitude else 0.0
    return CouplingAmplitude(process, scale, 0.0, 1.0)


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert sinc(np.pi) == pytest.approx(0.0, abs=1e-15)
    assert sinc(np.pi / 2) == pytest.approx(2.0 / np.pi, rel=1e-12)


def test_idler_wavelength_table_values():
    assert idler_wavelength(519.0, 780.0) == pytest.approx(1551.03, abs=0.01)
    assert idler_wavelength(519.0, 775.0) == pytest.approx(1571.19, abs=0.01)
    assert idler_wavelength(519.0, 780.0) == pytest.approx(IDLER_1_NM, rel=1e-12)
    assert idler_wavelength(519.0, 775.0) == pytest.approx(IDLER_2_NM, rel=1e-12)


def test_idler_wavelength_degenerate_point():
    assert idler_wavelength(650.0, 1300.0) == pytest.approx(1300.0, rel=1e-12)


def test_idler_wavelength_rejects_non_downconversion():
    with pytest.raises(DownConversionError):
        idler_wavelength(519.0, 519.0)
    with pytest.raises(DownConversionError):
        idler_wavelength(519.0, 400.0)


# Before these checks: a ZeroDivisionError, "ValueError: cannot convert float
# NaN to integer", a NaN idler and a SpanTooNarrowError suggesting "try nan nm".
@pytest.mark.parametrize("case", ["fwhm-zero-length", "poling-nan-period", "idler-nan-signal",
                                  "scan-nan-length"])
def test_library_boundary_rejects_a_bad_number_by_name(design_type0_10, case):
    process = design_type0_10.process_1
    field, call = {
        "fwhm-zero-length": ("length_cm", lambda: estimate_fwhm_nm(process, "signal", 0.0)),
        "poling-nan-period": ("period1_um", lambda: synthesize_poling(math.nan, 6.8, 1.0)),
        "idler-nan-signal": ("signal_nm", lambda: idler_wavelength(519.0, math.nan)),
        "scan-nan-length": ("length_cm",
                            lambda: spectrum_scan(process, "signal", 6.0, 101, math.nan)),
    }[case]
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite and positive, "
                                                 "got (nan|0.0)$") as raised:
        call()
    assert raised.value.field == field


def test_idler_wavelength_elementwise_over_arrays():
    signals = np.array([700.0, 780.0, 1038.0, 2000.0])
    idlers = idler_wavelength(519.0, signals)
    assert idlers.tolist() == [idler_wavelength(519.0, float(s)) for s in signals]
    with pytest.raises(DownConversionError, match="signal 519 nm"):
        idler_wavelength(519.0, np.array([780.0, 519.0, 800.0]))


@given(
    pump=st.floats(min_value=300.0, max_value=1000.0),
    ratio=st.floats(min_value=1.0001, max_value=20.0),
)
@settings(max_examples=300)
def test_idler_energy_conservation_identity(pump, ratio):
    signal = pump * ratio
    idler = idler_wavelength(pump, signal)
    residual = 1.0 / pump - 1.0 / signal - 1.0 / idler
    assert abs(residual) * pump <= 1e-9


def test_qpm_period_requires_positive_mismatch():
    with pytest.raises(PhaseMatchingError):
        qpm_period(2.0, 2.0, 2.0, 500.0, 1000.0, 1000.0)


def test_qpm_period_scale():
    # n_p/l_p - n_s/l_s - n_i/l_i = 0.1 per um -> 10 um period
    period = qpm_period(2.25, 2.20, 2.15, 500.0, 1000.0, 1000.0)
    expected = 1.0 / (2.25 / 0.5 - 2.20 / 1.0 - 2.15 / 1.0)
    assert period == pytest.approx(expected, rel=1e-12)


def test_process_validation():
    # signal must be the shorter wavelength of the pair
    with pytest.raises(ConfigurationError, match="shorter"):
        SpdcProcess(500.0, 1800.0, E, E, E, 2.3, 2.25, 2.2)


@pytest.mark.parametrize("changes", [dict(signal_nm=880.0), dict(pump_nm=510.0),
                                     dict(n_pump=2.31), dict(n_signal=2.26), dict(n_idler=2.19)],
                         ids=lambda changes: next(iter(changes)))
def test_a_replaced_process_derives_its_idler_and_period(changes):
    # before, the idler and period were arguments: replacing a wavelength kept
    # the old idler and failed the energy-conservation check, and replacing
    # an index kept the old period
    process = synthetic_process()
    moved = dataclasses.replace(process, **changes)
    fresh = SpdcProcess(**{**dict(pump_nm=500.0, signal_nm=900.0, pump_pol=E, signal_pol=E,
                                  idler_pol=E, n_pump=2.30, n_signal=2.25, n_idler=2.20),
                           **changes})
    assert (moved.idler_nm, moved.qpm_period_um) == (fresh.idler_nm, fresh.qpm_period_um)
    assert moved.idler_nm == idler_wavelength(moved.pump_nm, moved.signal_nm)
    assert moved.qpm_period_um == qpm_period(moved.n_pump, moved.n_signal, moved.n_idler,
                                             moved.pump_nm, moved.signal_nm, moved.idler_nm)
    assert moved.qpm_period_um != process.qpm_period_um
    assert moved == fresh != process


def test_a_process_takes_no_idler_or_period():
    process = synthetic_process()
    for name, value in (("idler_nm", process.idler_nm), ("qpm_period_um", process.qpm_period_um)):
        with pytest.raises(TypeError, match=name):
            SpdcProcess(500.0, 900.0, E, E, E, 2.30, 2.25, 2.20, **{name: value})
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(process, **{name: value})


def test_phase_mismatch_zero_at_design_point(design_type0_10):
    process = design_type0_10.process_1
    solver = EffectiveIndexSolver(DEFAULT_MATERIAL, design_type0_10.request.geometry)
    assert abs(phase_mismatch(process, process.signal_nm)) < 1.0
    assert abs(phase_mismatch(process, process.signal_nm, solver.index)) < 1.0


def test_phase_mismatch_odd_to_first_order(design_type0_10):
    process = design_type0_10.process_1
    delta = 0.05
    plus = phase_mismatch(process, process.signal_nm + delta)
    minus = phase_mismatch(process, process.signal_nm - delta)
    assert plus == pytest.approx(-minus, rel=1e-2)


def test_phase_mismatch_matches_finite_difference_oracle(design_type0_10):
    # first-order expansion built from independently solved half-detuning
    # points must reproduce the 1 nm dispersive mismatch to 1%
    process = design_type0_10.process_1
    solver = EffectiveIndexSolver(DEFAULT_MATERIAL, design_type0_10.request.geometry)
    full = phase_mismatch(process, process.signal_nm + 1.0, solver.index)
    half = phase_mismatch(process, process.signal_nm + 0.5, solver.index)
    assert full == pytest.approx(2.0 * half, rel=1e-2)


def test_coupling_amplitude_sinc_behaviour():
    process = synthetic_process()
    matched = CouplingAmplitude(process, 0.05, 0.0, 1.0)
    assert matched.sinc_factor == 1.0
    assert matched.magnitude == matched.base_magnitude

    first_null_dk = 2.0 * np.pi / 0.01  # dk L / 2 = pi at L = 1 cm
    null = CouplingAmplitude(process, 0.05, first_null_dk, 1.0)
    assert abs(null.sinc_factor) < 1e-12
    assert null.magnitude < 1e-12


def test_coupling_amplitude_frequency_scaling():
    # halving both pair wavelengths quadruples the frequency product
    slow = SpdcProcess(500.0, 900.0, E, E, E, 2.3, 2.25, 2.2)
    fast = SpdcProcess(250.0, 450.0, E, E, E, 2.3, 2.25, 2.2)
    a_slow = CouplingAmplitude(slow, 0.05, 0.0, 1.0)
    a_fast = CouplingAmplitude(fast, 0.05, 0.0, 1.0)
    assert a_fast.magnitude == pytest.approx(2.0 * a_slow.magnitude, rel=1e-12)


def test_coupling_amplitude_phase_reconstruction():
    process = synthetic_process()
    dk = 100.0
    amp = CouplingAmplitude(process, 0.05, dk, 1.0)
    value = amp.complex_value()
    assert abs(value) == pytest.approx(amp.magnitude, rel=1e-12)
    assert np.angle(-value) == pytest.approx(-0.5 * dk * 1e-2, rel=1e-9)


@pytest.mark.parametrize("changes", [dict(process=SpdcProcess(250.0, 450.0, E, E, E, 2.3, 2.25,
                                                                 2.2)),
                                     dict(overlap_per_um=-0.07), dict(delta_k_rad_per_m=250.0),
                                     dict(length_cm=2.5)],
                         ids=lambda changes: next(iter(changes)))
def test_a_replaced_amplitude_derives_its_magnitudes(changes):
    # before, the magnitudes were arguments: replacing an input kept the old
    # magnitudes, and replacing a magnitude took any number
    amplitude = CouplingAmplitude(synthetic_process(), 0.05, 100.0, 1.0)
    moved = dataclasses.replace(amplitude, **changes)
    fresh = CouplingAmplitude(**{**dict(process=synthetic_process(), overlap_per_um=0.05,
                                        delta_k_rad_per_m=100.0, length_cm=1.0), **changes})
    derived = ("base_magnitude", "sinc_factor", "magnitude")
    assert [getattr(moved, name) for name in derived] == [getattr(fresh, name) for name in derived]
    assert moved.magnitude == moved.base_magnitude * abs(moved.sinc_factor)
    assert moved.magnitude != amplitude.magnitude
    assert moved == fresh != amplitude


def test_an_amplitude_takes_no_magnitudes():
    amplitude = CouplingAmplitude(synthetic_process(), 0.05, 0.0, 1.0)
    for name in ("base_magnitude", "sinc_factor", "magnitude"):
        with pytest.raises(TypeError, match=name):
            CouplingAmplitude(synthetic_process(), 0.05, 0.0, 1.0, **{name: 1.0})
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(amplitude, **{name: 1.0})


def test_degree_of_entanglement_limits():
    x = synthetic_amplitude(0.7)
    assert degree_of_entanglement(x, x) == 1.0
    zero = synthetic_amplitude(0.0)
    assert degree_of_entanglement(zero, x) == 0.0
    with pytest.raises(AmplitudeUndefinedError):
        degree_of_entanglement(zero, zero)


@given(
    m1=st.floats(min_value=1e-6, max_value=1e3),
    m2=st.floats(min_value=1e-6, max_value=1e3),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=200)
def test_degree_of_entanglement_properties(m1, m2, scale):
    a1, a2 = synthetic_amplitude(m1), synthetic_amplitude(m2)
    gamma = degree_of_entanglement(a1, a2)
    assert 0.0 <= gamma <= 1.0
    assert degree_of_entanglement(a2, a1) == gamma
    scaled = degree_of_entanglement(synthetic_amplitude(scale * m1),
                                    synthetic_amplitude(scale * m2))
    assert scaled == pytest.approx(gamma, rel=1e-9)


def test_state_weights_and_entropy_limits():
    x = synthetic_amplitude(0.7)
    weights, entropy = state_weights_and_entropy(x, x)
    assert weights == (0.5, 0.5)
    assert entropy == 1.0
    weights, entropy = state_weights_and_entropy(x, synthetic_amplitude(0.0))
    assert weights == (1.0, 0.0)
    assert entropy == 0.0


def test_state_weights_and_entropy_hand_value():
    a1 = synthetic_amplitude(1.0)
    a2 = synthetic_amplitude(0.9817)
    (p1, p2), entropy = state_weights_and_entropy(a1, a2)
    assert p1 + p2 == pytest.approx(1.0, abs=1e-15)
    assert p2 == pytest.approx(WEIGHT2_AT_GAMMA_9817, rel=1e-9)
    assert entropy == pytest.approx(ENTROPY_AT_GAMMA_9817, rel=1e-9)


def test_entropy_monotone_in_gamma():
    gammas = np.linspace(0.01, 1.0, 100)
    entropies = []
    for g in gammas:
        _, h = state_weights_and_entropy(synthetic_amplitude(1.0), synthetic_amplitude(g))
        entropies.append(h)
    assert np.all(np.diff(entropies) > 0.0)
    assert entropies[-1] == 1.0


def reduced_signal_eigenvalues(a1, a2):
    """Eigenvalues, ascending, of the signal's reduced density matrix of the
    normalised state C1|s1,i1> + C2|s2,i2> in the 2x2 frequency-bin product
    space, basis |s_j, i_k> at index 2 j + k."""
    state = np.array([a1.complex_value(), 0.0, 0.0, a2.complex_value()])
    state /= np.linalg.norm(state)
    rho = np.outer(state, state.conj()).reshape(2, 2, 2, 2)
    return np.linalg.eigvalsh(np.einsum("ikjk->ij", rho))


def test_weights_entropy_and_gamma_are_those_of_the_two_pair_state(design_type0_10,
                                                                    design_type2_65):
    # the maximally entangled state, both shipped designs and seeded random
    # pairs with phases: eigenvalues of the traced-out state against the weights,
    # their entropy and sqrt(lambda_min / lambda_max) against gamma
    equal = synthetic_amplitude(0.7)
    pairs = [(equal, equal)]
    rng = np.random.default_rng(4747)
    process = synthetic_process()
    for overlap_1, overlap_2, dk_1, dk_2 in rng.uniform(-1.0, 1.0, size=(20, 4)).tolist():
        pairs.append((CouplingAmplitude(process, overlap_1, 300.0 * dk_1, 1.0),
                      CouplingAmplitude(process, overlap_2, 300.0 * dk_2, 1.0)))
    cases = [(a1, a2, state_weights_and_entropy(a1, a2)[1], degree_of_entanglement(a1, a2))
             for a1, a2 in pairs]
    cases += [(d.amplitude_1, d.amplitude_2, d.entropy_bits, d.gamma)
              for d in (design_type0_10, design_type2_65)]
    assert cases[0][2:] == (1.0, 1.0)
    for a1, a2, entropy, gamma in cases:
        low, high = reduced_signal_eigenvalues(a1, a2)
        weights, _ = state_weights_and_entropy(a1, a2)
        assert sorted(weights) == pytest.approx([low, high], rel=0.0, abs=1e-12)
        oracle = -sum(p * math.log2(p) for p in (low, high) if p > 0.0)
        assert entropy == pytest.approx(oracle, rel=0.0, abs=1e-12)
        assert gamma == pytest.approx(math.sqrt(low / high), rel=0.0, abs=1e-12)


def test_spectrum_center_gain_and_symmetry(design_type0_10):
    process = design_type0_10.process_1
    spectrum = spectrum_scan(process, "signal", 6.0, 1001, 1.0)
    center_index = np.argmin(np.abs(spectrum.wavelengths_nm - spectrum.center_nm))
    assert spectrum.gain[center_index] == pytest.approx(1.0, abs=1e-6)
    assert np.all((spectrum.gain >= 0.0) & (spectrum.gain <= 1.0))
    # symmetric about the center to first order in detuning
    step = 25
    left = spectrum.gain[center_index - step]
    right = spectrum.gain[center_index + step]
    assert left == pytest.approx(right, abs=2e-3)


def test_spectrum_fwhm_against_slope_estimate(design_type0_10):
    process = design_type0_10.process_1
    spectrum = spectrum_scan(process, "signal", 6.0, 2001, 1.0)
    assert spectrum.fwhm_nm == pytest.approx(estimate_fwhm_nm(process, "signal", 1.0), rel=1e-3)


@pytest.mark.parametrize("fixture", ["design_type0_10", "design_type2_65"])
@pytest.mark.parametrize("axis", ["signal", "idler"])
def test_fwhm_estimate_slope_matches_finite_difference(request, fixture, axis):
    # 5-point central difference of the frozen-index mismatch, h = 0.5 nm
    h = 0.5
    result = request.getfixturevalue(fixture)
    for process in (result.process_1, result.process_2):
        center = process.signal_nm if axis == "signal" else process.idler_nm
        lams = center + h * np.array([-2.0, -1.0, 1.0, 2.0])
        signals = lams if axis == "signal" else idler_wavelength(process.pump_nm, lams)
        dk = phase_mismatch(process, signals)
        slope = (dk[0] - 8.0 * dk[1] + 8.0 * dk[2] - dk[3]) / (12.0 * h)
        expected = 4.0 * HALF_MAX_ARG / (1e-2 * abs(slope))
        assert estimate_fwhm_nm(process, axis, 1.0) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("axis", ["signal", "idler"])
def test_fwhm_estimate_of_a_flat_mismatch_is_a_phase_matching_error(axis):
    # with n_signal == n_idler the frozen-index mismatch has no slope on either axis
    process = SpdcProcess(500.0, 900.0, E, E, E, 2.30, 2.25, 2.25)
    with pytest.raises(PhaseMatchingError, match="flat mismatch"):
        estimate_fwhm_nm(process, axis, 1.0)


def test_spectrum_first_null_placement(design_type0_10):
    # gain falls to zero where dk L / 2 = pi, i.e. at half-max-arg/pi of the
    # FWHM beyond the half-maximum point
    process = design_type0_10.process_1
    spectrum = spectrum_scan(process, "signal", 8.0, 4001, 1.0)
    from dppln.spdc import HALF_MAX_ARG

    null_offset = 0.5 * spectrum.fwhm_nm * np.pi / HALF_MAX_ARG
    target = spectrum.center_nm + null_offset
    idx = np.argmin(np.abs(spectrum.wavelengths_nm - target))
    assert spectrum.gain[idx] < 1e-4


def test_spectrum_span_too_narrow(design_type0_10):
    process = design_type0_10.process_1
    with pytest.raises(SpanTooNarrowError) as info:
        spectrum_scan(process, "signal", 0.2, 101, 1.0)
    assert info.value.suggested_span_nm > 0.2


@pytest.mark.parametrize("delta_n,capped", [(1e-3, False), (2.2e-4, True)])
def test_spectrum_span_suggestion_stays_clear_of_the_pump(delta_n, capped):
    # a 1000 nm signal of a 519 nm pump: spans must stay below 962 nm.  The
    # estimated FWHM is 89 nm or 403 nm, so 3 x FWHM fits or must be capped
    e = Polarization.EXTRAORDINARY
    process = SpdcProcess(519.0, 1000.0, e, e, e, 2.22, 2.16, 2.16 - delta_n)
    with pytest.raises(SpanTooNarrowError) as info:
        spectrum_scan(process, "signal", 1.0, 1001, 1.0)
    suggestion = info.value.suggested_span_nm
    assert suggestion > estimate_fwhm_nm(process, "signal", 1.0)
    assert ("try at least" in str(info.value)) is not capped
    printed = float(re.search(r"try (?:at least )?(\S+) nm", str(info.value)).group(1))
    for span in (suggestion, printed):  # neither reaches the pump
        assert spectrum_scan(process, "signal", span, 1001, 1.0).fwhm_nm > 0.0


def test_spectrum_too_wide_for_any_span_clear_of_the_pump_suggests_none():
    e = Polarization.EXTRAORDINARY
    process = SpdcProcess(519.0, 1000.0, e, e, e, 2.22, 2.16, 2.16 - 5e-5)
    assert estimate_fwhm_nm(process, "signal", 1.0) > 962.0
    with pytest.raises(SpanTooNarrowError, match="no span clear of the pump") as info:
        spectrum_scan(process, "signal", 10.0, 1001, 1.0)
    assert info.value.suggested_span_nm is None
    assert "try" not in str(info.value)


def test_spectrum_design_point_gain_equals_per_sample_loop(design_type0_10):
    # the vectorised scan does the per-sample arithmetic elementwise, so it
    # reproduces the scalar loop exactly, with frozen or re-evaluated indices
    solver = EffectiveIndexSolver(DEFAULT_MATERIAL, design_type0_10.request.geometry)
    for index_model, provider in (("design-point", None), ("dispersive", solver.index)):
        for process in (design_type0_10.process_1, design_type0_10.process_2):
            for axis, center in (("signal", process.signal_nm), ("idler", process.idler_nm)):
                spectrum = spectrum_scan(process, axis, 12.0, 401, 1.0, index_provider=provider,
                                         index_model=index_model)
                grid = np.linspace(center - 6.0, center + 6.0, 401)
                signals = grid if axis == "signal" else [
                    idler_wavelength(process.pump_nm, float(lam)) for lam in grid]
                dk = np.array([phase_mismatch(process, float(lam), provider) for lam in signals])
                assert np.array_equal(spectrum.gain, sinc(0.5 * dk * 1e-2) ** 2)


def test_spectrum_span_reaching_the_pump_is_config_error(design_type0_10):
    process = design_type0_10.process_1
    for axis, limit in (("signal", "522"), ("idler", "2064.07")):
        with pytest.raises(ConfigurationError, match=f"span_nm .* below {limit} nm"):
            spectrum_scan(process, axis, 2100.0, 101, 1.0)


def test_spectrum_requires_minimum_samples(design_type0_10):
    with pytest.raises(ConfigurationError):
        spectrum_scan(design_type0_10.process_1, "signal", 6.0, 51, 1.0)
    with pytest.raises(ConfigurationError):
        spectrum_scan(design_type0_10.process_1, "pump", 6.0, 101, 1.0)


def test_spectrum_dispersive_model_is_narrower(design_type0_10):
    # waveguide + material dispersion of the detuned waves steepens the
    # mismatch slope, so the dispersive bandwidth shrinks well below the
    # design-point figure
    process = design_type0_10.process_1
    solver = EffectiveIndexSolver(DEFAULT_MATERIAL, design_type0_10.request.geometry)
    spectrum = spectrum_scan(process, "signal", 3.0, 101, 1.0,
                             index_provider=solver.index, index_model="dispersive")
    assert 0.3 < spectrum.fwhm_nm < 0.9
    assert spectrum.fwhm_nm < 0.7 * design_type0_10.spectra["signal_1"].fwhm_nm


@pytest.mark.parametrize("fixture", ["design_type0_10", "design_type2_65"])
@pytest.mark.parametrize("axis", ["signal", "idler"])
def test_dispersive_spectrum_matches_nelder_mead_provider(request, fixture, axis):
    # the shipped configs' geometries, each axis, 101 samples: the Newton
    # n_eff path against per-sample Nelder-Mead mode solves
    result = request.getfixturevalue(fixture)
    process, length = result.process_1, result.request.geometry.length_cm
    solver = EffectiveIndexSolver(DEFAULT_MATERIAL, result.request.geometry)
    # cached, so the scan and the mismatch check share each mode solve
    providers = (functools.cache(solver.index),
                 functools.cache(lambda lam, pol: solver.solve(lam, pol).n_eff))
    span = 3.0 * estimate_fwhm_nm(process, axis, length)
    newton, nelder_mead = (spectrum_scan(process, axis, span, 101, length, index_provider=p,
                                         index_model="dispersive") for p in providers)
    signals = (newton.wavelengths_nm if axis == "signal"
               else idler_wavelength(process.pump_nm, newton.wavelengths_nm))
    dk = np.array([[phase_mismatch(process, lam, p) for lam in signals] for p in providers])
    assert np.max(np.abs(dk[0] - dk[1])) <= 1e-6
    assert newton.fwhm_nm == pytest.approx(nelder_mead.fwhm_nm, rel=1e-9, abs=0.0)


def test_dispersive_scan_runs_no_nelder_mead(monkeypatch, design_type0_10):
    lanes = []  # one Nelder-Mead run per lock-step lane
    original = mode_solver._nelder_mead_steps

    def counted(simplex, **options):
        lanes.append(simplex)
        return original(simplex, **options)

    monkeypatch.setattr(mode_solver, "_nelder_mead_steps", counted)
    solver = EffectiveIndexSolver(DEFAULT_MATERIAL, design_type0_10.request.geometry)
    spectrum_scan(design_type0_10.process_1, "signal", 3.0, 101, 1.0,
                  index_provider=solver.index, index_model="dispersive")
    assert lanes == []
    design(design_type0_10.request)
    assert len(lanes) == 5


def test_spectrum_dispersive_requires_provider(design_type0_10):
    with pytest.raises(ConfigurationError):
        spectrum_scan(design_type0_10.process_1, "signal", 3.0, 101, 1.0,
                      index_model="dispersive")


def test_distinguishability_identical_spectra(design_type0_10):
    s = design_type0_10.spectra["signal_1"]
    ok, margin = spectral_distinguishability(s, s)
    assert not ok
    assert margin < 0.0


def test_distinguishability_role_mismatch(design_type0_10):
    with pytest.raises(ConsistencyError):
        spectral_distinguishability(
            design_type0_10.spectra["signal_1"], design_type0_10.spectra["idler_1"]
        )


def test_distinguishability_of_design_signals(design_type0_10):
    ok, margin = spectral_distinguishability(
        design_type0_10.spectra["signal_1"], design_type0_10.spectra["signal_2"]
    )
    assert ok
    assert margin > 0.0


@pytest.mark.parametrize("case", ["scan-axis", "fwhm-axis", "scan-few-samples",
                                  "scan-many-samples", "scan-nan-samples", "scan-float-samples",
                                  "scan-index-model", "scan-no-provider"])
def test_scan_and_bandwidth_argument_errors_name_their_field(design_type0_10, case):
    # before, estimate_fwhm_nm gave the idler width on any axis but "signal",
    # samples=nan raised TypeError and these errors had no field
    process = design_type0_10.process_1
    field, call = {
        "scan-axis": ("axis", lambda: spectrum_scan(process, "pump", 6.0, 101, 1.0)),
        "fwhm-axis": ("axis", lambda: estimate_fwhm_nm(process, "pump", 1.0)),
        "scan-few-samples": ("samples", lambda: spectrum_scan(process, "signal", 6.0, 100, 1.0)),
        "scan-many-samples": ("samples",
                              lambda: spectrum_scan(process, "signal", 6.0, 1_000_001, 1.0)),
        "scan-nan-samples": ("samples",
                             lambda: spectrum_scan(process, "signal", 6.0, math.nan, 1.0)),
        "scan-float-samples": ("samples",
                               lambda: spectrum_scan(process, "signal", 6.0, 101.0, 1.0)),
        "scan-index-model": ("index_model", lambda: spectrum_scan(process, "signal", 6.0, 101,
                                                                  1.0, index_model="flat")),
        "scan-no-provider": ("index_provider", lambda: spectrum_scan(
            process, "signal", 6.0, 101, 1.0, index_model="dispersive")),
    }[case]
    with pytest.raises(ConfigurationError) as raised:
        call()
    assert raised.value.field == field


def test_entanglement_metrics_scale_exactly(design_type0_10):
    # before, magnitudes of 1e300 overflowed the weights to nan; scaling both
    # overlaps by a power of two scales both magnitudes and changes no bit
    a1, a2 = design_type0_10.amplitude_1, design_type0_10.amplitude_2
    for scale in (2.0**-1000, 2.0**1000):
        scaled = [dataclasses.replace(a, overlap_per_um=a.overlap_per_um * scale) for a in (a1, a2)]
        assert [a.magnitude for a in scaled] == [a1.magnitude * scale, a2.magnitude * scale]
        assert degree_of_entanglement(*scaled) == degree_of_entanglement(a1, a2)
        assert state_weights_and_entropy(*scaled) == state_weights_and_entropy(a1, a2)
    with pytest.raises(AmplitudeUndefinedError):
        state_weights_and_entropy(dataclasses.replace(a1, overlap_per_um=0.0),
                                  dataclasses.replace(a2, overlap_per_um=0.0))


@pytest.mark.parametrize("field, call", [
    ("n_s", lambda p: qpm_period(p.n_pump, math.nan, p.n_idler, p.pump_nm, p.signal_nm,
                                 p.idler_nm)),
    ("pump_nm", lambda p: qpm_period(p.n_pump, p.n_signal, p.n_idler, 0.0, p.signal_nm,
                                     p.idler_nm)),
    ("n_i", lambda p: SpdcProcess(p.pump_nm, p.signal_nm, E, E, E, p.n_pump, p.n_signal,
                                  math.nan)),
    ("overlap_per_um", lambda p: CouplingAmplitude(p, math.nan, 0.0, 1.0)),
    ("delta_k_rad_per_m", lambda p: CouplingAmplitude(p, 0.1, math.inf, 1.0)),
    ("length_cm", lambda p: synthesize_poling(6.8, 6.9, 1e300)),
    ("period1_um", lambda p: synthesize_poling(1e-300, 6.9, 1.0)),
    pytest.param("length_cm", lambda p: CouplingAmplitude(p, 0.1, 0.0, 0.0),
                 id="amplitude-length_cm"),
    # n_s n_i underflows to zero, and to a subnormal that the overlap overflows
    pytest.param("base_magnitude", lambda p: CouplingAmplitude(
        dataclasses.replace(p, n_signal=1e-300, n_idler=1e-300), 0.1, 0.0, 1.0),
                 id="base_magnitude-n-product-zero"),
    pytest.param("base_magnitude", lambda p: CouplingAmplitude(
        dataclasses.replace(p, n_signal=1e-160, n_idler=1e-160), 0.1, 0.0, 1.0),
                 id="base_magnitude-overflow"),
])
def test_periods_and_amplitudes_reject_a_bad_number_by_name(design_type0_10, field, call):
    # before, these returned nan, raised ZeroDivisionError (also for an n_s n_i
    # that underflows), built an SpdcProcess with a nan period, reached
    # np.arange with 1e304 cells or built an amplitude of infinite magnitude
    with pytest.raises(ConfigurationError) as raised:
        call(design_type0_10.process_1)
    assert raised.value.field == field
