"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure).  Reference values are the published design tables and spectra for
the 519 nm -> (780, 1551.03) + (775, 1571.19) nm dual-period source.
"""

import time

import numpy as np
import pytest

from dppln import (
    CouplingAmplitude,
    IDEAL_HARMONIC_AMPLITUDE,
    Polarization,
    Scheme,
    SpdcProcess,
    degree_of_entanglement,
    field_overlap,
    idler_wavelength,
    poling_fourier_coefficient,
    rayleigh_quotient,
    sinc,
    solve_mode,
    spectral_distinguishability,
    state_weights_and_entropy,
    synthesize_poling,
)
from conftest import TABLE_SIZES, request_for
from dppln.design_search import design
from test_mode_solver import (
    adaptive_overlap_oracle,
    dense_overlap_oracle,
    dense_rq_oracle,
    random_profiles,
)

E = Polarization.EXTRAORDINARY

# Reference rows: size -> (gamma, period_1 um, period_2 um).
TABLE_TYPE0 = {
    6.5: (0.9351, 6.7874, 6.8228),
    8.0: (0.9750, 6.7903, 6.8251),
    10.0: (0.9817, 6.7969, 6.8316),
    12.0: (0.9842, 6.8027, 6.8374),
}
TABLE_TYPE2 = {
    6.5: (0.9975, 4.5672, 3.6412),
    8.0: (0.9876, 4.5691, 3.6421),
    10.0: (0.9866, 4.5726, 3.6440),
    12.0: (0.9864, 4.5755, 3.6457),
}

# Reference FWHM bandwidths in nm at L = 1 cm.
BANDWIDTHS_TYPE0_10UM = {"signal_1": 1.467, "signal_2": 1.407,
                         "idler_1": 5.799, "idler_2": 5.788}
BANDWIDTHS_TYPE2_65UM = {"signal_1": 0.499, "signal_2": 1.952,
                         "idler_1": 1.972, "idler_2": 8.032}


def _report(name, checks):
    """Print one PASS/FAIL line; `checks` is a list of (ok, detail)."""
    failures = [detail for ok, detail in checks if not ok]
    status = "FAIL" if failures else "PASS"
    print(f"{status} {name}" + (f" -- {'; '.join(failures)}" if failures else ""))
    assert not failures, f"{name}: {failures}"


def test_criterion_1_energy_conservation():
    checks = []
    checks.append((abs(idler_wavelength(519.0, 780.0) - 1551.03) <= 0.01,
                   "idler(519, 780) != 1551.03 +- 0.01 nm"))
    checks.append((abs(idler_wavelength(519.0, 775.0) - 1571.19) <= 0.01,
                   "idler(519, 775) != 1571.19 +- 0.01 nm"))
    rng = np.random.default_rng(12345)
    pumps = rng.uniform(300.0, 1200.0, 1000)
    signals = pumps * rng.uniform(1.0001, 20.0, 1000)
    worst = 0.0
    for pump, signal in zip(pumps, signals):
        idler = idler_wavelength(pump, signal)
        worst = max(worst, abs(1.0 / pump - 1.0 / signal - 1.0 / idler) * pump)
    checks.append((worst <= 1e-9, f"identity residual {worst:.2e} above 1e-9 relative"))
    _report("criterion 1: energy conservation", checks)


def test_criterion_2_copolarized_table():
    start = time.perf_counter()
    results = {size: design(request_for(Scheme.TYPE0_EEE, size)) for size in TABLE_SIZES}
    elapsed = time.perf_counter() - start

    checks = []
    for size, (gamma_ref, p1_ref, p2_ref) in TABLE_TYPE0.items():
        r = results[size]
        checks.append((abs(r.period1_um / p1_ref - 1.0) <= 0.015,
                       f"period_1({size}) {r.period1_um:.4f} not within 1.5% of {p1_ref}"))
        checks.append((abs(r.period2_um / p2_ref - 1.0) <= 0.015,
                       f"period_2({size}) {r.period2_um:.4f} not within 1.5% of {p2_ref}"))
        checks.append((abs(r.gamma - gamma_ref) <= 0.05,
                       f"gamma({size}) {r.gamma:.4f} not within 0.05 of {gamma_ref}"))
    gammas = [results[s].gamma for s in TABLE_SIZES]
    checks.append((all(a < b for a, b in zip(gammas, gammas[1:])),
                   f"gamma not strictly increasing with size: {gammas}"))
    for attr in ("period1_um", "period2_um"):
        periods = [getattr(results[s], attr) for s in TABLE_SIZES]
        checks.append((all(a < b for a, b in zip(periods, periods[1:])),
                       f"{attr} not strictly increasing with size: {periods}"))
    checks.append((elapsed < 60.0, f"four designs took {elapsed:.1f} s (limit 60 s)"))
    _report(f"criterion 2: co-polarized table ({elapsed:.1f} s)", checks)


def test_criterion_3_crosspolarized_table():
    results = {size: design(request_for(Scheme.TYPE2_CROSS, size)) for size in TABLE_SIZES}
    checks = []
    for size, (gamma_ref, p1_ref, p2_ref) in TABLE_TYPE2.items():
        r = results[size]
        checks.append((abs(r.period1_um / p1_ref - 1.0) <= 0.02,
                       f"period_1({size}) {r.period1_um:.4f} not within 2% of {p1_ref}"))
        checks.append((abs(r.period2_um / p2_ref - 1.0) <= 0.02,
                       f"period_2({size}) {r.period2_um:.4f} not within 2% of {p2_ref}"))
        checks.append((abs(r.gamma - gamma_ref) <= 0.05,
                       f"gamma({size}) {r.gamma:.4f} not within 0.05 of {gamma_ref}"))
        checks.append((r.period1_um > r.period2_um,
                       f"period_1({size}) not larger than period_2"))
    gammas = [results[s].gamma for s in TABLE_SIZES]
    checks.append((all(a > b for a, b in zip(gammas, gammas[1:])),
                   f"gamma not strictly decreasing with size: {gammas}"))
    _report("criterion 3: cross-polarized table", checks)


def test_criterion_4_bandwidths(design_type0_10, design_type2_65):
    checks = []
    for key, reference in BANDWIDTHS_TYPE0_10UM.items():
        value = design_type0_10.spectra[key].fwhm_nm
        checks.append((abs(value / reference - 1.0) <= 0.15,
                       f"type-0 {key} FWHM {value:.3f} nm not within 15% of {reference}"))
    for key, reference in BANDWIDTHS_TYPE2_65UM.items():
        value = design_type2_65.spectra[key].fwhm_nm
        checks.append((abs(value / reference - 1.0) <= 0.20,
                       f"type-II {key} FWHM {value:.3f} nm not within 20% of {reference}"))
    for result in (design_type0_10, design_type2_65):
        for s_key, i_key in (("signal_1", "idler_1"), ("signal_2", "idler_2")):
            ws = result.spectra[s_key].angular_frequency_fwhm()
            wi = result.spectra[i_key].angular_frequency_fwhm()
            checks.append((abs(ws / wi - 1.0) <= 0.02,
                           f"{s_key}/{i_key} angular-frequency FWHMs differ by "
                           f"{abs(ws / wi - 1.0):.3%}"))
    _report("criterion 4: bandwidths", checks)


def test_criterion_5_spectral_distinguishability(design_type0_10, design_type2_65):
    checks = []
    ok0, margin0 = spectral_distinguishability(
        design_type0_10.spectra["signal_1"], design_type0_10.spectra["signal_2"]
    )
    checks.append((ok0 and margin0 > 0.0,
                   f"type-0 signal spectra overlap (margin {margin0:.3f} nm)"))
    ok2, margin2 = spectral_distinguishability(
        design_type2_65.spectra["signal_1"], design_type2_65.spectra["signal_2"]
    )
    checks.append((ok2 and margin2 > 0.0,
                   f"type-II signal spectra fail the window criterion "
                   f"(margin {margin2:.3f} nm)"))
    _report("criterion 5: spectral distinguishability", checks)


def test_criterion_6_oracle_suites(design_type0_10):
    checks = []
    rng = np.random.default_rng(99)
    for index, profile in enumerate(random_profiles(5, seed=424242)):
        lam = float(rng.uniform(600.0, 1600.0))
        ay, az = float(rng.uniform(0.4, 3.0)), float(rng.uniform(0.4, 3.0))
        fast = rayleigh_quotient(profile, lam, ay, az)
        oracle = dense_rq_oracle(profile, lam, ay, az)
        checks.append((abs(fast / oracle - 1.0) <= 1e-6,
                       f"Rayleigh quotient vs dense grid off by "
                       f"{abs(fast / oracle - 1.0):.2e} on profile {index}"))
        modes = [
            solve_mode(profile, lam * factor, E) for factor in (0.7, 1.0, 1.4)
        ]
        overlap = field_overlap(*modes)
        overlap_oracle = dense_overlap_oracle(*modes)
        checks.append((abs(overlap / overlap_oracle - 1.0) <= 1e-6,
                       f"overlap vs dense grid off by "
                       f"{abs(overlap / overlap_oracle - 1.0):.2e} on profile {index}"))
        adaptive = adaptive_overlap_oracle(*modes)
        checks.append((abs(overlap / adaptive - 1.0) <= 3e-14,
                       f"overlap vs adaptive quadrature off by "
                       f"{abs(overlap / adaptive - 1.0):.2e} on profile {index}"))

    pattern = synthesize_poling(
        design_type0_10.period1_um, design_type0_10.period2_um, 1.0
    )
    f1 = poling_fourier_coefficient(pattern, 2.0 * np.pi / design_type0_10.period1_um)
    f2 = poling_fourier_coefficient(pattern, 2.0 * np.pi / design_type0_10.period2_um)
    checks.append((abs(f1 / IDEAL_HARMONIC_AMPLITUDE - 1.0) <= 0.10,
                   f"|F(K1)| = {f1:.4f} not within 10% of 4/pi^2"))
    checks.append((abs(f2 / IDEAL_HARMONIC_AMPLITUDE - 1.0) <= 0.10,
                   f"|F(K2)| = {f2:.4f} not within 10% of 4/pi^2"))
    checks.append((abs(f1 / f2 - 1.0) <= 0.05,
                   f"|F(K1)| and |F(K2)| differ by {abs(f1 / f2 - 1.0):.3%}"))
    _report("criterion 6: oracle suites", checks)


def test_criterion_7_property_suites(type0_designs, type2_designs):
    start = time.perf_counter()
    checks = []

    def amplitude_of(magnitude):
        process = SpdcProcess(500.0, 900.0, E, E, E, 2.30, 2.25, 2.20)
        unit = CouplingAmplitude(process, 1.0, 0.0, 1.0)
        return CouplingAmplitude(process, magnitude / unit.magnitude, 0.0, 1.0)

    rng = np.random.default_rng(2024)
    magnitudes = rng.uniform(1e-6, 10.0, (1000, 2))
    scales = rng.uniform(1e-3, 1e3, 1000)
    worst_scale = 0.0
    bounds_ok = symmetry_ok = True
    for (m1, m2), k in zip(magnitudes, scales):
        a1, a2 = amplitude_of(m1), amplitude_of(m2)
        gamma = degree_of_entanglement(a1, a2)
        bounds_ok &= 0.0 <= gamma <= 1.0
        symmetry_ok &= degree_of_entanglement(a2, a1) == gamma
        scaled = degree_of_entanglement(amplitude_of(k * m1), amplitude_of(k * m2))
        worst_scale = max(worst_scale, abs(scaled - gamma))
    checks.append((bounds_ok, "gamma left [0, 1] on random pairs"))
    checks.append((symmetry_ok, "gamma not symmetric on random pairs"))
    checks.append((worst_scale <= 1e-9,
                   f"gamma scale invariance violated by {worst_scale:.2e}"))

    bracket_ok = True
    count = 0
    for collection in (type0_designs, type2_designs):
        for result in collection.values():
            for mode in result.modes.values():
                nb = mode.profile.bulk_index
                bracket_ok &= nb < mode.n_eff < nb + mode.profile.increment
                count += 1
    checks.append((bracket_ok, "guidance bracket violated on a solved mode"))
    checks.append((count == 40, f"expected 40 solved modes, saw {count}"))

    nulls = sinc(np.array([-np.pi, np.pi, -2 * np.pi, 2 * np.pi]))
    checks.append((np.all(np.abs(nulls) < 1e-12), "sinc nulls misplaced"))
    spectrum = type0_designs[10.0].spectra["signal_1"]
    half_width = 0.5 * spectrum.fwhm_nm
    null_offset = half_width * np.pi / 1.3915573782515102
    inside = (np.abs(spectrum.wavelengths_nm - spectrum.center_nm) < 0.9 * null_offset)
    checks.append((np.all(spectrum.gain[inside] > 1e-9),
                   "spectrum gain vanished before the first null"))
    checks.append((np.all((spectrum.gain >= 0.0) & (spectrum.gain <= 1.0)),
                   "spectrum gain left [0, 1]"))

    entropies = []
    for gamma in np.linspace(0.01, 1.0, 100):
        _, h = state_weights_and_entropy(amplitude_of(1.0), amplitude_of(gamma))
        entropies.append(h)
    checks.append((all(a < b for a, b in zip(entropies, entropies[1:])),
                   "entropy not strictly increasing in gamma"))
    checks.append((entropies[-1] == 1.0, "entropy at gamma = 1 is not 1 bit"))

    elapsed = time.perf_counter() - start
    checks.append((elapsed < 300.0, f"property suites took {elapsed:.0f} s (limit 300 s)"))
    _report(f"criterion 7: property suites ({elapsed:.1f} s)", checks)
