"""Whole-design orchestration: solve the five modes, derive both grating
periods, form the entanglement figures, and sweep or optimise the geometry.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Mapping

import numpy as np

from .dispersion import DEFAULT_MATERIAL, Material, Polarization
from .errors import ConfigurationError, NoFeasibleDesignError, PhysicsError
from .mode_solver import IndexProfile, ModeSolution, WaveguideGeometry, field_overlap, solve_mode
from .spdc import (
    CouplingAmplitude,
    Spectrum,
    SpdcProcess,
    coupling_amplitude,
    degree_of_entanglement,
    estimate_fwhm_nm,
    idler_wavelength,
    make_process,
    spectrum_scan,
    state_weights_and_entropy,
)

_E = Polarization.EXTRAORDINARY
_O = Polarization.ORDINARY


class Scheme(Enum):
    """Polarization scheme of the dual process pair."""

    TYPE0_EEE = "type0_eee"
    TYPE2_CROSS = "type2_cross"

    def polarizations(self) -> Mapping[str, Polarization]:
        """Role -> polarization for pump, signal_1/idler_1, signal_2/idler_2."""
        if self is Scheme.TYPE0_EEE:
            return {"pump": _E, "signal_1": _E, "idler_1": _E, "signal_2": _E, "idler_2": _E}
        return {"pump": _O, "signal_1": _O, "idler_1": _E, "signal_2": _E, "idler_2": _O}


@dataclass(frozen=True)
class DesignRequest:
    """Target wavelengths, polarization scheme and geometry for one design."""

    scheme: Scheme
    pump_nm: float
    signal1_nm: float
    signal2_nm: float
    geometry: WaveguideGeometry

    def __post_init__(self):
        if self.signal1_nm == self.signal2_nm:
            raise ConfigurationError("the two signal wavelengths must differ")
        for name, lam in (("signal_1", self.signal1_nm), ("signal_2", self.signal2_nm)):
            if lam <= self.pump_nm:
                raise ConfigurationError(
                    f"{name} at {lam:g} nm does not down-convert from a "
                    f"{self.pump_nm:g} nm pump"
                )


class EffectiveIndexSolver:
    """Mode-solution cache for one (material, geometry); the `index` method
    has the (wavelength_nm, polarization) -> n_eff provider signature used
    by dispersive spectrum scans."""

    def __init__(self, material: Material, geometry: WaveguideGeometry):
        self.material = material
        self.geometry = geometry
        self._cache = {}

    def solve(self, wavelength_nm: float, pol: Polarization) -> ModeSolution:
        key = (round(float(wavelength_nm), 9), pol)
        if key not in self._cache:
            profile = IndexProfile(
                self.geometry,
                self.material.sellmeier.index(pol, wavelength_nm),
                self.material.increments.increment(pol, wavelength_nm),
                self.material.lateral_scale,
                self.material.depth_scale,
            )
            self._cache[key] = solve_mode(profile, wavelength_nm, pol)
        return self._cache[key]

    def index(self, wavelength_nm: float, pol: Polarization) -> float:
        return self.solve(wavelength_nm, pol).n_eff


@dataclass(frozen=True)
class DualPolingDesign:
    """Complete result of one dual-period design."""

    request: DesignRequest
    modes: Mapping[str, ModeSolution]
    process_1: SpdcProcess
    process_2: SpdcProcess
    overlap_1: float
    overlap_2: float
    amplitude_1: CouplingAmplitude
    amplitude_2: CouplingAmplitude
    gamma: float
    state_weights: tuple[float, float]
    entropy_bits: float
    spectra: Mapping[str, Spectrum]

    @property
    def period1_um(self):
        return self.process_1.qpm_period_um

    @property
    def period2_um(self):
        return self.process_2.qpm_period_um


ROLES = ("pump", "signal_1", "idler_1", "signal_2", "idler_2")
# Design spectra: samples per scan and span in units of the estimated FWHM.
SPECTRUM_SAMPLES = 801
SPECTRUM_SPAN_FACTOR = 8.0


def _tagged(error: PhysicsError, role: str, wavelength_nm: float) -> PhysicsError:
    tagged = type(error)(f"{role} ({wavelength_nm:.2f} nm): {error}")
    tagged.__cause__ = error
    return tagged


def design(request: DesignRequest, material: Material = DEFAULT_MATERIAL) -> DualPolingDesign:
    """Solve the five modes and assemble periods, amplitudes, gamma and spectra.

    Mode and phase-matching failures are re-raised with the offending wave
    identified.  Spectra use the design-point convention of
    `spdc.spectrum_scan`; for dispersive spectra call `spectrum_scan` with
    `EffectiveIndexSolver(material, geometry).index` as the provider.
    """
    pols = request.scheme.polarizations()
    wavelengths = {
        "pump": request.pump_nm,
        "signal_1": request.signal1_nm,
        "idler_1": idler_wavelength(request.pump_nm, request.signal1_nm),
        "signal_2": request.signal2_nm,
        "idler_2": idler_wavelength(request.pump_nm, request.signal2_nm),
    }
    solver = EffectiveIndexSolver(material, request.geometry)
    modes = {}
    for role in ROLES:
        try:
            modes[role] = solver.solve(wavelengths[role], pols[role])
        except PhysicsError as error:
            raise _tagged(error, role, wavelengths[role]) from error

    processes = {}
    for tag, s_role, i_role in (("process_1", "signal_1", "idler_1"),
                                ("process_2", "signal_2", "idler_2")):
        try:
            processes[tag] = make_process(
                request.pump_nm,
                wavelengths[s_role],
                pols["pump"],
                pols[s_role],
                pols[i_role],
                modes["pump"].n_eff,
                modes[s_role].n_eff,
                modes[i_role].n_eff,
            )
        except PhysicsError as error:
            raise _tagged(error, tag, wavelengths[s_role]) from error

    overlap_1 = field_overlap(modes["pump"], modes["signal_1"], modes["idler_1"])
    overlap_2 = field_overlap(modes["pump"], modes["signal_2"], modes["idler_2"])
    length_cm = request.geometry.length_cm
    # Both processes are exactly phase matched at their own design point.
    amplitude_1 = coupling_amplitude(processes["process_1"], overlap_1, 0.0, length_cm)
    amplitude_2 = coupling_amplitude(processes["process_2"], overlap_2, 0.0, length_cm)
    gamma = degree_of_entanglement(amplitude_1, amplitude_2)
    weights, entropy = state_weights_and_entropy(amplitude_1, amplitude_2)

    spectra = {}
    for tag, axis, key in (("process_1", "signal", "signal_1"),
                           ("process_1", "idler", "idler_1"),
                           ("process_2", "signal", "signal_2"),
                           ("process_2", "idler", "idler_2")):
        process = processes[tag]
        span = SPECTRUM_SPAN_FACTOR * estimate_fwhm_nm(process, axis, length_cm)
        spectra[key] = spectrum_scan(process, axis, span, SPECTRUM_SAMPLES, length_cm)

    return DualPolingDesign(
        request=request,
        modes=modes,
        process_1=processes["process_1"],
        process_2=processes["process_2"],
        overlap_1=overlap_1,
        overlap_2=overlap_2,
        amplitude_1=amplitude_1,
        amplitude_2=amplitude_2,
        gamma=gamma,
        state_weights=weights,
        entropy_bits=entropy,
        spectra=spectra,
    )


@dataclass(frozen=True)
class SweepRow:
    """One geometry of a sweep; `error` is set when the row failed."""

    depth_um: float
    width_um: float
    gamma: float | None
    period1_um: float | None
    period2_um: float | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    scheme: Scheme
    rows: tuple[SweepRow, ...]


def _sweep_row(template, material, depth, width):
    geometry = replace(template.geometry, width_um=width, depth_um=depth)
    request = replace(template, geometry=geometry)
    try:
        result = design(request, material)
    except PhysicsError as error:
        return SweepRow(depth, width, None, None, None, error=str(error))
    return SweepRow(depth, width, result.gamma, result.period1_um, result.period2_um)


def sweep(template: DesignRequest, depths_um, widths_um, *,
          material: Material = DEFAULT_MATERIAL, pairing: str = "product",
          max_workers: int | None = None) -> SweepResult:
    """One design per geometry; row failures are recorded, not raised.

    `pairing` "product" crosses the two lists (row-major: depth outer);
    "zip" pairs them element-wise.  Rows are returned in input order; with
    `max_workers` > 1 they are computed in parallel processes.
    """
    depths = list(depths_um)
    widths = list(widths_um)
    if not depths or not widths:
        raise ConfigurationError("depth and width lists must be non-empty")
    if pairing == "product":
        pairs = [(d, w) for d in depths for w in widths]
    elif pairing == "zip":
        if len(depths) != len(widths):
            raise ConfigurationError("zip pairing needs equally long lists")
        pairs = list(zip(depths, widths))
    else:
        raise ConfigurationError(f"unknown pairing '{pairing}'")

    row_at = partial(_sweep_row, template, material)
    row_depths, row_widths = zip(*pairs)
    if max_workers is not None and max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            rows = tuple(pool.map(row_at, row_depths, row_widths))
    else:
        rows = tuple(map(row_at, row_depths, row_widths))
    return SweepResult(scheme=template.scheme, rows=rows)


_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(score, lo, hi, tol):
    """Deterministic golden-section maximisation of `score` on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = score(c), score(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = score(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


def find_best_geometry(template: DesignRequest, bounds_um: tuple[float, float], *,
                       material: Material = DEFAULT_MATERIAL, grid_points: int = 4,
                       tol_um: float = 0.05):
    """Maximise gamma over square (width, depth) bounds.

    Coarse grid search followed by per-axis golden-section refinement.
    Returns (geometry, design).  Raises NoFeasibleDesignError when every
    candidate fails to guide or phase match.
    """
    lo, hi = bounds_um
    if lo > hi:
        raise ConfigurationError("bounds must satisfy lo <= hi")
    cache: dict[tuple[float, float], float] = {}

    def score(depth, width):
        key = (round(depth, 6), round(width, 6))
        if key not in cache:
            row = _sweep_row(template, material, key[0], key[1])
            cache[key] = -np.inf if row.error is not None else row.gamma
        return cache[key]

    if lo == hi:
        candidates = [lo]
    else:
        candidates = list(np.linspace(lo, hi, grid_points))
    best = None
    for depth in candidates:
        for width in candidates:
            value = score(depth, width)
            if best is None or value > best[0]:
                best = (value, depth, width)
    value, depth, width = best
    if not np.isfinite(value):
        raise NoFeasibleDesignError("no geometry in the search grid produced a design")

    if lo < hi:
        width, _ = _golden_section(lambda w: score(depth, w), lo, hi, tol_um)
        depth, _ = _golden_section(lambda d: score(d, width), lo, hi, tol_um)
        score(depth, width)
        # the refined point competes against every evaluated candidate, so a
        # boundary optimum is never lost to the golden-section interior
        (depth, width), value = max(cache.items(), key=lambda item: item[1])
        if not np.isfinite(value):
            raise NoFeasibleDesignError("refined geometry failed to produce a design")

    geometry = replace(template.geometry, width_um=width, depth_um=depth)
    final = design(replace(template, geometry=geometry), material)
    return geometry, final
