"""Whole-design orchestration in three stages, `solve_modes`, `phase_match` and
`design_spectra`, which `design` composes; `sweep` and the gamma search
`find_best_geometry` phase-match many geometries in shared mode batches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Mapping

import numpy as np

from .dispersion import DEFAULT_MATERIAL, Material, Polarization
from .errors import (ConfigurationError, NoFeasibleDesignError, PhysicsError, ToolkitError,
                     raised, real, require_integer, require_positive)
from .mode_solver import (MAX_LENGTH_CM, SIZE_RANGE_UM, IndexProfile, ModeSolution,
                          WaveguideGeometry, effective_index, field_overlap, solve_lanes,
                          solve_mode)
from .spdc import (
    CouplingAmplitude,
    Spectrum,
    SpdcProcess,
    degree_of_entanglement,
    estimate_fwhm_nm,
    idler_wavelength,
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
        require_positive(pump_nm=self.pump_nm, signal1_nm=self.signal1_nm,
                         signal2_nm=self.signal2_nm)
        if self.signal1_nm == self.signal2_nm:
            raise ConfigurationError("the two signal wavelengths must differ", "signal2_nm")
        for name, field, lam in (("signal_1", "signal1_nm", self.signal1_nm),
                                 ("signal_2", "signal2_nm", self.signal2_nm)):
            if not self.pump_nm < lam < 2.0 * self.pump_nm:
                raise ConfigurationError(
                    f"{name} at {lam:g} nm does not down-convert from a {self.pump_nm:g} nm pump "
                    f"as the shorter wavelength of its pair, in ({self.pump_nm:g}, "
                    f"{2.0 * self.pump_nm:g}) nm", field)


class EffectiveIndexSolver:
    """Mode solver for one (material, geometry); the `index` method has the
    (wavelength_nm, polarization) -> n_eff provider signature used by
    dispersive spectrum scans."""

    def __init__(self, material: Material, geometry: WaveguideGeometry):
        self.material = material
        self.geometry = geometry

    def profile(self, wavelength_nm: float, pol: Polarization) -> IndexProfile:
        return IndexProfile(
            self.geometry,
            self.material.sellmeier.index(pol, wavelength_nm),
            self.material.increments.increment(pol, wavelength_nm),
            self.material.lateral_scale,
            self.material.depth_scale,
        )

    def solve(self, wavelength_nm: float, pol: Polarization) -> ModeSolution:
        return solve_mode(self.profile(wavelength_nm, pol), wavelength_nm, pol)

    def index(self, wavelength_nm: float, pol: Polarization) -> float:
        """`solve(...).n_eff` to rounding, at a fraction of its cost."""
        return effective_index(self.profile(wavelength_nm, pol), wavelength_nm)


@dataclass(frozen=True)
class DualPolingDesign:
    """Complete result of one dual-period design; `phase_match` gives no spectra."""

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
    spectra: Mapping[str, Spectrum] | None = None

    @property
    def period1_um(self):
        return self.process_1.qpm_period_um

    @property
    def period2_um(self):
        return self.process_2.qpm_period_um


ROLES = ("pump", "signal_1", "idler_1", "signal_2", "idler_2")
# The two down-conversions of the shared pump: (process, signal role, idler role).
PAIRS = (("process_1", "signal_1", "idler_1"), ("process_2", "signal_2", "idler_2"))
# Design spectra: samples per scan and span in units of the estimated FWHM.
SPECTRUM_SAMPLES = 801
SPECTRUM_SPAN_FACTOR = 8.0


def _tagged(error: PhysicsError, role: str, wavelength_nm: float) -> PhysicsError:
    tagged = type(error)(f"{role} ({wavelength_nm:.2f} nm): {error}")
    tagged.__cause__ = error
    return tagged


def _solve_requests(requests, material) -> list:
    """Per request, role -> mode in ROLES order, or the first failure in ROLES
    order tagged with its wave, without a traceback; the modes of all the
    requests are one `solve_lanes` batch.  A ConfigurationError building a
    wave's profile is raised only once every earlier wave of its request solves."""
    plans = []  # per request: its wavelengths and its jobs, a profile's error last
    for request in requests:
        pols = request.scheme.polarizations()
        solver = EffectiveIndexSolver(material, request.geometry)
        nm = {"pump": request.pump_nm, "signal_1": request.signal1_nm,
              "signal_2": request.signal2_nm}
        for _, s_role, i_role in PAIRS:
            nm[i_role] = idler_wavelength(request.pump_nm, nm[s_role])
        jobs = []
        for role in ROLES:
            try:
                jobs.append((solver.profile(nm[role], pols[role]), nm[role], pols[role]))
            except ToolkitError as error:  # the later waves are never reached
                jobs.append(error.with_traceback(None))
                break
        plans.append((nm, jobs))
    solved = iter(solve_lanes([job for _, jobs in plans for job in jobs
                               if not isinstance(job, ToolkitError)]))
    outcomes = []
    for nm, jobs in plans:
        modes = {role: job if isinstance(job, ToolkitError) else next(solved)
                 for role, job in zip(ROLES, jobs)}
        role = next((role for role, mode in modes.items() if isinstance(mode, ToolkitError)),
                    None)
        if isinstance(modes.get(role), ConfigurationError):
            raise modes[role]
        outcomes.append(modes if role is None else _tagged(modes[role], role, nm[role]))
    return outcomes


def solve_modes(request: DesignRequest,
                material: Material = DEFAULT_MATERIAL) -> dict[str, ModeSolution]:
    """Role -> the mode of each of the five waves, in ROLES order.

    A mode failure is re-raised with the offending wave identified.  No
    period, overlap or spectrum is formed, so the interaction length plays
    no part.
    """
    return raised(_solve_requests([request], material))


def phase_match(request: DesignRequest, modes: Mapping[str, ModeSolution]) -> DualPolingDesign:
    """`design` from the `solve_modes` modes, without the design spectra and so
    without their length limit: each `SpdcProcess` derives its idler and period
    from the n_eff of its three waves, and a failure names its process; each
    `CouplingAmplitude` derives its magnitude from its process and overlap."""
    pols = request.scheme.polarizations()
    processes, overlaps, amplitudes = [], [], []
    for tag, s_role, i_role in PAIRS:
        signal_nm = modes[s_role].wavelength_nm
        try:
            process = SpdcProcess(request.pump_nm, signal_nm, pols["pump"], pols[s_role],
                                  pols[i_role], modes["pump"].n_eff, modes[s_role].n_eff,
                                  modes[i_role].n_eff)
        except PhysicsError as error:
            raise _tagged(error, tag, signal_nm) from error
        processes.append(process)
        overlaps.append(field_overlap(modes["pump"], modes[s_role], modes[i_role]))
        # Both processes are exactly phase matched at their own design point.
        amplitudes.append(CouplingAmplitude(process, overlaps[-1], 0.0,
                                            request.geometry.length_cm))
    weights, entropy = state_weights_and_entropy(*amplitudes)
    return DualPolingDesign(request, modes, *processes, *overlaps, *amplitudes,
                            gamma=degree_of_entanglement(*amplitudes),
                            state_weights=weights, entropy_bits=entropy)


def design_spectra(matched: DualPolingDesign) -> DualPolingDesign:
    """A `phase_match` design with its four design spectra, 8 x FWHM wide; an
    interaction length at which one reaches the pump is a ConfigurationError."""
    length_cm = matched.request.geometry.length_cm
    # Each design spectrum spans 8 x FWHM, which scales as 1/L, and must stay
    # clear of the pump: shortest[role] is the length in cm where it reaches it.
    scans, shortest = {}, {}
    for process, (_, s_role, i_role) in zip((matched.process_1, matched.process_2), PAIRS):
        for role, axis in ((s_role, "signal"), (i_role, "idler")):
            scans[role] = process, axis
            room = matched.modes[role].wavelength_nm - matched.request.pump_nm
            shortest[role] = (SPECTRUM_SPAN_FACTOR * estimate_fwhm_nm(process, axis, 1.0)
                              / (2.0 * room))
    limit = max(shortest, key=shortest.get)
    if length_cm <= shortest[limit]:
        remedy = (f"use more than {shortest[limit]:.6g} cm" if shortest[limit] < MAX_LENGTH_CM
                  else f"no supported length (at most {MAX_LENGTH_CM:g} cm) keeps it clear")
        raise ConfigurationError(
            f"geometry.length_cm {length_cm:g} cm is too short: the {SPECTRUM_SPAN_FACTOR:g} x "
            f"FWHM design spectrum of {limit} reaches the pump; {remedy}", "length_cm")
    spectra = {}
    for role, (process, axis) in scans.items():
        span = SPECTRUM_SPAN_FACTOR * estimate_fwhm_nm(process, axis, length_cm)
        spectra[role] = spectrum_scan(process, axis, span, SPECTRUM_SAMPLES, length_cm)
    return replace(matched, spectra=spectra)


def design(request: DesignRequest, material: Material = DEFAULT_MATERIAL) -> DualPolingDesign:
    """Solve the five modes and assemble periods, amplitudes, gamma and spectra:
    `design_spectra(phase_match(request, solve_modes(request, material)))`.

    Mode and phase-matching failures are re-raised with the offending wave
    identified.  Spectra use the design-point convention of
    `spdc.spectrum_scan`; for dispersive spectra call `spectrum_scan` with
    `EffectiveIndexSolver(material, geometry).index` (n_eff alone) as the provider.
    """
    return design_spectra(phase_match(request, solve_modes(request, material)))


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


# Rows per `solve_lanes` batch.  A batch holds about 45 KB per lane and the
# quadratures of its rows, so this bounds the memory of a long sweep or search.
SWEEP_BATCH_ROWS = 8
# Most rows of one sweep: a row holds about 0.6 KB of request and result
# until the sweep returns, so a sweep stays near 60 MB, and at about 5 ms per
# row (one core of a 2-vCPU Xeon) it solves for some 8 minutes.
MAX_SWEEP_ROWS = 100_000


def _requests(template, pairs) -> list[DesignRequest]:
    """The request of each (depth, width) pair; a size out of range names its list."""
    try:
        return [replace(template, geometry=replace(template.geometry, depth_um=d, width_um=w))
                for d, w in pairs]
    except ConfigurationError as error:
        field = {"depth_um": "depths_um", "width_um": "widths_um"}[error.field]
        raise ConfigurationError(str(error), field) from None


def _phase_matched(material, requests):
    """Per request, in order, its `phase_match` design or its PhysicsError;
    the modes are solved in contiguous, balanced `solve_lanes` batches of at
    most SWEEP_BATCH_ROWS rows."""
    count = -(-len(requests) // SWEEP_BATCH_ROWS)
    for k in range(count):
        batch = requests[len(requests) * k // count:len(requests) * (k + 1) // count]
        for request, modes in zip(batch, _solve_requests(batch, material)):
            try:
                matched = modes if isinstance(modes, PhysicsError) else phase_match(request, modes)
            except PhysicsError as error:
                yield error  # never held by this frame, so its traceback makes no cycle
            else:
                yield matched


def _sweep_rows(material, requests) -> list[SweepRow]:
    """The rows of `requests`."""
    return [SweepRow(r.geometry.depth_um, r.geometry.width_um, None, None, None,
                     error=str(outcome))
            if isinstance(outcome, PhysicsError) else
            SweepRow(r.geometry.depth_um, r.geometry.width_um, outcome.gamma,
                     outcome.period1_um, outcome.period2_um)
            for r, outcome in zip(requests, _phase_matched(material, requests))]


def sweep(template: DesignRequest, depths_um, widths_um, *,
          material: Material = DEFAULT_MATERIAL, pairing: str = "product",
          max_workers: int | None = None) -> SweepResult:
    """One `phase_match` per geometry; row failures are recorded, not raised.

    `pairing` "product" crosses the two lists (row-major: depth outer);
    "zip" pairs them element-wise.  A bad list, pairing or row count (more
    than MAX_SWEEP_ROWS), or a `max_workers` that is not an integer of at
    least 1, raises a `ConfigurationError` that names its parameter in
    `field`.  Rows are returned in input order; with `max_workers` > 1 they
    are computed in parallel processes, at most one per row and per CPU.
    Modes are solved in contiguous batches of at most SWEEP_BATCH_ROWS
    rows; a row's numbers depend on neither its batch nor `max_workers`.
    """
    if max_workers is not None:
        require_integer("max_workers", max_workers, 1)
    depths, widths = list(depths_um), list(widths_um)
    if not depths or not widths:
        raise ConfigurationError("depth and width lists must be non-empty",
                                 "depths_um" if not depths else "widths_um")
    if pairing not in ("product", "zip"):
        raise ConfigurationError(f"unknown pairing '{pairing}'", "pairing")
    if pairing == "zip" and len(depths) != len(widths):
        raise ConfigurationError(f"zip pairing needs equally long lists, got {len(depths)} "
                                 f"depths and {len(widths)} widths", "pairing")
    count = len(depths) * len(widths) if pairing == "product" else len(depths)
    if count > MAX_SWEEP_ROWS:  # checked before any row is listed
        raise ConfigurationError(f"{pairing} pairing makes {count} rows, more than the "
                                 f"supported {MAX_SWEEP_ROWS}", "pairing")
    # every geometry is in range before any row is solved
    requests = _requests(template, ((d, w) for d in depths for w in widths)
                         if pairing == "product" else zip(depths, widths))

    # the pool starts all its processes at once, so never more than can be used
    workers = min(max_workers or 1, count, os.cpu_count() or 1)
    shares = [requests[count * k // workers:count * (k + 1) // workers]
              for k in range(workers)]  # contiguous, one per process
    rows_of = partial(_sweep_rows, material)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = list(pool.map(rows_of, shares))
    else:
        shares = list(map(rows_of, shares))
    return SweepResult(scheme=template.scheme, rows=tuple(row for rows in shares for row in rows))


_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
SEARCH_GRID_POINTS = 4
SEARCH_TOL_UM = 0.05


def _golden_section(score, lo, hi, tol):
    """Deterministic golden-section maximisation of `score` on [lo, hi]: the argmax."""
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
    return c if fc >= fd else d


def find_best_geometry(template: DesignRequest, bounds_um: tuple[float, float], *,
                       material: Material = DEFAULT_MATERIAL):
    """Maximise gamma over square (width, depth) bounds.

    Coarse grid search then per-axis golden-section refinement, each point
    phase-matched once; returns (geometry, design) of the first-scored point
    of highest gamma, the only one given `design_spectra`.  Bounds outside
    SIZE_RANGE_UM, or with lo > hi, raise a ConfigurationError naming
    `bounds_um`; NoFeasibleDesignError when every candidate fails.
    """
    lo, hi = bounds_um
    low, high = SIZE_RANGE_UM
    if not low <= lo <= hi <= high:  # checked before any design is solved
        raise ConfigurationError(f"bounds ({real(lo):g}, {real(hi):g}) um must satisfy "
                                 f"{low:g} <= lo <= hi <= {high:g} um", "bounds_um")
    # (depth, width) rounded -> (gamma, phase-matched design); a failure scores -inf
    scored: dict[tuple[float, float], tuple[float, DualPolingDesign | None]] = {}

    def score(*points):
        """Phase-match the points not yet scored as one call; the first one's gamma."""
        keys = [(round(depth, 6), round(width, 6)) for depth, width in points]
        new = [key for key in dict.fromkeys(keys) if key not in scored]
        for key, outcome in zip(new, _phase_matched(material, _requests(template, new))):
            failed = isinstance(outcome, PhysicsError)
            scored[key] = (-np.inf, None) if failed else (outcome.gamma, outcome)
        return scored[keys[0]][0]

    def best():
        """The design of highest gamma scored so far, the first of equals."""
        return max(scored.values(), key=lambda entry: entry[0])[1]

    # with lo == hi every candidate, and every golden-section point, is the one geometry
    candidates = np.linspace(lo, hi, SEARCH_GRID_POINTS)
    score(*((depth, width) for depth in candidates for width in candidates))
    if best() is None:
        raise NoFeasibleDesignError("no geometry in the search grid produced a design")
    depth = best().request.geometry.depth_um
    width = _golden_section(lambda w: score((depth, w)), lo, hi, SEARCH_TOL_UM)
    _golden_section(lambda d: score((d, width)), lo, hi, SEARCH_TOL_UM)
    # each golden section scores every point it may return, and the best of all
    # scored points wins, so a boundary optimum is never lost to the interior
    result = design_spectra(best())
    return result.request.geometry, result
