"""Down-conversion physics: QPM periods, phase mismatch, coupling amplitudes,
entanglement metrics, sinc^2 spectra and dual-period poling patterns.

Units: wavelengths in nm, periods and transverse overlaps in um (1/um),
phase mismatch in rad/m, interaction lengths in cm.  Coupling amplitudes are
relative: the prefactor common to both processes (nonlinear coefficient,
pump field, hbar, interaction time) cancels from every ratio computed here
and is set to one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dispersion import Polarization
from .errors import (
    AmplitudeUndefinedError,
    ConfigurationError,
    ConsistencyError,
    DegeneratePatternError,
    DownConversionError,
    PhaseMatchingError,
    SpanTooNarrowError,
    real,
    require_finite,
    require_integer,
    require_positive,
    require_within,
)
from .mode_solver import MAX_LENGTH_CM

C_UM_PER_FS = 0.299792458

# Argument where sinc^2 falls to one half: sin(x)/x = 1/sqrt(2).
HALF_MAX_ARG = 1.3915573782515102

# First-harmonic magnitude of the ideal dual-period nonlinearity decomposition.
IDEAL_HARMONIC_AMPLITUDE = 4.0 / np.pi**2

# Shortest supported poling period in um: a pattern samples 16 cells per
# shortest period, so at MAX_LENGTH_CM it stays below 1.6 million cells.
MIN_PERIOD_UM = 1.0

# Supported sample counts of a spectrum scan: the fewest that resolve a FWHM,
# and the most whose float arrays stay at 8 MB each.
SCAN_SAMPLES = (101, 1_000_000)


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalised convention); x must be finite."""
    x = real(x)
    require_finite(x=x)
    return np.sinc(x / np.pi)


def angular_frequency(wavelength_nm):
    """Angular frequency in rad/fs."""
    return 2.0 * np.pi * C_UM_PER_FS / (wavelength_nm * 1e-3)


def idler_wavelength(pump_nm: float, signal_nm):
    """Idler wavelength from energy conservation, 1/lp = 1/ls + 1/li.

    `signal_nm` may be an array; the idlers are then computed elementwise.
    """
    require_positive(pump_nm=pump_nm, signal_nm=signal_nm)
    if np.any(np.asarray(signal_nm) <= pump_nm):
        raise DownConversionError(
            f"signal {np.min(signal_nm):g} nm must exceed the pump {pump_nm:g} nm"
        )
    return 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)


def _per_um(name, n, wavelength_nm) -> float:
    """n / lambda in 1/um; a wavelength so short that this overflows, or that
    is zero in um, is a ConfigurationError naming `name`."""
    wavelength_um = wavelength_nm * 1e-3
    if wavelength_um == 0.0 or n / wavelength_um == math.inf:
        raise ConfigurationError(f"{name} {wavelength_nm:g} nm is too short: n/lambda overflows",
                                 name)
    return n / wavelength_um


def qpm_period(n_p, n_s, n_i, pump_nm, signal_nm, idler_nm) -> float:
    """First-order quasi-phase-matching period in um.

    Lambda = 1 / (n_p/lp - n_s/ls - n_i/li), wavelengths in um.
    """
    require_positive(n_p=n_p, n_s=n_s, n_i=n_i, pump_nm=pump_nm, signal_nm=signal_nm,
                     idler_nm=idler_nm)
    denominator = (_per_um("pump_nm", n_p, pump_nm) - _per_um("signal_nm", n_s, signal_nm)
                   - _per_um("idler_nm", n_i, idler_nm))
    if denominator <= 0.0:
        raise PhaseMatchingError(
            "no first-order grating: n_p/lp - n_s/ls - n_i/li = "
            f"{denominator:.6e} 1/um is not positive"
        )
    return 1.0 / denominator


@dataclass(frozen=True)
class SpdcProcess:
    """One pump -> (signal, idler) conversion at its design-point indices.  The
    idler (`idler_wavelength`) and grating period (`qpm_period`) are derived,
    also under `dataclasses.replace`; the signal must be the shorter of the pair."""

    pump_nm: float
    signal_nm: float
    idler_nm: float = field(init=False)
    pump_pol: Polarization
    signal_pol: Polarization
    idler_pol: Polarization
    qpm_period_um: float = field(init=False)
    n_pump: float
    n_signal: float
    n_idler: float

    def __post_init__(self):
        idler_nm = idler_wavelength(self.pump_nm, self.signal_nm)
        object.__setattr__(self, "idler_nm", idler_nm)
        object.__setattr__(self, "qpm_period_um", qpm_period(
            self.n_pump, self.n_signal, self.n_idler, self.pump_nm, self.signal_nm, idler_nm))
        if not self.signal_nm < idler_nm:
            raise ConfigurationError("signal must be the shorter wavelength of the pair")


def phase_mismatch(process: SpdcProcess, signal_nm, index_provider=None):
    """Phase mismatch Delta-k in rad/m at detuned signal wavelengths, elementwise.

    The idlers follow from energy conservation.  With no `index_provider`
    both down-converted indices stay at their design values; otherwise each
    is re-evaluated through `index_provider(wavelength_nm, pol)`, one call
    per wavelength.  Zero at the design point by construction of the period.
    """
    signal_nm = np.asarray(real(signal_nm))
    idler_nm = idler_wavelength(process.pump_nm, signal_nm)
    if index_provider is None:
        n_signal, n_idler = process.n_signal, process.n_idler
    else:
        n_signal, n_idler = (
            np.reshape([index_provider(lam, pol) for lam in wavelengths.flat], wavelengths.shape)
            for wavelengths, pol in ((signal_nm, process.signal_pol),
                                     (idler_nm, process.idler_pol)))
    residual = (
        process.n_pump / (process.pump_nm * 1e-3)
        - n_signal / (signal_nm * 1e-3)
        - n_idler / (idler_nm * 1e-3)
    )
    return 2.0 * np.pi * (1.0 / process.qpm_period_um - residual) * 1e6


@dataclass(frozen=True)
class CouplingAmplitude:
    """One process's relative amplitude |I| sqrt(ws wi) / (ns ni) |sinc(dk L/2)|, derived
    from its checked inputs, also under `dataclasses.replace`, and always finite."""

    process: SpdcProcess
    overlap_per_um: float
    delta_k_rad_per_m: float
    length_cm: float
    base_magnitude: float = field(init=False)
    sinc_factor: float = field(init=False)
    magnitude: float = field(init=False)

    def __post_init__(self):
        require_finite(overlap_per_um=self.overlap_per_um,
                       delta_k_rad_per_m=self.delta_k_rad_per_m)
        require_positive(length_cm=self.length_cm)
        ws = angular_frequency(self.process.signal_nm)
        wi = angular_frequency(self.process.idler_nm)
        n_product = self.process.n_signal * self.process.n_idler
        base = abs(self.overlap_per_um) * math.sqrt(ws * wi) / n_product if n_product else math.inf
        require_finite(base_magnitude=base)
        s = float(sinc(0.5 * self.delta_k_rad_per_m * self.length_cm * 1e-2))
        object.__setattr__(self, "base_magnitude", base)
        object.__setattr__(self, "sinc_factor", s)
        object.__setattr__(self, "magnitude", base * abs(s))

    def complex_value(self):
        """-|base| sinc(dk L/2) exp(-i dk L/2); phase rebuilt on demand."""
        half_phase = 0.5 * self.delta_k_rad_per_m * self.length_cm * 1e-2
        return -self.base_magnitude * self.sinc_factor * np.exp(-1j * half_phase)


def _magnitudes(a1: CouplingAmplitude, a2: CouplingAmplitude):
    """|C1| and |C2|, finite as every CouplingAmplitude's, scaled exactly, by one
    power of two, to at most 1; two vanishing ones are an AmplitudeUndefinedError."""
    if a1.magnitude == 0.0 and a2.magnitude == 0.0:
        raise AmplitudeUndefinedError("both coupling amplitudes vanish")
    exponent = math.frexp(max(a1.magnitude, a2.magnitude))[1]
    return math.ldexp(a1.magnitude, -exponent), math.ldexp(a2.magnitude, -exponent)


def degree_of_entanglement(a1: CouplingAmplitude, a2: CouplingAmplitude) -> float:
    """gamma = min(|C1|, |C2|) / max(|C1|, |C2|) in [0, 1]."""
    m1, m2 = _magnitudes(a1, a2)
    if m1 == m2:
        return 1.0
    return min(m1, m2) / max(m1, m2)


def state_weights_and_entropy(a1: CouplingAmplitude, a2: CouplingAmplitude):
    """Normalised two-term weights (|C1|^2, |C2|^2) and their entropy in bits."""
    m1, m2 = _magnitudes(a1, a2)
    total = m1 * m1 + m2 * m2
    p1 = m1 * m1 / total
    p2 = m2 * m2 / total
    entropy = 0.0
    for p in (p1, p2):
        if p > 0.0:
            entropy -= p * math.log2(p)
    return (p1, p2), entropy


@dataclass(frozen=True)
class Spectrum:
    """Sampled sinc^2 gain curve along one photon's wavelength."""

    role: str  # "signal" or "idler"
    wavelengths_nm: np.ndarray
    gain: np.ndarray
    center_nm: float
    fwhm_nm: float

    def angular_frequency_fwhm(self):
        """FWHM converted to rad/fs via dw = 2 pi c dlam / lam^2."""
        return 2.0 * np.pi * C_UM_PER_FS * (self.fwhm_nm * 1e-3) / (self.center_nm * 1e-3) ** 2


def _center(process: SpdcProcess, axis: str) -> float:
    """The design wavelength of the "signal" or "idler" axis."""
    if axis not in ("signal", "idler"):
        raise ConfigurationError(f"unknown scan axis '{axis}'", "axis")
    return process.signal_nm if axis == "signal" else process.idler_nm


def estimate_fwhm_nm(process: SpdcProcess, axis: str, length_cm: float) -> float:
    """Closed-form FWHM estimate from the design-point mismatch slope.

    With both indices frozen and the idler fixed by energy conservation, the
    slope is d(dk)/d(lam_s) = 2 pi (n_i - n_s) / lam_s^2 on the signal axis
    and 2 pi (n_s - n_i) / lam_i^2 on the idler axis.
    """
    center = _center(process, axis)
    require_positive(length_cm=length_cm)
    try:
        # rad/m per nm, with the wavelength in um
        slope = 2.0 * np.pi * (process.n_idler - process.n_signal) / (center * 1e-3) ** 2 * 1e3
        # full width: the half-maximum offsets sit at dk = +-2*HALF_MAX_ARG/L
        fwhm = 4.0 * HALF_MAX_ARG / (length_cm * 1e-2 * abs(slope))
    except (OverflowError, ZeroDivisionError):  # a centre or slope L out of float range
        fwhm = math.nan
    if not 0.0 < fwhm < math.inf:
        raise PhaseMatchingError(f"flat mismatch, or one out of float range, over {length_cm:g} "
                                 f"cm at {center:g} nm: cannot estimate a bandwidth")
    return fwhm


def _half_crossings(wavelengths, gain, center_index):
    """Linear-interpolated half-maximum crossings on each side of the peak."""
    left = None
    for i in range(center_index, 0, -1):
        if gain[i - 1] < 0.5 <= gain[i]:
            frac = (0.5 - gain[i - 1]) / (gain[i] - gain[i - 1])
            left = wavelengths[i - 1] + frac * (wavelengths[i] - wavelengths[i - 1])
            break
    right = None
    for i in range(center_index, len(gain) - 1):
        if gain[i] >= 0.5 > gain[i + 1]:
            frac = (gain[i] - 0.5) / (gain[i] - gain[i + 1])
            right = wavelengths[i] + frac * (wavelengths[i + 1] - wavelengths[i])
            break
    return left, right


def spectrum_scan(process: SpdcProcess, axis: str, span_nm: float, samples: int,
                  length_cm: float, index_provider=None,
                  index_model: str = "design-point") -> Spectrum:
    """Sample gain(lam) = sinc^2(dk(lam) L / 2) around the phase-matched point.

    `axis` selects which photon's wavelength is scanned; the partner follows
    from energy conservation with a monochromatic pump.  `index_model`
    "design-point" freezes both indices at their solved values (this is what
    the reference tables and bandwidths correspond to); "dispersive"
    re-evaluates both per sample through `index_provider`, such as
    `EffectiveIndexSolver.index`.  A span reaching the pump is a configuration error.
    """
    center = _center(process, axis)
    require_integer("samples", samples, *SCAN_SAMPLES)
    if index_model not in ("design-point", "dispersive"):
        raise ConfigurationError(f"unknown index model '{index_model}'", "index_model")
    if index_model == "dispersive" and index_provider is None:
        raise ConfigurationError("dispersive scans need an index provider", "index_provider")
    require_positive(span_nm=span_nm, length_cm=length_cm)

    grid = np.linspace(center - span_nm / 2.0, center + span_nm / 2.0, samples)
    if grid[0] <= process.pump_nm:
        raise ConfigurationError(
            f"span_nm {span_nm:g} nm reaches the pump at {process.pump_nm:g} nm; spans "
            f"around the {axis} centre {center:.6g} nm must stay below "
            f"{2.0 * (center - process.pump_nm):.6g} nm", "span_nm"
        )
    signal_grid = grid if axis == "signal" else idler_wavelength(process.pump_nm, grid)

    dk = phase_mismatch(process, signal_grid,
                        index_provider if index_model == "dispersive" else None)

    gain = sinc(0.5 * dk * length_cm * 1e-2) ** 2
    peak = int(np.argmax(gain))
    left, right = _half_crossings(grid, gain, peak)
    if left is None or right is None:
        fwhm = estimate_fwhm_nm(process, axis, length_cm)
        room = 2.0 * (center - process.pump_nm)  # every accepted span is narrower
        widest = 0.99 * room  # so that a 3-digit print of it is accepted too
        limit = f"spans must stay below {room:.6g} nm"
        message = f"span {span_nm:g} nm does not contain both half-maximum crossings"
        if fwhm >= widest:
            raise SpanTooNarrowError(f"{message}, and no span clear of the pump does: the "
                                     f"estimated FWHM is {fwhm:.3g} nm and {limit}")
        suggestion = min(3.0 * fwhm, widest)
        raise SpanTooNarrowError(
            f"{message}; try at least {suggestion:.3g} nm" if suggestion < widest else
            f"{message}; try {suggestion:.3g} nm, as {limit}",
            suggested_span_nm=suggestion,
        )
    return Spectrum(
        role=axis,
        wavelengths_nm=grid,
        gain=gain,
        center_nm=center,
        fwhm_nm=float(right - left),
    )


def spectral_distinguishability(s1: Spectrum, s2: Spectrum):
    """Non-overlap test: center +- FWHM windows must be disjoint.

    Returns (distinguishable, margin_nm); the signed margin is positive when
    one spectrum's lower edge clears the other's upper edge.
    """
    if s1.role != s2.role:
        raise ConsistencyError(
            f"cannot compare a {s1.role} spectrum with a {s2.role} spectrum"
        )
    margin = max(
        (s1.center_nm - s1.fwhm_nm) - (s2.center_nm + s2.fwhm_nm),
        (s2.center_nm - s2.fwhm_nm) - (s1.center_nm + s1.fwhm_nm),
    )
    return margin >= 0.0, float(margin)


@dataclass(frozen=True)
class PolingPattern:
    """Sign-alternating domain pattern along the propagation axis."""

    boundaries_um: np.ndarray  # strictly increasing interior sign flips
    length_um: float
    first_sign: int  # sign of the first domain [0, boundaries[0])

    def segment_edges(self):
        return np.concatenate(([0.0], self.boundaries_um, [self.length_um]))

    def segment_signs(self):
        n = len(self.boundaries_um) + 1
        return self.first_sign * (-1) ** np.arange(n)


def synthesize_poling(period1_um: float, period2_um: float, length_cm: float) -> PolingPattern:
    """Digitise sgn[cos(2 pi x / L1) - cos(2 pi x / L2)] into domain boundaries.

    The grating is -2 sin(pi x S) sin(pi x D), S = 1/L1 + 1/L2, D = |1/L1 -
    1/L2|.  Midpoint signs on a grid of 16 cells per shorter period bracket
    the flips (a midpoint on a zero is skipped), and each boundary is the
    exact carrier zero k/S or beat zero m/D nearer its bracket's centre: a
    cell is narrower than either zero spacing.  Two flips in one cell (domains
    narrower than min(L1, L2)/16, at the beat nodes) are not resolved.  The
    first sign is that of 1/L2^2 - 1/L1^2, from the small-x expansion.
    Raises DegeneratePatternError when the periods coincide.
    """
    require_positive(period1_um=period1_um, period2_um=period2_um, length_cm=length_cm)
    require_within("period1_um", period1_um, (MIN_PERIOD_UM, math.inf), "um")
    require_within("period2_um", period2_um, (MIN_PERIOD_UM, math.inf), "um")
    require_within("length_cm", length_cm, (0.0, MAX_LENGTH_CM), "cm")
    if period1_um == period2_um:
        raise DegeneratePatternError("equal periods produce no beat pattern")
    length_um = length_cm * 1e4
    longest = max(period1_um, period2_um)
    if length_um < 10.0 * longest:  # the suggested length is rounded up to 1e-8 cm
        raise ConfigurationError(f"geometry.length_cm {length_cm:g} cm is too short: the poling "
                                 f"pattern must cover 10 periods of {longest:g} um; use at least "
                                 f"{math.ceil(longest * 1e5) / 1e8:.10g} cm", "length_cm")

    step = min(period1_um, period2_um) / 16.0
    mid = (np.arange(int(np.ceil(length_um / step)) + 1) + 0.5) * step
    mid = mid[mid < length_um]
    value = np.cos(2.0 * np.pi * mid / period1_um) - np.cos(2.0 * np.pi * mid / period2_um)
    mid, positive = mid[value != 0.0], value[value != 0.0] > 0.0
    flips = np.nonzero(positive[:-1] != positive[1:])[0]
    centre = 0.5 * (mid[flips] + mid[flips + 1])
    carrier = 1.0 / period1_um + 1.0 / period2_um
    beat = abs(1.0 / period1_um - 1.0 / period2_um)
    carrier_zero, beat_zero = np.rint(centre * carrier) / carrier, np.rint(centre * beat) / beat
    return PolingPattern(
        boundaries_um=np.where(abs(carrier_zero - centre) <= abs(beat_zero - centre),
                               carrier_zero, beat_zero),
        length_um=length_um,
        first_sign=-1 if period1_um < period2_um else 1,
    )


def poling_fourier_coefficient(pattern: PolingPattern, k_rad_per_um: float) -> float:
    """|(1/L) int d(x) exp(-i K x) dx| by exact piecewise integration."""
    require_finite(k_rad_per_um=k_rad_per_um)
    edges = pattern.segment_edges()
    signs = pattern.segment_signs()
    if abs(k_rad_per_um) < sys.float_info.min:  # 0, or subnormal: 1/K overflows
        return float(abs(np.sum(signs * np.diff(edges))) / pattern.length_um)
    phases = np.exp(-1j * k_rad_per_um * edges)
    total = np.sum(signs * (phases[1:] - phases[:-1])) / (-1j * k_rad_per_um)
    return float(abs(total) / pattern.length_um)
