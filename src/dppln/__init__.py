"""dppln: design toolkit for dual-period quasi-phase-matched photon-pair
sources in titanium-indiffused lithium niobate channel waveguides.

The package covers the chain from material dispersion through variational
mode solving to the entanglement figures of a dual-poled two-process
down-conversion source: QPM periods, relative coupling amplitudes, the
degree of entanglement, sinc^2 spectra with FWHM bandwidths, geometry
sweeps and poling-pattern synthesis.
"""

from .dispersion import (
    DEFAULT_INCREMENTS,
    DEFAULT_MATERIAL,
    SELLMEIER_MODELS,
    ZELMON_1997,
    IndexIncrementTable,
    Material,
    Polarization,
    SellmeierModel,
)
from .design_search import (
    DesignRequest,
    DualPolingDesign,
    EffectiveIndexSolver,
    Scheme,
    SweepResult,
    SweepRow,
    design,
    design_spectra,
    find_best_geometry,
    phase_match,
    solve_modes,
    sweep,
)
from .errors import (
    AmplitudeUndefinedError,
    BoundaryOptimumError,
    ConfigurationError,
    ConsistencyError,
    DegeneratePatternError,
    DownConversionError,
    NoFeasibleDesignError,
    NoGuidedModeError,
    PhaseMatchingError,
    PhysicsError,
    QuadratureConvergenceError,
    SpanTooNarrowError,
    ToolkitError,
    WavelengthRangeError,
)
from .mode_solver import (
    IndexProfile,
    ModeSolution,
    WaveguideGeometry,
    field_overlap,
    rayleigh_quotient,
    solve_mode,
)
from .spdc import (
    CouplingAmplitude,
    IDEAL_HARMONIC_AMPLITUDE,
    PolingPattern,
    SpdcProcess,
    Spectrum,
    degree_of_entanglement,
    estimate_fwhm_nm,
    idler_wavelength,
    phase_mismatch,
    poling_fourier_coefficient,
    qpm_period,
    sinc,
    spectral_distinguishability,
    spectrum_scan,
    state_weights_and_entropy,
    synthesize_poling,
)

__version__ = "0.1.0"
