"""Exception hierarchy for the toolkit.

``ConfigurationError`` marks bad user input (config files, tables, invalid
argument combinations); everything else derives from ``PhysicsError`` and
marks a physically impossible or numerically failed computation.  The CLI
maps the two branches to distinct exit codes.
"""

import math

import numpy as np


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ToolkitError):
    """Invalid configuration: missing blocks/fields, malformed tables, bad units.
    `field` names the attribute or table at fault, when the raiser knows it."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def real(value):
    """`value` read as a float, or a list or array of numbers as a float array;
    an integer too large for a float reads as +-inf, never an OverflowError.
    Every check of a number in this package reads it through here."""
    if isinstance(value, (np.ndarray, list, tuple)):
        try:
            return np.asarray(value, dtype=float)
        except OverflowError:  # read element by element
            return np.vectorize(real, otypes=[float])(np.asarray(value, dtype=object))
    if isinstance(value, (str, bytes)):  # float() would parse it
        raise TypeError(f"expected a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # only an integer overflows
        return math.inf if value > 0 else -math.inf


def require_positive(**values):
    """Raise a ConfigurationError naming the first value that is not finite
    and positive; a list or array value is checked element by element."""
    for name, value in values.items():
        value = real(value)
        if isinstance(value, np.ndarray):  # its first bad element, or a pass
            value = np.ravel(value)
            value = next(iter(value[~(np.isfinite(value) & (value > 0.0))].tolist()), 1.0)
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigurationError(f"{name} must be finite and positive, got {float(value)!r}",
                                     name)


def require_within(name, value, bounds, unit="", field=None):
    """Raise a ConfigurationError, with `field` (default `name`), when `value`
    is outside the closed range `bounds` = (low, high) or is NaN; a pure
    number has no `unit`."""
    low, high = bounds
    value = real(value)
    if not low <= value <= high:
        unit = f" {unit}" if unit else ""
        raise ConfigurationError(f"{name} {value:g}{unit} outside the supported range "
                                 f"[{low:g}, {high:g}]{unit}", field or name)


def require_integer(field, value, low, high=None):
    """`value` when it is an integer in [low, high], or at least `low` when
    `high` is None; else a ConfigurationError naming `field`."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low
            or (high is not None and value > high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigurationError(f"{field}: expected an integer {bounds}, got {value!r}", field)
    return value


def require_finite(**values):
    """Raise a ConfigurationError naming the first value that is not finite; a
    list or array value is checked element by element."""
    for name, value in values.items():
        bad = np.ravel(real(value))
        bad = bad[~np.isfinite(bad)]
        if bad.size:
            raise ConfigurationError(f"{name} must be finite, got {float(bad[0])!r}", name)


class PhysicsError(ToolkitError):
    """A computation failed for physical or numerical reasons."""


def raised(outcomes):
    """The one outcome in `outcomes`, a value or an unraised PhysicsError, with
    the error raised: popped first, so that no frame holds it and its
    traceback makes no reference cycle."""
    if isinstance(outcomes[0], PhysicsError):
        raise outcomes.pop()
    return outcomes[0]


class WavelengthRangeError(PhysicsError):
    """Wavelength outside the validity range of a dispersion model."""


class DownConversionError(PhysicsError):
    """Requested signal/pump combination does not describe down-conversion."""


class PhaseMatchingError(PhysicsError):
    """No first-order grating can phase match the requested process."""


class QuadratureConvergenceError(PhysicsError):
    """Nested quadrature refinement did not converge within the order limit."""


class NoGuidedModeError(PhysicsError):
    """The variational search found no confined mode (n_eff <= bulk index)."""


class BoundaryOptimumError(PhysicsError):
    """Trial-parameter optimum landed on the search-box boundary."""


class ConsistencyError(PhysicsError):
    """Operands belong to different geometries or photon roles."""


class AmplitudeUndefinedError(PhysicsError):
    """Both coupling amplitudes vanish; the amplitude ratio is undefined."""


class SpanTooNarrowError(PhysicsError):
    """Spectrum span does not contain both half-maximum crossings."""

    def __init__(self, message, suggested_span_nm=None):
        super().__init__(message)
        self.suggested_span_nm = suggested_span_nm


class DegeneratePatternError(PhysicsError):
    """The two poling periods coincide; no beat pattern exists."""


class NoFeasibleDesignError(PhysicsError):
    """Every candidate geometry in a search failed to produce a design."""
