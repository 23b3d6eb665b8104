"""Run configuration: a single YAML file with material / geometry / process /
scan / sweep blocks.

The config says what to compute; how to run it is the command line's.
Wavelengths are nm, transverse sizes um, interaction lengths cm, indices
dimensionless.  The geometry and process blocks are required, the scan and
sweep blocks only by the subcommand that reads each.  Every field is read
by `_field`: a key with nothing under it is a key left out, which takes its
default or, with none, is a missing field named by its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import yaml

from .design_search import DesignRequest, Scheme
from .dispersion import (
    DEFAULT_MATERIAL,
    SELLMEIER_MODELS,
    IndexIncrementTable,
    Material,
    Polarization,
    SellmeierModel,
)
from .errors import ConfigurationError, real, require_integer
from .mode_solver import WaveguideGeometry
from .spdc import SCAN_SAMPLES

_SCAN_AXES = ("signal_1", "idler_1", "signal_2", "idler_2")
_SCHEMES = tuple(s.value for s in Scheme)
_SELLMEIER_SETS = tuple(sorted(SELLMEIER_MODELS))
_REQUIRED = object()  # the default of a field that has none


@dataclass(frozen=True)
class ScanConfig:
    axis: str
    span_nm: float
    samples: int
    index_model: str


@dataclass(frozen=True)
class SweepConfig:
    depths_um: tuple[float, ...]
    widths_um: tuple[float, ...]
    pairing: str


@dataclass(frozen=True)
class RunConfig:
    """Material, the DesignRequest of the geometry and process blocks, built
    and checked at load, and the scan and sweep blocks or None."""

    material: Material
    _request: DesignRequest
    scan: ScanConfig | None
    sweep: SweepConfig | None

    def request(self) -> DesignRequest:
        """The DesignRequest that `parse_config` built and checked."""
        return self._request


def required(name, block):
    """`block`, the config's block `name`; None, a block the config does not
    give, is a ConfigurationError."""
    if block is None:
        raise ConfigurationError(f"{name}: missing required block")
    return block


def _field(mapping, name, read, default=_REQUIRED):
    """`read(name, value)` of the field `name`, "<block>.<key>", in its
    block's `mapping`.  An absent key and an empty (null) one are the same:
    the field takes `default`, or is missing when it has none."""
    block, _, key = name.rpartition(".")
    value = mapping.get(key)
    if value is not None:
        return read(name, value)
    if default is _REQUIRED:
        raise ConfigurationError(f"{block}: missing required field '{key}'")
    return default


def _block(name, data, known):
    """A mapping whose keys are all in `known`."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name}: expected a mapping, got {type(data).__name__}")
    for key in data:
        if key not in known:
            raise ConfigurationError(f"{name}: unknown field '{key}'")
    return data


def _finite(value):
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(real(value)))


def _positive(name, value):
    """A finite positive number as a float."""
    if not (_finite(value) and value > 0):
        raise ConfigurationError(f"{name}: expected a finite positive number, got {value!r}")
    return float(value)


def _numbers(name, values):
    """A non-empty list of finite numbers as a tuple of floats."""
    if not (isinstance(values, list) and values and all(map(_finite, values))):
        raise ConfigurationError(f"{name}: expected a non-empty list of finite numbers, "
                                 f"got {values!r}")
    return tuple(float(v) for v in values)


def _choice(allowed, name, value):
    if value not in allowed:
        raise ConfigurationError(f"{name}: expected one of {allowed}, got {value!r}")
    return value


def _pairs(layout, name, rows):
    """A list of two-number rows as a tuple of float pairs; `layout` names the
    expected row shape in the error."""
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and len(r) == 2 and all(map(_finite, r)) for r in rows)):
        raise ConfigurationError(f"{name}: expected {layout}")
    return tuple((float(a), float(b)) for a, b in rows)


def _field_error(prefix, build, **values):
    """`build(**values)`, its ConfigurationError prefixed by `prefix` and the
    field the error names."""
    try:
        return build(**values)
    except ConfigurationError as error:
        raise ConfigurationError(f"{prefix}.{error.field}: {error}") from None


def _increments(name, data) -> IndexIncrementTable:
    data = _block(name, data, ("extraordinary", "ordinary"))
    rows = partial(_pairs, "[[wavelength_nm, delta_n], ...]")
    tables = {pol: _field(data, f"{name}.{pol}", rows, None)
              for pol in (Polarization.EXTRAORDINARY, Polarization.ORDINARY)}
    entries = {pol: table for pol, table in tables.items() if table is not None}
    if not entries:
        raise ConfigurationError(f"{name}: no polarization tables given")
    return _field_error(name, IndexIncrementTable, entries=entries)


def _sellmeier(name, value) -> SellmeierModel:
    """A named Sellmeier set, or a custom one given as a mapping."""
    if not isinstance(value, dict):
        return SELLMEIER_MODELS[_choice(_SELLMEIER_SETS, name, value)]
    data = _block(name, value, ("name", "ordinary", "extraordinary", "valid_range_nm"))
    terms = partial(_pairs, "[[B, C_um2], ...]")
    return _field_error(
        name, SellmeierModel,
        terms={pol: _field(data, f"{name}.{pol}", terms)
               for pol in (Polarization.ORDINARY, Polarization.EXTRAORDINARY)},
        name=_field(data, f"{name}.name", lambda _, given: str(given), name),
        valid_range_nm=_field(data, f"{name}.valid_range_nm", _numbers, (400.0, 5000.0)),
    )


def _material(name, data) -> Material:
    data = _block(name, data, ("sellmeier", "index_increments", "profile"))
    scales = ("lateral_scale", "depth_scale")
    profile = _field(data, f"{name}.profile", partial(_block, known=scales), {})
    return Material(
        sellmeier=_field(data, f"{name}.sellmeier", _sellmeier, DEFAULT_MATERIAL.sellmeier),
        increments=_field(data, f"{name}.index_increments", _increments,
                          DEFAULT_MATERIAL.increments),
        **{key: _field(profile, f"{name}.profile.{key}", _positive, getattr(DEFAULT_MATERIAL, key))
           for key in scales},
    )


def _geometry(name, data) -> WaveguideGeometry:
    keys = ("width_um", "depth_um", "length_cm")
    data = _block(name, data, keys)
    return _field_error(name, WaveguideGeometry,
                        **{key: _field(data, f"{name}.{key}", _positive) for key in keys})


def _request(geometry, name, data) -> DesignRequest:
    """The DesignRequest of the process block `data` on `geometry`."""
    wavelengths = ("pump_nm", "signal1_nm", "signal2_nm")
    data = _block(name, data, ("scheme", *wavelengths))
    return _field_error(
        name, DesignRequest, geometry=geometry,
        scheme=Scheme(_field(data, f"{name}.scheme", partial(_choice, _SCHEMES))),
        **{key: _field(data, f"{name}.{key}", _positive) for key in wavelengths},
    )


def _scan(name, data) -> ScanConfig:
    data = _block(name, data, ("axis", "span_nm", "samples", "index_model"))
    return ScanConfig(
        axis=_field(data, f"{name}.axis", partial(_choice, _SCAN_AXES)),
        span_nm=_field(data, f"{name}.span_nm", _positive),
        samples=_field(data, f"{name}.samples",
                       lambda name, value: require_integer(name, value, *SCAN_SAMPLES), 1001),
        index_model=_field(data, f"{name}.index_model",
                           partial(_choice, ("design-point", "dispersive")), "design-point"),
    )


def _sweep(name, data) -> SweepConfig:
    data = _block(name, data, ("depths_um", "widths_um", "pairing"))
    return SweepConfig(
        depths_um=_field(data, f"{name}.depths_um", _numbers),
        widths_um=_field(data, f"{name}.widths_um", _numbers),
        pairing=_field(data, f"{name}.pairing", partial(_choice, ("product", "zip")), "product"),
    )


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed YAML mapping into a RunConfig; the required geometry
    and process blocks become its request, built and checked here.  The scan
    and sweep blocks are None when absent; only the command that reads one
    requires it."""
    data = _block("config", data, ("material", "geometry", "process", "scan", "sweep"))
    material = _field(data, "material", _material, DEFAULT_MATERIAL)
    geometry = required("geometry", _field(data, "geometry", _geometry, None))
    request = required("process", _field(data, "process", partial(_request, geometry), None))
    return RunConfig(material, request, _field(data, "scan", _scan, None),
                     _field(data, "sweep", _sweep, None))


def load_config(path: str) -> RunConfig:
    """Read and validate a YAML config file, its request built and checked at
    load; parse errors carry line/column."""
    try:
        with open(path, "rb") as handle:
            data = yaml.safe_load(handle.read().decode("utf-8"))
    except OSError as error:
        raise ConfigurationError(f"cannot read config file: {error}")
    except UnicodeDecodeError as error:
        raise ConfigurationError(
            f"cannot read config file: not UTF-8 ({error.reason} at byte {error.start})")
    except yaml.YAMLError as error:
        mark = getattr(error, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigurationError(f"YAML parse error{where}: {error}")
    except RecursionError:
        raise ConfigurationError("YAML parse error: the config nests too deeply")
    except ValueError as error:  # a scalar Python cannot hold, e.g. an int of 5000 digits
        raise ConfigurationError(f"YAML parse error: {error}")
    if data is None:
        raise ConfigurationError("config file is empty")
    return parse_config(data)
