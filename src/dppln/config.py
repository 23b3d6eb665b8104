"""Run configuration: a single YAML file with material / geometry / process /
scan / sweep blocks.

The config says what to compute; how to run it is the command line's.
Wavelengths are nm, transverse sizes um, interaction lengths cm, indices
dimensionless.  The geometry and process blocks are required, the scan and
sweep blocks only by the subcommand that reads each; missing blocks are
reported by name, unknown fields as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import yaml

from .design_search import DesignRequest, Scheme
from .dispersion import (
    DEFAULT_INCREMENTS,
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
_SELLMEIER_SETS = tuple(sorted(SELLMEIER_MODELS))


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


def _block(data, name, known):
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


def _number(block, mapping, key, minimum=None, default=None):
    """A finite number, greater than `minimum` when given; a missing field
    takes `default`, or is an error when there is none."""
    if key not in mapping:
        if default is None:
            raise ConfigurationError(f"{block}: missing required field '{key}'")
        return default
    value = mapping[key]
    if not _finite(value):
        raise ConfigurationError(f"{block}.{key}: expected a finite number, got {value!r}")
    if minimum is not None and value <= minimum:
        raise ConfigurationError(f"{block}.{key}: must be greater than {minimum}")
    return float(value)


def _numbers(field, values):
    """A non-empty list of finite numbers as a tuple of floats."""
    if not (isinstance(values, list) and values and all(map(_finite, values))):
        raise ConfigurationError(
            f"{field}: expected a non-empty list of finite numbers, got {values!r}"
        )
    return tuple(float(v) for v in values)


def _choice(block, mapping, key, allowed, default):
    value = mapping.get(key, default)
    if value not in allowed:
        raise ConfigurationError(f"{block}.{key}: expected one of {allowed}, got {value!r}")
    return value


def _pairs(field, rows, layout):
    """A list of two-number rows as a tuple of float pairs; `layout` names the
    expected row shape in the error."""
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and len(r) == 2 and all(map(_finite, r)) for r in rows)):
        raise ConfigurationError(f"{field}: expected {layout}")
    return tuple((float(a), float(b)) for a, b in rows)


def _field_error(prefix, build, **values):
    """`build(**values)`, its ConfigurationError prefixed by `prefix` and the
    field the error names."""
    try:
        return build(**values)
    except ConfigurationError as error:
        raise ConfigurationError(f"{prefix}.{error.field}: {error}") from None


def _increment_table(data) -> IndexIncrementTable:
    data = _block(data, "material.index_increments", ("extraordinary", "ordinary"))
    entries = {}
    for key, pol in (("extraordinary", Polarization.EXTRAORDINARY),
                     ("ordinary", Polarization.ORDINARY)):
        if key not in data:
            continue
        entries[pol] = _pairs(f"material.index_increments.{key}", data[key],
                              "[[wavelength_nm, delta_n], ...]")
    if not entries:
        raise ConfigurationError("material.index_increments: no polarization tables given")
    return _field_error("material.index_increments", IndexIncrementTable, entries=entries)


def _sellmeier(material) -> SellmeierModel:
    """The named or custom Sellmeier set of the material block."""
    if not isinstance(material.get("sellmeier"), dict):
        return SELLMEIER_MODELS[
            _choice("material", material, "sellmeier", _SELLMEIER_SETS, "zelmon1997")
        ]
    mapping = _block(material["sellmeier"], "material.sellmeier",
                     ("name", "ordinary", "extraordinary", "valid_range_nm"))
    terms = {}
    for key, pol in (("ordinary", Polarization.ORDINARY),
                     ("extraordinary", Polarization.EXTRAORDINARY)):
        if key not in mapping:
            raise ConfigurationError(f"material.sellmeier: missing '{key}' terms")
        terms[pol] = _pairs(f"material.sellmeier.{key}", mapping[key], "[[B, C_um2], ...]")
    return _field_error(
        "material.sellmeier", SellmeierModel,
        name=str(mapping.get("name", "material.sellmeier")),
        valid_range_nm=_numbers("material.sellmeier.valid_range_nm",
                                mapping.get("valid_range_nm", [400.0, 5000.0])),
        terms=terms,
    )


def _material(data) -> Material:
    data = _block(data, "material", ("sellmeier", "index_increments", "profile"))
    increments = DEFAULT_INCREMENTS
    if "index_increments" in data:
        increments = _increment_table(data["index_increments"])
    profile = _block(data.get("profile", {}), "material.profile", ("lateral_scale", "depth_scale"))
    return Material(
        sellmeier=_sellmeier(data),
        increments=increments,
        lateral_scale=_number("material.profile", profile, "lateral_scale", minimum=0.0,
                              default=DEFAULT_MATERIAL.lateral_scale),
        depth_scale=_number("material.profile", profile, "depth_scale", minimum=0.0,
                            default=DEFAULT_MATERIAL.depth_scale),
    )


def _geometry(data) -> WaveguideGeometry:
    data = _block(data, "geometry", ("width_um", "depth_um", "length_cm"))
    return _field_error(
        "geometry", WaveguideGeometry,
        width_um=_number("geometry", data, "width_um", minimum=0.0),
        depth_um=_number("geometry", data, "depth_um", minimum=0.0),
        length_cm=_number("geometry", data, "length_cm", minimum=0.0),
    )


def _scan(data) -> ScanConfig:
    data = _block(data, "scan", ("axis", "span_nm", "samples", "index_model"))
    return ScanConfig(
        axis=_choice("scan", data, "axis", _SCAN_AXES, None),
        span_nm=_number("scan", data, "span_nm", minimum=0.0),
        samples=require_integer("scan.samples", data.get("samples", 1001), *SCAN_SAMPLES),
        index_model=_choice("scan", data, "index_model", ("design-point", "dispersive"),
                            "design-point"),
    )


def _sweep(data) -> SweepConfig:
    data = _block(data, "sweep", ("depths_um", "widths_um", "pairing"))
    for key in ("depths_um", "widths_um"):
        if key not in data:
            raise ConfigurationError(f"sweep: missing required field '{key}'")
    return SweepConfig(
        depths_um=_numbers("sweep.depths_um", data["depths_um"]),
        widths_um=_numbers("sweep.widths_um", data["widths_um"]),
        pairing=_choice("sweep", data, "pairing", ("product", "zip"), "product"),
    )


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed YAML mapping into a RunConfig; the required geometry
    and process blocks become its request, built and checked here."""
    data = _block(data, "config", ("material", "geometry", "process", "scan", "sweep"))
    material = _material(data["material"]) if "material" in data else DEFAULT_MATERIAL
    geometry = _geometry(required("geometry", data.get("geometry")))
    block = _block(required("process", data.get("process")), "process",
                   ("scheme", "pump_nm", "signal1_nm", "signal2_nm"))
    request = _field_error(
        "process", DesignRequest, geometry=geometry,
        scheme=Scheme(_choice("process", block, "scheme", tuple(s.value for s in Scheme), None)),
        pump_nm=_number("process", block, "pump_nm", minimum=0.0),
        signal1_nm=_number("process", block, "signal1_nm", minimum=0.0),
        signal2_nm=_number("process", block, "signal2_nm", minimum=0.0),
    )
    # an empty scan: or sweep: key is an absent block, which only the command
    # that reads it rejects, through `required`
    return RunConfig(material, request,
                     None if data.get("scan") is None else _scan(data["scan"]),
                     None if data.get("sweep") is None else _sweep(data["sweep"]))


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
