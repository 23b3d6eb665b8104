"""Run configuration: a single YAML file with material / geometry / process /
scan / sweep / output blocks.

Wavelengths are nm, transverse sizes um, interaction lengths cm, indices
dimensionless.  Only the blocks a subcommand needs must be present; missing
blocks are reported by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .errors import ConfigurationError
from .mode_solver import WaveguideGeometry
from .spdc import SCAN_SAMPLES

_SCAN_AXES = ("signal_1", "idler_1", "signal_2", "idler_2")
_FORMATS = ("text", "records")
_SELLMEIER_SETS = tuple(sorted(SELLMEIER_MODELS))


@dataclass(frozen=True)
class ScanConfig:
    axis: str
    span_nm: float
    samples: int = 1001
    index_model: str = "design-point"


@dataclass(frozen=True)
class SweepConfig:
    depths_um: tuple[float, ...]
    widths_um: tuple[float, ...]
    pairing: str = "product"


@dataclass(frozen=True)
class OutputConfig:
    format: str = "text"
    path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    material: Material = DEFAULT_MATERIAL
    geometry: WaveguideGeometry | None = None
    scheme: Scheme | None = None
    pump_nm: float | None = None
    signal1_nm: float | None = None
    signal2_nm: float | None = None
    scan: ScanConfig | None = None
    sweep: SweepConfig | None = None
    output: OutputConfig = field(default_factory=OutputConfig)

    def request(self) -> DesignRequest:
        """DesignRequest from the geometry and process blocks."""
        if self.geometry is None:
            raise ConfigurationError("geometry: missing required block")
        if self.scheme is None:
            raise ConfigurationError("process: missing required block")
        return _field_error(
            "process", DesignRequest,
            scheme=self.scheme,
            pump_nm=self.pump_nm,
            signal1_nm=self.signal1_nm,
            signal2_nm=self.signal2_nm,
            geometry=self.geometry,
        )

    def require_scan(self) -> ScanConfig:
        if self.scan is None:
            raise ConfigurationError("scan: missing required block")
        return self.scan

    def require_sweep(self) -> SweepConfig:
        if self.sweep is None:
            raise ConfigurationError("sweep: missing required block")
        return self.sweep


def _block(data, name, known):
    """A mapping whose keys are all in `known`."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name}: expected a mapping, got {type(data).__name__}")
    for key in data:
        if key not in known:
            raise ConfigurationError(f"{name}: unknown field '{key}'")
    return data


def _finite(value):
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


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


def integer(field, value, low, high=None):
    """An integer in [low, high], or at least `low` when `high` is None."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < low
            or (high is not None and value > high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigurationError(f"{field}: expected an integer {bounds}, got {value!r}")
    return value


def csv_numbers(flag, text):
    """A comma-separated list from the command line, read like a config list."""
    try:
        values = [float(part) for part in text.split(",") if part]
    except ValueError:
        raise ConfigurationError(f"{flag}: expected comma-separated numbers, got {text!r}")
    return _numbers(flag, values)


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
    """The named or custom Sellmeier set of the material block, at its
    temperature."""
    if not isinstance(material.get("sellmeier"), dict):
        model = SELLMEIER_MODELS[
            _choice("material", material, "sellmeier", _SELLMEIER_SETS, "zelmon1997")
        ]
        temperature = _number("material", material, "temperature_c", default=model.temperature_c)
        if temperature != model.temperature_c:
            raise ConfigurationError(
                f"material.temperature_c: set '{model.name}' is tabulated at "
                f"{model.temperature_c:g} C, not {temperature:g} C"
            )
        return model
    mapping = _block(material["sellmeier"], "material.sellmeier",
                     ("name", "ordinary", "extraordinary", "valid_range_nm"))
    terms = {}
    for key, pol in (("ordinary", Polarization.ORDINARY),
                     ("extraordinary", Polarization.EXTRAORDINARY)):
        if key not in mapping:
            raise ConfigurationError(f"material.sellmeier: missing '{key}' terms")
        terms[pol] = _pairs(f"material.sellmeier.{key}", mapping[key], "[[B, C_um2], ...]")
    valid = _numbers("material.sellmeier.valid_range_nm",
                     mapping.get("valid_range_nm", [400.0, 5000.0]))
    if len(valid) != 2 or valid[0] >= valid[1]:
        raise ConfigurationError(
            f"material.sellmeier.valid_range_nm: expected [low_nm, high_nm] with "
            f"low < high, got {valid!r}"
        )
    return SellmeierModel(
        name=str(mapping.get("name", "material.sellmeier")),
        temperature_c=_number("material", material, "temperature_c", default=25.0),
        valid_range_nm=valid,
        terms=terms,
    )


def _material(data) -> Material:
    data = _block(data, "material", ("sellmeier", "temperature_c", "index_increments", "profile"))
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
        samples=integer("scan.samples", data.get("samples", 1001), *SCAN_SAMPLES),
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


def _output(data) -> OutputConfig:
    data = _block(data, "output", ("format", "path"))
    path = data.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigurationError(f"output.path: expected a string, got {path!r}")
    return OutputConfig(format=_choice("output", data, "format", _FORMATS, "text"), path=path)


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed YAML mapping into a RunConfig."""
    data = _block(data, "config", ("material", "geometry", "process", "scan", "sweep", "output"))

    material = _material(data["material"]) if "material" in data else DEFAULT_MATERIAL
    geometry = _geometry(data["geometry"]) if "geometry" in data else None

    scheme = pump = s1 = s2 = None
    if "process" in data:
        block = _block(data["process"], "process",
                       ("scheme", "pump_nm", "signal1_nm", "signal2_nm"))
        scheme = Scheme(_choice("process", block, "scheme", tuple(s.value for s in Scheme), None))
        pump = _number("process", block, "pump_nm", minimum=0.0)
        s1 = _number("process", block, "signal1_nm", minimum=0.0)
        s2 = _number("process", block, "signal2_nm", minimum=0.0)

    return RunConfig(
        material=material,
        geometry=geometry,
        scheme=scheme,
        pump_nm=pump,
        signal1_nm=s1,
        signal2_nm=s2,
        scan=_scan(data["scan"]) if "scan" in data else None,
        sweep=_sweep(data["sweep"]) if "sweep" in data else None,
        output=_output(data["output"]) if "output" in data else OutputConfig(),
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a YAML config file; parse errors carry line/column."""
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
    if data is None:
        raise ConfigurationError("config file is empty")
    return parse_config(data)
