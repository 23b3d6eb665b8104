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

_SCAN_AXES = ("signal_1", "idler_1", "signal_2", "idler_2")
_FORMATS = ("text", "records")


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
        return DesignRequest(
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


def _expect_mapping(value, block):
    if not isinstance(value, dict):
        raise ConfigurationError(f"{block}: expected a mapping, got {type(value).__name__}")
    return value


def _number(block, mapping, key, minimum=None):
    if key not in mapping:
        raise ConfigurationError(f"{block}: missing required field '{key}'")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigurationError(f"{block}.{key}: expected a finite number, got {value!r}")
    if minimum is not None and value <= minimum:
        raise ConfigurationError(f"{block}.{key}: must be greater than {minimum}")
    return float(value)


def _pairs(field, rows, layout):
    """A list of two-number rows as a tuple of finite float pairs; `layout`
    names the expected row shape in the error."""
    try:
        if isinstance(rows, list) and all(isinstance(r, list) and len(r) == 2 for r in rows):
            pairs = tuple((float(a), float(b)) for a, b in rows)
            if all(math.isfinite(v) for pair in pairs for v in pair):
                return pairs
    except (TypeError, ValueError):
        pass
    raise ConfigurationError(f"{field}: expected {layout}")


def _increment_table(data) -> IndexIncrementTable:
    entries = {}
    for key, pol in (("extraordinary", Polarization.EXTRAORDINARY),
                     ("ordinary", Polarization.ORDINARY)):
        if key not in data:
            continue
        entries[pol] = _pairs(f"material.index_increments.{key}", data[key],
                              "[[wavelength_nm, delta_n], ...]")
    if not entries:
        raise ConfigurationError("material.index_increments: no polarization tables given")
    return IndexIncrementTable(entries)


def _sellmeier(data, temperature) -> SellmeierModel:
    if isinstance(data, str):
        if data not in SELLMEIER_MODELS:
            known = ", ".join(sorted(SELLMEIER_MODELS))
            raise ConfigurationError(
                f"material.sellmeier: unknown set '{data}' (available: {known})"
            )
        model = SELLMEIER_MODELS[data]
        if temperature is not None and temperature != model.temperature_c:
            raise ConfigurationError(
                f"material.temperature_c: set '{model.name}' is tabulated at "
                f"{model.temperature_c:g} C, not {temperature:g} C"
            )
        return model
    mapping = _expect_mapping(data, "material.sellmeier")
    terms = {}
    for key, pol in (("ordinary", Polarization.ORDINARY),
                     ("extraordinary", Polarization.EXTRAORDINARY)):
        if key not in mapping:
            raise ConfigurationError(f"material.sellmeier: missing '{key}' terms")
        terms[pol] = _pairs(f"material.sellmeier.{key}", mapping[key], "[[B, C_um2], ...]")
    lo, hi = mapping.get("valid_range_nm", (400.0, 5000.0))
    return SellmeierModel(
        name=str(mapping.get("name", "custom")),
        temperature_c=float(temperature if temperature is not None else 25.0),
        valid_range_nm=(float(lo), float(hi)),
        terms=terms,
    )


def _material(data) -> Material:
    data = _expect_mapping(data, "material")
    temperature = data.get("temperature_c")
    sellmeier = _sellmeier(data.get("sellmeier", "zelmon1997"), temperature)
    increments = DEFAULT_INCREMENTS
    if "index_increments" in data:
        increments = _increment_table(_expect_mapping(data["index_increments"],
                                                      "material.index_increments"))
    profile = {
        "lateral_scale": DEFAULT_MATERIAL.lateral_scale,
        "depth_scale": DEFAULT_MATERIAL.depth_scale,
        **_expect_mapping(data.get("profile", {}), "material.profile"),
    }
    return Material(
        sellmeier=sellmeier,
        increments=increments,
        lateral_scale=_number("material.profile", profile, "lateral_scale", minimum=0.0),
        depth_scale=_number("material.profile", profile, "depth_scale", minimum=0.0),
    )


def _geometry(data) -> WaveguideGeometry:
    data = _expect_mapping(data, "geometry")
    return WaveguideGeometry(
        width_um=_number("geometry", data, "width_um", minimum=0.0),
        depth_um=_number("geometry", data, "depth_um", minimum=0.0),
        length_cm=_number("geometry", data, "length_cm", minimum=0.0),
    )


def _scan(data) -> ScanConfig:
    data = _expect_mapping(data, "scan")
    axis = data.get("axis")
    if axis not in _SCAN_AXES:
        raise ConfigurationError(f"scan.axis: expected one of {_SCAN_AXES}, got {axis!r}")
    samples = data.get("samples", 1001)
    if not isinstance(samples, int) or isinstance(samples, bool):
        raise ConfigurationError(f"scan.samples: expected an integer, got {samples!r}")
    model = data.get("index_model", "design-point")
    if model not in ("design-point", "dispersive"):
        raise ConfigurationError(f"scan.index_model: unknown model {model!r}")
    return ScanConfig(
        axis=axis,
        span_nm=_number("scan", data, "span_nm", minimum=0.0),
        samples=samples,
        index_model=model,
    )


def _float_list(block, key, value):
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"{block}.{key}: expected a non-empty list of numbers")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{block}.{key}: expected a non-empty list of numbers")


def _sweep(data) -> SweepConfig:
    data = _expect_mapping(data, "sweep")
    for key in ("depths_um", "widths_um"):
        if key not in data:
            raise ConfigurationError(f"sweep: missing required field '{key}'")
    pairing = data.get("pairing", "product")
    if pairing not in ("product", "zip"):
        raise ConfigurationError(f"sweep.pairing: expected 'product' or 'zip', got {pairing!r}")
    return SweepConfig(
        depths_um=_float_list("sweep", "depths_um", data["depths_um"]),
        widths_um=_float_list("sweep", "widths_um", data["widths_um"]),
        pairing=pairing,
    )


def _output(data) -> OutputConfig:
    data = _expect_mapping(data, "output")
    fmt = data.get("format", "text")
    if fmt not in _FORMATS:
        raise ConfigurationError(f"output.format: expected one of {_FORMATS}, got {fmt!r}")
    path = data.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigurationError(f"output.path: expected a string, got {path!r}")
    return OutputConfig(format=fmt, path=path)


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed YAML mapping into a RunConfig."""
    data = _expect_mapping(data, "config")
    known = {"material", "geometry", "process", "scan", "sweep", "output"}
    for key in data:
        if key not in known:
            raise ConfigurationError(f"config: unknown block '{key}'")

    material = _material(data["material"]) if "material" in data else DEFAULT_MATERIAL
    geometry = _geometry(data["geometry"]) if "geometry" in data else None

    scheme = pump = s1 = s2 = None
    if "process" in data:
        block = _expect_mapping(data["process"], "process")
        name = block.get("scheme")
        try:
            scheme = Scheme(name)
        except ValueError:
            allowed = ", ".join(s.value for s in Scheme)
            raise ConfigurationError(f"process.scheme: expected one of [{allowed}], got {name!r}")
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
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read config file: {error}")
    except yaml.YAMLError as error:
        mark = getattr(error, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigurationError(f"YAML parse error{where}: {error}")
    if data is None:
        raise ConfigurationError("config file is empty")
    return parse_config(data)
