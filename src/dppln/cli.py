"""Command-line front end.

Subcommands: index, design, sweep, spectrum, poling.  Every command reads a
YAML config (see `config`) and builds a payload; `main` writes it either as a
human-readable report (text) or as machine-readable JSON (records).  The
config says what to compute; the command line says only how to run it:
`--format`, `--out` and, for `sweep`, `--parallel`.  Output is fully
deterministic: the same config produces byte-identical output.
Exit codes: 0 success, 2 configuration error, 3 physics error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import RunConfig, load_config, required
from .design_search import ROLES, EffectiveIndexSolver, design, phase_match, solve_modes, sweep
from .errors import ConfigurationError, PhysicsError, require_integer
from .spdc import spectrum_scan, synthesize_poling

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3


class _Fixed(float):
    """A value already rounded for output; records formatting keeps it."""


def _machine(value):
    """Records formatting: every float to 9 significant digits, recursively."""
    if isinstance(value, dict):
        return {k: _machine(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_machine(v) for v in value]
    if isinstance(value, float) and not isinstance(value, _Fixed):
        return float(format(value, ".9g"))
    return value


def _report(value):
    """4-significant-digit report formatting."""
    return format(value, ".4g")


def cmd_index(config: RunConfig, args) -> dict:
    modes = solve_modes(config.request(), config.material)
    rows = []
    for role in ROLES:
        mode = modes[role]
        profile = mode.profile
        rows.append(
            dict(
                wave=role,
                wavelength_nm=mode.wavelength_nm,
                polarization=str(mode.polarization),
                n_bulk=profile.bulk_index,
                delta_n=profile.increment,
                n_eff=mode.n_eff,
            )
        )
    return {"waves": rows}


def text_index(payload) -> str:
    lines = [f"{'wave':>9} {'lambda_nm':>10} {'pol':>13} {'n_bulk':>8} {'delta_n':>9} {'n_eff':>8}"]
    for row in payload["waves"]:
        lines.append(
            f"{row['wave']:>9} {row['wavelength_nm']:>10.2f} {row['polarization']:>13} "
            f"{row['n_bulk']:>8.4f} {row['delta_n']:>9.4f} {row['n_eff']:>8.4f}"
        )
    return "\n".join(lines) + "\n"


def cmd_design(config: RunConfig, args) -> dict:
    result = design(config.request(), config.material)
    return dict(
        scheme=result.request.scheme.value,
        width_um=result.request.geometry.width_um,
        depth_um=result.request.geometry.depth_um,
        length_cm=result.request.geometry.length_cm,
        period1_um=result.period1_um,
        period2_um=result.period2_um,
        gamma=result.gamma,
        weight_1=result.state_weights[0],
        weight_2=result.state_weights[1],
        entropy_bits=result.entropy_bits,
        overlap1_per_um=result.overlap_1,
        overlap2_per_um=result.overlap_2,
        fwhm_signal1_nm=result.spectra["signal_1"].fwhm_nm,
        fwhm_idler1_nm=result.spectra["idler_1"].fwhm_nm,
        fwhm_signal2_nm=result.spectra["signal_2"].fwhm_nm,
        fwhm_idler2_nm=result.spectra["idler_2"].fwhm_nm,
    )


def text_design(payload) -> str:
    lines = [
        f"scheme            {payload['scheme']}",
        f"geometry          w = {_report(payload['width_um'])} um, "
        f"h = {_report(payload['depth_um'])} um, L = {_report(payload['length_cm'])} cm",
        f"period_1          {_report(payload['period1_um'])} um",
        f"period_2          {_report(payload['period2_um'])} um",
        f"gamma             {_report(payload['gamma'])}",
        f"state weights     ({_report(payload['weight_1'])}, {_report(payload['weight_2'])})",
        f"entropy           {_report(payload['entropy_bits'])} bits",
        f"overlaps          ({_report(payload['overlap1_per_um'])}, "
        f"{_report(payload['overlap2_per_um'])}) 1/um",
        "bandwidth (FWHM)  "
        f"signal_1 {_report(payload['fwhm_signal1_nm'])} nm, "
        f"idler_1 {_report(payload['fwhm_idler1_nm'])} nm, "
        f"signal_2 {_report(payload['fwhm_signal2_nm'])} nm, "
        f"idler_2 {_report(payload['fwhm_idler2_nm'])} nm",
    ]
    return "\n".join(lines) + "\n"


# sweep() field at fault -> the config fields it came from
_SWEEP_FIELDS = {"depths_um": "sweep.depths_um", "widths_um": "sweep.widths_um",
                 "pairing": "sweep.depths_um, sweep.widths_um"}


def cmd_sweep(config: RunConfig, args) -> dict:
    template = config.request()
    block = required("sweep", config.sweep)
    workers = None if args.parallel is None else require_integer("--parallel", args.parallel, 1)
    try:
        result = sweep(template, block.depths_um, block.widths_um, material=config.material,
                       pairing=block.pairing, max_workers=workers)
    except ConfigurationError as error:
        if error.field not in _SWEEP_FIELDS:
            raise
        raise ConfigurationError(f"{_SWEEP_FIELDS[error.field]}: {error}") from None
    rows = [
        dict(
            depth_um=row.depth_um,
            width_um=row.width_um,
            gamma=row.gamma,
            period1_um=row.period1_um,
            period2_um=row.period2_um,
            status="ok" if row.error is None else row.error,
        )
        for row in result.rows
    ]
    return {"scheme": result.scheme.value, "rows": rows}


def text_sweep(payload) -> str:
    lines = ["depth_um,width_um,gamma,period1_um,period2_um,status"]
    for row in payload["rows"]:
        if row["status"] == "ok":
            lines.append(
                f"{row['depth_um']:g},{row['width_um']:g},{row['gamma']:.4f},"
                f"{row['period1_um']:.4f},{row['period2_um']:.4f},ok"
            )
        else:
            message = row["status"].replace(",", ";")
            lines.append(f"{row['depth_um']:g},{row['width_um']:g},,,,{message}")
    return "\n".join(lines) + "\n"


def cmd_spectrum(config: RunConfig, args) -> dict:
    scan = required("scan", config.scan)
    request = config.request()
    result = phase_match(request, solve_modes(request, config.material))
    process = result.process_1 if scan.axis.endswith("_1") else result.process_2
    axis = "signal" if scan.axis.startswith("signal") else "idler"
    geometry = result.request.geometry
    # the scan reads the provider only for the dispersive index model
    provider = EffectiveIndexSolver(config.material, geometry).index
    try:
        spectrum = spectrum_scan(process, axis, scan.span_nm, scan.samples, geometry.length_cm,
                                 index_provider=provider, index_model=scan.index_model)
    except ConfigurationError as error:
        if error.field != "span_nm":
            raise
        raise ConfigurationError(f"scan.span_nm: {error}") from None
    return dict(
        axis=scan.axis,
        center_nm=spectrum.center_nm,
        fwhm_nm=spectrum.fwhm_nm,
        wavelength_nm=spectrum.wavelengths_nm.tolist(),
        gain=spectrum.gain.tolist(),
    )


def text_spectrum(payload) -> str:
    lines = [
        f"# axis = {payload['axis']}",
        f"# center_nm = {format(payload['center_nm'], '.9g')}",
        f"# fwhm_nm = {format(payload['fwhm_nm'], '.9g')}",
        "# wavelength_nm gain",
    ]
    for lam, g in zip(payload["wavelength_nm"], payload["gain"]):
        lines.append(f"{lam:.6f} {g:.9e}")
    return "\n".join(lines) + "\n"


def cmd_poling(config: RunConfig, args) -> dict:
    request = config.request()
    result = phase_match(request, solve_modes(request, config.material))
    pattern = synthesize_poling(
        result.period1_um, result.period2_um, result.request.geometry.length_cm
    )
    # boundaries are reported on a 1 pm grid in both formats
    return dict(
        length_um=pattern.length_um,
        first_sign=pattern.first_sign,
        boundaries_um=[_Fixed(format(b, ".6f")) for b in pattern.boundaries_um],
    )


def text_poling(payload) -> str:
    return "\n".join(f"{b:.6f}" for b in payload["boundaries_um"]) + "\n"


# command -> (payload builder, text renderer of that payload, help text)
_COMMANDS = {
    "index": (cmd_index, text_index, "bulk and effective indices of the five interacting waves"),
    "design": (cmd_design, text_design, "periods, degree of entanglement, weights and bandwidths"),
    "sweep": (cmd_sweep, text_sweep, "one design row per geometry"),
    "spectrum": (cmd_spectrum, text_spectrum, "two-column sinc^2 gain spectrum with FWHM summary"),
    "poling": (cmd_poling, text_poling, "dual-period domain-boundary list"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppln",
        description="Dual-period quasi-phase-matched waveguide design toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the YAML run config")
        cmd.add_argument("--out", default=None, help="write output to this file, not stdout")
        cmd.add_argument("--format", choices=("text", "records"), default="text",
                         help="text report or 9-significant-digit JSON records")
        if name == "sweep":
            cmd.add_argument("--parallel", type=int, default=None,
                             help="number of worker processes")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    build, render, _ = _COMMANDS[args.command]
    try:
        payload = build(load_config(args.config), args)
        if args.format == "records":
            content = json.dumps(_machine(payload), indent=2) + "\n"
        else:
            content = render(payload)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(content)
            except OSError as error:
                raise ConfigurationError(f"cannot write output file: {error}")
        else:
            sys.stdout.write(content)
    except ConfigurationError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as error:
        print(f"physics error: {error}", file=sys.stderr)
        return EXIT_PHYSICS
    return EXIT_OK


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
