"""Correctness gate: reference fingerprint, invariants and CLI output checks.

Every check returns a list of problems; an empty list means the operation
passed.  Any problem makes the operation count as failed.

The reference fingerprint was recorded from the seed commit of the
benchmark.  Regenerate it only when a change alters results on purpose:

    python3 perfbench/gate.py --write-reference
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import subprocess
import sys
from time import perf_counter

import inputs
from paths import OUT, REFERENCE, ROOT, child_env, use_checkout_src

# Relative tolerance on fingerprint values (ROADMAP: 1e-9 relative).
REL_TOL = 1e-9
ROLES = ("pump", "signal_1", "idler_1", "signal_2", "idler_2")
SPECTRA = ("signal_1", "idler_1", "signal_2", "idler_2")
# A failed sweep row names the wave or process at fault.
FAULT_TAGS = ROLES + ("process_1", "process_2")
REFERENCE_SWEEP_UM = (3.0, 9.0, 21.0)


def sig12(x: float) -> float:
    return float(format(x, ".12g"))


def compare(actual, reference, where: str = "") -> list[str]:
    """Recursive comparison; floats within REL_TOL, everything else equal."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict) or set(actual) != set(reference):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual} "
                    f"!= {sorted(reference)}"]
        return [p for k in reference for p in compare(actual[k], reference[k], f"{where}.{k}")]
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{where}: {actual!r} != {reference!r}"]
        return [p for i, (a, r) in enumerate(zip(actual, reference))
                for p in compare(a, r, f"{where}[{i}]")]
    if isinstance(reference, float) and isinstance(actual, (int, float)):
        if abs(actual - reference) <= REL_TOL * abs(reference):
            return []
        return [f"{where}: {actual!r} deviates from reference {reference!r}"]
    return [] if actual == reference else [f"{where}: {actual!r} != reference {reference!r}"]


def design_fingerprint(result) -> dict:
    """gamma, both periods, five n_eff, both overlaps and four FWHM."""
    return {
        "gamma": sig12(result.gamma),
        "period1_um": sig12(result.period1_um),
        "period2_um": sig12(result.period2_um),
        "n_eff": {role: sig12(result.modes[role].n_eff) for role in ROLES},
        "overlap_1": sig12(result.overlap_1),
        "overlap_2": sig12(result.overlap_2),
        "fwhm_nm": {key: sig12(result.spectra[key].fwhm_nm) for key in SPECTRA},
    }


def design_invariants(result, mode_solver, spdc) -> list[str]:
    """Physical invariants every design must satisfy."""
    problems = []
    m1, m2 = result.amplitude_1.magnitude, result.amplitude_2.magnitude
    if not 0.0 < result.gamma <= 1.0:
        problems.append(f"gamma {result.gamma!r} outside (0, 1]")
    elif abs(result.gamma - min(m1, m2) / max(m1, m2)) > 1e-12:
        problems.append(f"gamma {result.gamma!r} != min/max of amplitudes")
    if abs(sum(result.state_weights) - 1.0) > 1e-12:
        problems.append(f"state weights {result.state_weights} do not sum to 1")
    for role in ROLES:
        mode = result.modes[role]
        nb, dn = mode.profile.bulk_index, mode.profile.increment
        if not nb < mode.n_eff < nb + dn:
            problems.append(f"{role}: n_eff {mode.n_eff!r} outside ({nb!r}, {nb + dn!r})")
        rq = mode_solver.rayleigh_quotient(mode.profile, mode.wavelength_nm,
                                           mode.alpha_y, mode.alpha_z)
        if abs(mode.n_eff**2 - rq) > 1e-12 * rq:
            problems.append(f"{role}: n_eff^2 {mode.n_eff**2!r} != Rayleigh quotient {rq!r}")
    length = result.request.geometry.length_cm
    for key in SPECTRA:
        process = result.process_1 if key.endswith("1") else result.process_2
        spectrum = result.spectra[key]
        estimate = spdc.estimate_fwhm_nm(process, spectrum.role, length)
        if abs(spectrum.fwhm_nm - estimate) > 1e-4 * estimate:
            problems.append(f"{key}: FWHM {spectrum.fwhm_nm!r} nm vs estimate {estimate!r} nm")
    return problems


def sweep_row_status(row) -> str:
    """'ok', or 'fail:<tag>' with the wave or process the error names."""
    if row.error is None:
        return "ok"
    tag = row.error.split(" ", 1)[0]
    return f"fail:{tag}"


def sweep_row_problems(row) -> list[str]:
    where = f"row ({row.depth_um:g}, {row.width_um:g})"
    if row.error is None:
        if row.gamma is None or not 0.0 < row.gamma <= 1.0:
            return [f"{where}: gamma {row.gamma!r} outside (0, 1]"]
        if not (row.period1_um > 0.0 and row.period2_um > 0.0):
            return [f"{where}: non-positive period"]
        return []
    if sweep_row_status(row)[5:] not in FAULT_TAGS or " (" not in row.error:
        return [f"{where}: error does not name the wave or process: {row.error!r}"]
    return []


def sweep_fingerprint(result) -> list[dict]:
    return [{"status": sweep_row_status(row),
             "gamma": None if row.gamma is None else sig12(row.gamma)}
            for row in result.rows]


def dispersive_problems(spectrum) -> list[str]:
    """The dispersive gain peaks at the scan centre and never exceeds 1."""
    problems = []
    centre = len(spectrum.gain) // 2
    peak = int(spectrum.gain.argmax())
    if peak != centre:
        problems.append(f"dispersive gain peaks at sample {peak}, not at the centre {centre}")
    if float(spectrum.gain.max()) > 1.0:
        problems.append(f"dispersive gain {float(spectrum.gain.max())!r} exceeds 1")
    if not spectrum.fwhm_nm > 0.0:
        problems.append(f"dispersive FWHM {spectrum.fwhm_nm!r} not positive")
    return problems


def spectrum_fingerprint(spectrum) -> dict:
    return {"fwhm_nm": sig12(spectrum.fwhm_nm), "gain_sum": sig12(float(spectrum.gain.sum())),
            "samples": len(spectrum.gain)}


# Numbers as the CLI prints them: not part of an identifier like "period1_um".
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _printed_ulp(token: str) -> float:
    """One unit in the last printed digit; 0 for integers, which print exactly."""
    mantissa, _, exponent = token.lower().partition("e")
    if "." not in mantissa:
        return 0.0 if not exponent else 10.0 ** int(exponent)
    decimals = len(mantissa.split(".", 1)[1])
    return 10.0 ** (int(exponent or 0) - decimals)


def output_summary(text: str) -> dict:
    """Compact, tolerance-aware digest of one CLI output.

    The text with every number replaced by '#' must match exactly; the
    numbers are compared through their count, their sum and the first and
    last few values, each allowed REL_TOL plus one unit in the last printed
    digit, so rounding of an unchanged result never counts as a change.
    """
    tokens = _NUMBER.findall(text)
    values = [float(t) for t in tokens]
    ulps = [_printed_ulp(t) for t in tokens]
    return {
        "lines": text.count("\n"),
        "skeleton": hashlib.sha256(_NUMBER.sub("#", text).encode()).hexdigest(),
        "count": len(values),
        "sum": math.fsum(values),
        "sum_tol": math.fsum(REL_TOL * abs(v) + u for v, u in zip(values, ulps)),
        "head": [[v, u] for v, u in zip(values[:8], ulps[:8])],
        "tail": [[v, u] for v, u in zip(values[-8:], ulps[-8:])],
    }


def output_problems(text: str, reference: dict) -> list[str]:
    actual = output_summary(text)
    problems = [f"{key}: {actual[key]!r} != reference {reference[key]!r}"
                for key in ("lines", "skeleton", "count") if actual[key] != reference[key]]
    if problems:
        return problems
    if abs(actual["sum"] - reference["sum"]) > actual["sum_tol"] + reference["sum_tol"]:
        problems.append(f"sum of numbers {actual['sum']!r} != reference {reference['sum']!r}")
    for part in ("head", "tail"):
        for (a, ua), (r, ur) in zip(actual[part], reference[part]):
            if abs(a - r) > REL_TOL * abs(r) + max(ua, ur):
                problems.append(f"{part} value {a!r} != reference {r!r}")
    return problems


def cli_problems(returncode: int, stderr: str, text: str | None, reference: dict) -> list[str]:
    """Exit 0, no traceback, and output matching the reference digest."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}: {stderr.strip()[-300:]}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if text is None:
        problems.append("no output file")
    elif not problems:
        problems += output_problems(text, reference)
    return problems


def cli_key(command: str, config: str, fmt: str) -> str:
    return f"{command} {config} {fmt}"


class Programs:
    """The dppln modules the benchmark calls, looked up at call time."""

    def __init__(self):
        dppln = use_checkout_src()
        import dppln.cli
        import dppln.config

        self.modules = {
            name: getattr(dppln, name)
            for name in ("dispersion", "quadrature", "mode_solver", "spdc", "design_search", "cli")
        }
        self.ds = dppln.design_search
        self.ms = dppln.mode_solver
        self.sp = dppln.spdc
        self.config = dppln.config
        self.material = dppln.dispersion.DEFAULT_MATERIAL

    def request(self, scheme: str, width_um: float, depth_um: float, length_cm: float = 1.0):
        geometry = self.ms.WaveguideGeometry(width_um, depth_um, length_cm)
        return self.ds.DesignRequest(self.ds.Scheme(scheme), inputs.PUMP_NM, inputs.SIGNAL1_NM,
                                     inputs.SIGNAL2_NM, geometry)

    def config_design(self, path: str):
        config = self.config.load_config(str(ROOT / path))
        return self.ds.design(config.request(), config.material)

    def dispersive_scan(self, result, axis: str, stamps: list | None = None):
        """101-sample dispersive scan of process 1 along `axis`, fresh solver.

        With `stamps`, the time each index evaluation returns is appended.
        """
        process = result.process_1
        length = result.request.geometry.length_cm
        span = inputs.DISPERSIVE_SPAN_FACTOR * self.sp.estimate_fwhm_nm(process, axis, length)
        solver = self.ds.EffectiveIndexSolver(self.material, result.request.geometry)
        provider = solver.index
        if stamps is not None:
            def provider(wavelength_nm, pol):
                n_eff = solver.index(wavelength_nm, pol)
                stamps.append(perf_counter())
                return n_eff
        return self.sp.spectrum_scan(process, axis, span, inputs.DISPERSIVE_SAMPLES, length,
                                     index_provider=provider, index_model="dispersive")


def fingerprint_designs(programs: Programs) -> dict:
    """Fingerprints of both shipped configs and the 8 table geometries."""
    out = {path: design_fingerprint(programs.config_design(path)) for path in inputs.CONFIGS}
    for scheme, width, depth in inputs.table_requests():
        key = f"table {scheme} {width:g}"
        out[key] = design_fingerprint(programs.ds.design(programs.request(scheme, width, depth)))
    return out


def reference_sweeps(programs: Programs) -> dict:
    return {
        scheme: sweep_fingerprint(programs.ds.sweep(
            programs.request(scheme, 10.0, 10.0), REFERENCE_SWEEP_UM, REFERENCE_SWEEP_UM))
        for scheme in inputs.SCHEMES
    }


def dispersive_key(scheme: str, axis: str) -> str:
    return f"{scheme} {axis}"


def dispersive_fingerprints(programs: Programs) -> dict:
    out = {}
    for scheme, size in inputs.DISPERSIVE_SIZE_UM.items():
        result = programs.ds.design(programs.request(scheme, size, size))
        for axis in inputs.DISPERSIVE_AXES:
            out[dispersive_key(scheme, axis)] = spectrum_fingerprint(
                programs.dispersive_scan(result, axis))
    return out


def search_fingerprint(geometry, result) -> dict:
    return {"width_um": sig12(geometry.width_um), "depth_um": sig12(geometry.depth_um),
            "gamma": sig12(result.gamma)}


def write_reference():
    """Record the fingerprint of the current program as the reference."""
    programs = Programs()
    OUT.mkdir(exist_ok=True)
    cli = {}
    for command in inputs.CLI_COMMANDS:
        for config in inputs.CONFIGS:
            for fmt in inputs.CLI_FORMATS:
                out = OUT / "reference.out"
                subprocess.run([sys.executable, "-m", "dppln", command, "--config", config,
                                "--format", fmt, "--out", str(out)],
                               cwd=ROOT, env=child_env(), check=True, timeout=120)
                cli[cli_key(command, config, fmt)] = output_summary(out.read_text())
    search = {}
    for scheme in inputs.SCHEMES:
        geometry, result = programs.ds.find_best_geometry(
            programs.request(scheme, 10.0, 10.0), inputs.SEARCH_BOUNDS_UM)
        search[scheme] = search_fingerprint(geometry, result)
    reference = {
        "designs": fingerprint_designs(programs),
        "sweep_grid_um": list(REFERENCE_SWEEP_UM),
        "sweeps": reference_sweeps(programs),
        "search": search,
        "dispersive": dispersive_fingerprints(programs),
        "cli": cli,
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 perfbench/gate.py --write-reference")
    write_reference()
