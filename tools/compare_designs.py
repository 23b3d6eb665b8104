"""Compare the design numbers of two dppln source trees.

    python tools/compare_designs.py PARENT_DIR CHANGE_DIR [--tol NAME=VALUE ...]

Each tree runs in one child interpreter with its own `src` on the path.  The
child designs the 13x13 `geomspace(2, 20)` um grid for both schemes (338
requests at the paper's 519 -> 780/775 nm, 1 cm) and the four 101-sample
dispersive scans (the two shipped geometries, process 1, signal and idler
axes, 3 x the estimated FWHM), then runs `find_best_geometry` over (6.5, 12) um
for both schemes and records the geometry, gamma and four design-spectrum FWHM
of the design it returns, so a search that returns the spectra of a design
other than the one it scored is caught.  For the five waves of each tree's
shipped `configs/*.yaml` it records `solve_mode` (n_eff and the two norms;
alpha_y and alpha_z as `solve_mode_alpha`) and `rayleigh_quotient` at four
fixed trial points, so the one-lane objective and refinement are checked as
well as the stacked ones.  It records `synthesize_poling` at each config's
phase-matched periods and length, and for 20 seeded (period1, period2,
length) triples: periods in [1, 20] um, lengths in [0.05, 2] cm covering 10
of the longer period.  It also sweeps the same grid through `sweep()` for
both schemes, serially and with `max_workers=2`, so the batched row path is
checked as well as `design()`; a row's geometry and error text are compared
exactly, its gamma and periods under the `gamma` and `period` tolerances.
The script prints the largest change of each quantity, the number of designs
whose spectrum gains changed in any byte, every request whose error class or text
changed, every poling pattern whose boundary count or first sign changed, and
every sweep row that changed beyond its tolerances.  It exits 1 when a change
exceeds its tolerance (relative, except `scan_gain`, `design_gain` and the
`poling` boundaries in um, which are absolute), when an outcome or a
pattern's count or first sign changes, or when a sweep row changes beyond
its tolerances.  Every tolerance of zero means bit for bit; a deliberate
change states the tolerances it is checked at with `--tol`.
Last it prints the line count of each tree's `src/` Python files and their
difference, the code-size figure that a change cites.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# Quantity -> largest allowed change.  Zero means bit-identical.
TOLERANCES = {
    "n_eff": 0.0,
    "alpha_y": 0.0,
    "alpha_z": 0.0,
    "period": 0.0,
    "fwhm": 0.0,
    "y_norm": 1e-14,
    "z_norm": 1e-14,
    "overlap": 1e-14,
    "gamma": 1e-14,
    "scan_fwhm": 1e-12,
    "scan_gain": 1e-11,
    "design_gain": 0.0,
    "search_geometry": 0.0,
    "search_gamma": 0.0,
    "search_fwhm": 0.0,
    "solve_mode": 0.0,
    "solve_mode_alpha": 0.0,
    "rayleigh_quotient": 0.0,
    "poling": 0.0,
}

CHILD = r"""
import base64, json, sys
from pathlib import Path
import numpy as np
from dppln import idler_wavelength
from dppln.config import load_config
from dppln.design_search import (DesignRequest, EffectiveIndexSolver, ROLES, Scheme, design,
                                 find_best_geometry, phase_match, solve_modes, sweep)
from dppln.dispersion import DEFAULT_MATERIAL
from dppln.errors import ToolkitError
from dppln.mode_solver import WaveguideGeometry, rayleigh_quotient
from dppln.spdc import estimate_fwhm_nm, spectrum_scan, synthesize_poling

def request(scheme, width, depth):
    return DesignRequest(scheme, 519.0, 780.0, 775.0, WaveguideGeometry(width, depth, 1.0))

designs = {}
sizes = np.geomspace(2.0, 20.0, 13).tolist()
for scheme in Scheme:
    for width in sizes:
        for depth in sizes:
            key = f"{scheme.value} w={width:.6g} d={depth:.6g}"
            try:
                result = design(request(scheme, width, depth))
            except ToolkitError as error:
                designs[key] = {"error": f"{type(error).__name__}: {error}"}
                continue
            modes = result.modes
            designs[key] = {
                "n_eff": [modes[r].n_eff for r in ROLES],
                "alpha_y": [modes[r].alpha_y for r in ROLES],
                "alpha_z": [modes[r].alpha_z for r in ROLES],
                "y_norm": [modes[r].y_norm for r in ROLES],
                "z_norm": [modes[r].z_norm for r in ROLES],
                "period": [result.period1_um, result.period2_um],
                "overlap": [result.overlap_1, result.overlap_2],
                "gamma": [result.gamma],
                "fwhm": [s.fwhm_nm for s in result.spectra.values()],
                "design_gain": [base64.b64encode(s.gain.tobytes()).decode()
                                for s in result.spectra.values()],
            }

scans = {}
for scheme, size in ((Scheme.TYPE0_EEE, 10.0), (Scheme.TYPE2_CROSS, 6.5)):
    result = design(request(scheme, size, size))
    solver = EffectiveIndexSolver(DEFAULT_MATERIAL, result.request.geometry)
    for axis in ("signal", "idler"):
        process = result.process_1
        span = 3.0 * estimate_fwhm_nm(process, axis, 1.0)
        spectrum = spectrum_scan(process, axis, span, 101, 1.0, index_provider=solver.index,
                                 index_model="dispersive")
        scans[f"{scheme.value} {axis}"] = {"scan_fwhm": [spectrum.fwhm_nm],
                                           "scan_gain": spectrum.gain.tolist()}

searches = {}
for scheme in Scheme:
    geometry, result = find_best_geometry(request(scheme, 10.0, 10.0), (6.5, 12.0))
    searches[scheme.value] = {"search_geometry": [geometry.width_um, geometry.depth_um],
                              "search_gamma": [result.gamma],
                              "search_fwhm": [s.fwhm_nm for s in result.spectra.values()]}
sweeps = {}
for scheme in Scheme:
    for workers in (None, 2):
        result = sweep(request(scheme, 10.0, 10.0), sizes, sizes, max_workers=workers)
        sweeps[f"{scheme.value} max_workers={workers}"] = [
            [row.depth_um, row.width_um, row.gamma, row.period1_um, row.period2_um, row.error]
            for row in result.rows]
def poling(period1, period2, length_cm):
    pattern = synthesize_poling(period1, period2, length_cm)
    return {"first_sign": pattern.first_sign,
            "boundaries": base64.b64encode(pattern.boundaries_um.tobytes()).decode()}

polings = {}
rng = np.random.default_rng(18)
while len(polings) < 20:
    period1, period2 = rng.uniform(1.0, 20.0, 2).tolist()
    length = float(rng.uniform(0.05, 2.0))
    if length * 1e4 >= 10.0 * max(period1, period2):
        polings[f"{period1!r} {period2!r} {length!r}"] = poling(period1, period2, length)
modes = {}
for path in sorted(Path("configs").glob("*.yaml")):
    config = load_config(str(path))
    request = config.request()
    matched = phase_match(request, solve_modes(request, config.material))
    polings[path.name] = poling(matched.period1_um, matched.period2_um,
                                request.geometry.length_cm)
    solver = EffectiveIndexSolver(config.material, request.geometry)
    nm = {"pump": request.pump_nm, "signal_1": request.signal1_nm,
          "signal_2": request.signal2_nm}
    nm["idler_1"] = idler_wavelength(request.pump_nm, request.signal1_nm)
    nm["idler_2"] = idler_wavelength(request.pump_nm, request.signal2_nm)
    for role, pol in request.scheme.polarizations().items():
        key = f"{path.name} {role}"
        try:
            mode = solver.solve(nm[role], pol)
        except ToolkitError as error:
            modes[key] = {"error": f"{type(error).__name__}: {error}"}
            continue
        modes[key] = {
            "solve_mode": [mode.n_eff, mode.y_norm, mode.z_norm],
            "solve_mode_alpha": [mode.alpha_y, mode.alpha_z],
            "rayleigh_quotient": [rayleigh_quotient(mode.profile, nm[role], ay, az)
                                  for ay, az in ((0.3, 0.3), (1.0, 1.0), (1.7, 0.6), (4.0, 2.5))],
        }
json.dump({"designs": designs, "scans": scans, "searches": searches, "modes": modes,
           "sweeps": sweeps, "polings": polings}, sys.stdout)
"""


def run_tree(tree: Path) -> dict:
    """The designs and scans of one source tree, from a child interpreter."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, cwd=tree,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{tree}: child interpreter failed\n{done.stderr}")
    return json.loads(done.stdout)


def gains(encoded):
    """The float64 arrays (a design's gains, a pattern's boundaries) of their
    base64 bytes."""
    return [np.frombuffer(base64.b64decode(text)) for text in encoded]


def change(name, before, after):
    """Largest change of `after` against `before`: absolute for the gains,
    else relative to the `before` value."""
    if name == "design_gain":
        return max(float(np.max(np.abs(a - b))) for a, b in zip(gains(after), gains(before)))
    if name == "scan_gain":
        return max(abs(a - b) for a, b in zip(after, before))
    return max(abs(a - b) / abs(b) if b else abs(a) for a, b in zip(after, before))


def sweep_row_changed(before, after, largest):
    """Whether a sweep row [depth, width, gamma, period1, period2, error]
    changed in its geometry, its error text or whether it solved; else record
    its gamma and period changes in `largest`."""
    if before[:2] + before[5:] != after[:2] + after[5:] or (before[2] is None) != (
            after[2] is None):
        return True
    if before[2] is not None:
        largest["gamma"] = max(largest["gamma"], change("gamma", before[2:3], after[2:3]))
        largest["period"] = max(largest["period"], change("period", before[3:5], after[3:5]))
    return False


def compare(parent: dict, changed: dict, tolerances: dict) -> bool:
    """Print the comparison; True when every change is within tolerance."""
    ok = True
    largest = {name: 0.0 for name in tolerances}
    changed_gains = errors = 0
    for group in ("designs", "scans", "searches", "modes"):
        for key, before in parent[group].items():
            after = changed[group][key]
            if "error" in before or "error" in after:
                errors += 1
                if before.get("error") != after.get("error"):
                    ok = False
                    print(f"changed outcome  {key}\n  before: {before.get('error', 'ok')}"
                          f"\n  after:  {after.get('error', 'ok')}")
                continue
            for name, values in before.items():
                if name == "design_gain":
                    changed_gains += values != after[name]
                largest[name] = max(largest[name], change(name, values, after[name]))
    for key, before in parent["polings"].items():
        after = changed["polings"][key]
        old, new = gains([before["boundaries"], after["boundaries"]])
        if before["first_sign"] != after["first_sign"] or len(old) != len(new):
            ok = False
            print(f"changed poling pattern  {key}\n  before: {len(old)} boundaries, first sign "
                  f"{before['first_sign']}\n  after:  {len(new)} boundaries, first sign "
                  f"{after['first_sign']}")
        elif len(old):
            largest["poling"] = max(largest["poling"], float(np.max(np.abs(new - old))))
    rows = 0
    for key, before in parent["sweeps"].items():
        for row, after in zip(before, changed["sweeps"][key]):
            if sweep_row_changed(row, after, largest):
                rows += 1
                print(f"changed sweep row  {key}\n  before: {row}\n  after:  {after}")
    print(f"{len(parent['designs'])} designs, {len(parent['scans'])} dispersive scans, "
          f"{len(parent['searches'])} searches, {len(parent['modes'])} config waves and "
          f"{len(parent['polings'])} poling patterns compared; {errors} requests fail")
    for name, value in largest.items():
        flag = "" if value <= tolerances[name] else f"  ABOVE {tolerances[name]:g}"
        ok = ok and not flag
        kind = "absolute" if name.endswith("_gain") or name == "poling" else "relative"
        print(f"{name:<17} largest {kind} change {value:.3g}{flag}")
    print(f"designs whose spectrum gains changed in any byte: {changed_gains}")
    print(f"{len(parent['sweeps'])} sweeps of {len(before)} rows compared; rows changed beyond "
          f"the gamma and period tolerances: {rows}")
    return ok and rows == 0


def src_lines(tree: Path) -> int:
    """The number of lines of the Python files under the tree's `src/`."""
    return sum(len(path.read_bytes().splitlines()) for path in (tree / "src").rglob("*.py"))


def tolerance(text):
    name, _, value = text.partition("=")
    if name not in TOLERANCES:
        raise argparse.ArgumentTypeError(f"unknown quantity {name!r}; one of {list(TOLERANCES)}")
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME=NUMBER, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree to compare against")
    parser.add_argument("change", type=Path, help="source tree with the change")
    parser.add_argument("--tol", type=tolerance, action="append", default=[],
                        metavar="NAME=VALUE", help="override one quantity's tolerance")
    args = parser.parse_args(argv)
    tolerances = {**TOLERANCES, **dict(args.tol)}
    ok = compare(run_tree(args.parent), run_tree(args.change), tolerances)
    before, after = src_lines(args.parent), src_lines(args.change)
    print(f"src/ lines: {before} in {args.parent}, {after} in {args.change} "
          f"({after - before:+d})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
