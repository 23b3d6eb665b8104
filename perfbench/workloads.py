"""The two workloads.  All load comes from this one process in a closed loop
with a single caller: the next request starts when the previous one ends.

Each workload runs whole rounds of seeded requests until the next round would
overrun `--seconds`, and always at least one (two in a traced run).  Checks
run between requests, outside the timed interval.  In a traced run every
second request is traced, so the untraced requests of the same run give the
tracing overhead.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import gate
import inputs
import tracing
from paths import BENCH, OUT, ROOT, child_env

CLI_TIMEOUT_S = 120
MAX_PROBLEMS = 40


class Context:
    """Inputs, sample store and failure accounting of one run."""

    def __init__(self, programs, reference, seed: int, seconds: float, smoke: bool, traced: bool):
        self.p = programs
        self.ref = reference
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.tracer = tracing.Tracer() if traced else None
        self.traced_requests = 0
        self._requests = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # keyed by traced (True) / untraced (False); steps map step -> seconds
        self.latency = {False: [], True: []}
        self.steps = {False: defaultdict(list), True: defaultdict(list)}
        self.began = perf_counter()

    def check(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(f"{label}: {p}" for p in problems[:max(room, 0)])

    def sample(self, seconds: float, traced: bool, steps: dict[str, list[float]] | None = None):
        """One request of `seconds`, split into `steps` when it has parts."""
        self.latency[traced].append(seconds)
        for name, values in (steps or {"whole": [seconds]}).items():
            self.steps[traced][name].extend(values)

    def fast_request_s(self, q: float) -> float:
        """Request time with every step at its q-quantile over the untraced
        requests of the run.

        The machine alternates between fast and slow phases lasting seconds,
        so a low quantile of short steps is far steadier from run to run than
        a median or a mean of whole requests.
        """
        requests = len(self.latency[False])
        return sum(quantile(values, q) * len(values) / requests
                   for values in self.steps[False].values()) if requests else 0.0

    def rounds(self):
        """Round indices until the next round would overrun the run time,
        counted from `self.began`."""
        last = 0.0
        index = 0
        # a traced run needs two rounds: one untraced, one traced
        least = 2 if self.smoke or self.tracer is not None else 1
        while index < least or (not self.smoke
                                and perf_counter() - self.began + last <= self.seconds):
            begun = perf_counter()
            yield index
            last = perf_counter() - begun
            index += 1

    def next_traced(self) -> bool:
        traced = self.tracer is not None and self._requests % 2 == 1
        self._requests += 1
        return traced

    @contextmanager
    def request(self, traced: bool):
        """Run the block as one request; traced, it is one request span."""
        if not traced:
            yield None
            return
        self.traced_requests += 1
        self.tracer.request = self.traced_requests
        try:
            with tracing.installed(self.tracer, self.p.modules), \
                    self.tracer.span("bench.request") as sid:
                yield sid
        finally:
            self.tracer.request = None

    def used_spectra(self, traced: bool, n: int):
        if traced:
            self.tracer.count("spectra_used", n)

    def median_request_s(self, traced: bool) -> float:
        values = self.latency[traced]
        return statistics.median(values) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank q-quantile; the minimum when q * n < 1."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def tail(values: list[float]):
    """(value, percentile, n) at the highest percentile with ten samples above
    it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], int(100 * (n - 10) / n), n


def _median(values: list[float], scale: float = 1.0) -> float | None:
    return statistics.median(values) * scale if values else None


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _latency_metrics(values: list[float], name: str, unit_scale: float, unit: str) -> dict:
    out = {f"{name}_p50": (_median(values, unit_scale), unit, f"n={len(values)}")}
    found = tail(values)
    if found is None:
        out[f"{name}_tail"] = (None, unit, f"n={len(values)}, fewer than 11 samples")
    else:
        value, pct, n = found
        out[f"{name}_tail"] = (value * unit_scale, unit, f"p{pct}, n={n}, 10 beyond")
    return out


def _failure(error: Exception) -> list[str]:
    return [f"{type(error).__name__}: {error}"]


def library(ctx: Context) -> dict:
    """In-process library use: designs, sweeps, the gamma search and
    dispersive scans, one round of each kind of work per request.

    A round is one request with these steps:
    - design-table: `design()` on the 8 table entries and 8 seeded
      geometries in [6.5, 12] um, one step each;
    - geometry-sweep: a seeded 4x4 grid over about [2, 18] um per scheme,
      swept serially one depth at a time (four 1x4 product sweeps, the same
      rows as one 4x4 sweep), then with `sweep(max_workers=2)` in one call;
    - dispersive-spectrum: one 101-sample dispersive scan with a fresh
      `EffectiveIndexSolver`, cycling through both schemes and both axes;
      its steps are the gaps between successive index evaluations.
    Short steps keep the 5th-percentile request time steady.
    `find_best_geometry((6.5, 12))` runs once, for a seeded scheme, before
    the rounds (and once more traced in a traced run): at about 2 s it
    repeats too rarely for a steady figure, so `search_s` stays out of the
    request time.
    """
    ds, ms, sp = ctx.p.ds, ctx.p.ms, ctx.p.sp
    table = {(s, w, d): f"table {s} {w:g}" for s, w, d in inputs.table_requests()}
    depths, widths = inputs.sweep_grid(ctx.seed)
    bounds = inputs.SEARCH_BOUNDS_UM
    if ctx.smoke:
        depths, widths, bounds = depths[:2], widths[:2], (bounds[1], bounds[1])
    templates = {s: ctx.p.request(s, 10.0, 10.0) for s in inputs.SCHEMES}
    try:
        scan_designs = {scheme: ds.design(ctx.p.request(scheme, size, size))
                        for scheme, size in inputs.DISPERSIVE_SIZE_UM.items()}
    except Exception as error:  # nothing to scan without the designs
        ctx.check("dispersive designs", _failure(error))
        return {}

    scheme = inputs.search_scheme(ctx.seed)
    search_times = []
    for _ in range(1 if ctx.tracer is None else 2):
        label = f"search {scheme}"
        traced = ctx.next_traced()
        try:
            with ctx.request(traced):
                begun = perf_counter()
                geometry, result = ds.find_best_geometry(templates[scheme], bounds)
                elapsed = perf_counter() - begun
        except Exception as error:  # any exception is a failed operation
            ctx.check(label, _failure(error))
            continue
        ctx.used_spectra(traced, 4)
        problems = gate.design_invariants(result, ms, sp)
        if bounds == inputs.SEARCH_BOUNDS_UM:
            problems += gate.compare(gate.search_fingerprint(geometry, result),
                                     ctx.ref["search"][scheme], label)
        ctx.check(label, problems)
        if not traced:
            search_times.append(elapsed)

    totals = defaultdict(float)
    design_times, scan_times = [], []
    for index in ctx.rounds():
        requests = inputs.design_round(ctx.seed, index)
        if ctx.smoke:
            requests = requests[:2]
        scan_scheme, axis = inputs.dispersive_scan(ctx.seed, index)
        traced = ctx.next_traced()
        steps = defaultdict(list)
        designs, serial, parallel, stamps = [], defaultdict(list), {}, []
        try:
            with ctx.request(traced):
                for key in requests:
                    begun = perf_counter()
                    designs.append((key, ds.design(ctx.p.request(*key))))
                    steps["design"].append(perf_counter() - begun)
                for s in inputs.SCHEMES:
                    for i, depth in enumerate(depths):
                        begun = perf_counter()
                        serial[s] += ds.sweep(templates[s], [depth], widths).rows
                        steps[f"serial sweep {s} depth {i}"].append(perf_counter() - begun)
                for s in inputs.SCHEMES:
                    begun = perf_counter()
                    parallel[s] = ds.sweep(templates[s], depths, widths, max_workers=2)
                    steps[f"2-process sweep {s}"].append(perf_counter() - begun)
                stamps.append(perf_counter())
                spectrum = ctx.p.dispersive_scan(scan_designs[scan_scheme], axis, stamps)
                stamps.append(perf_counter())
        except Exception as error:  # any exception is a failed operation
            ctx.check(f"round {index}", _failure(error))
            continue
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        steps["scan head"].append(gaps[0])
        steps["index evaluation"] += gaps[1:-1]
        steps["scan tail"].append(gaps[-1])

        for (design_scheme, width, depth), result in designs:
            key = table.get((design_scheme, width, depth))
            problems = gate.design_invariants(result, ms, sp)
            if key is not None:
                problems += gate.compare(gate.design_fingerprint(result), ctx.ref["designs"][key], key)
            ctx.check(f"design {design_scheme} {width:g}x{depth:g}", problems)
        rows = 0
        for s in inputs.SCHEMES:
            for row in serial[s]:
                ctx.check(f"sweep {s}", gate.sweep_row_problems(row))
                rows += 1
            ctx.check(f"2-process sweep {s}", [] if list(parallel[s].rows) == serial[s]
                      else ["rows differ from the serial sweep"])
        label = f"dispersive {scan_scheme} {axis}"
        ctx.check(label, gate.dispersive_problems(spectrum) + gate.compare(
            gate.spectrum_fingerprint(spectrum),
            ctx.ref["dispersive"][gate.dispersive_key(scan_scheme, axis)], label))
        ctx.used_spectra(traced, 4 * len(designs) + 1)

        ctx.sample(sum(sum(v) for v in steps.values()), traced, steps)
        if not traced:
            design_times += steps["design"]
            scan_times.append(stamps[-1] - stamps[0])
            totals["rows"] += rows
            totals["samples"] += len(spectrum.gain)
            totals["serial_s"] += sum(sum(v) for k, v in steps.items() if k.startswith("serial"))
            totals["parallel_s"] += sum(sum(v) for k, v in steps.items() if k.startswith("2-process"))
    return {
        **_latency_metrics(design_times, "design_ms", 1e3, "ms"),
        "designs_per_s": (_ratio(len(design_times), sum(design_times)), "1/s", ""),
        "sweep_rows_per_s": (_ratio(totals["rows"], totals["serial_s"]), "1/s",
                             f"{len(depths)}x{len(widths)} grid x 2 schemes"),
        "sweep_rows_per_s_2proc": (_ratio(totals["rows"], totals["parallel_s"]), "1/s",
                                   "max_workers=2"),
        "search_s": (_median(search_times), "s", f"{scheme}, bounds {bounds}"),
        **_latency_metrics(scan_times, "dispersive_scan_s", 1.0, "s"),
        "dispersive_samples_per_s": (_ratio(totals["samples"], sum(scan_times)), "1/s", ""),
        "round_s_p50": (_median(ctx.latency[False]), "s", f"n={len(ctx.latency[False])}"),
    }


def cli(ctx: Context) -> dict:
    """Fresh-interpreter `python -m dppln` calls on both shipped configs."""
    env = child_env()
    trace_file = OUT / "cli-trace.json"
    for index in ctx.rounds():
        command, config, fmt = inputs.cli_call(ctx.seed, index)
        out = OUT / f"cli-{command}-{Path(config).stem}-{fmt}.out"
        out.unlink(missing_ok=True)
        argv = [command, "--config", config, "--format", fmt, "--out", str(out)]
        traced = ctx.next_traced()
        if traced:
            trace_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "launcher.py"), str(trace_file), *argv]
        else:
            cmd = [sys.executable, "-m", "dppln", *argv]
        key = gate.cli_key(command, config, fmt)
        with ctx.request(traced) as sid:
            begun = perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
            elapsed = perf_counter() - begun
        if proc is None:
            ctx.check(key, [f"no exit within {CLI_TIMEOUT_S} s"])
            continue
        text = out.read_text(encoding="utf-8") if out.exists() else None
        ctx.check(key, gate.cli_problems(proc.returncode, proc.stderr, text, ctx.ref["cli"][key]))
        if traced and trace_file.exists():
            child = json.loads(trace_file.read_text())
            counters = child["counters"]
            ctx.tracer.adopt(child, sid)
            ctx.tracer.count("cli.calls")
            ctx.tracer.count("cli.interpreter_ms", elapsed * 1e3
                             - counters["cli.import_ms"] - counters["cli.main_ms"])
            ctx.tracer.count("cli.output_bytes", len(text.encode()) if text else 0)
        ctx.sample(elapsed, traced)
    values = ctx.latency[False]
    return {
        **_latency_metrics(values, "cli_wall_ms", 1e3, "ms"),
        "cli_calls_per_s": (_ratio(len(values), sum(values)), "1/s", ""),
    }


WORKLOADS = {"library": library, "cli": cli}
