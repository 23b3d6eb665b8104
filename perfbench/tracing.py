"""Spans and counters recorded from outside the program.

The benchmark never edits `src/`.  Instead, for the duration of one traced
request, it replaces the names that dppln's modules imported from each other
(for example `design_search.solve_mode` or `mode_solver.minimize`) with
wrappers that record a span around the call, and restores them afterwards.
Spans carry a name, start, end, parent span and request id; they are kept in
memory and written when the run ends.  This module imports nothing from dppln
itself, so the CLI launcher can time `import dppln` after importing it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Span fields, stored as lists for compactness.
ID, NAME, START, END, PARENT, REQUEST = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.request: int | None = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, perf_counter(), None, parent, self.request])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def count(self, key: str, n: float = 1):
        self.counters[key] += n

    def adopt(self, child: dict, parent: int):
        """Merge spans and counters recorded by a child process under `parent`."""
        offset = len(self.spans)
        request = self.spans[parent][REQUEST]
        for sid, name, start, end, up, _ in child["spans"]:
            self.spans.append([sid + offset, name, start, end,
                               parent if up is None else up + offset, request])
        for key, value in child["counters"].items():
            self.counters[key] += value


def _traced(tracer: Tracer, fn, name: str, observe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as error:
            tracer.count(f"{name}.raised.{type(error).__name__}")
            raise
        finally:
            tracer.close(sid)
        if observe is not None:
            observe(tracer, result)
        return result

    return traced


def _counted(tracer: Tracer, fn, key: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return counted


def _nelder_mead(tracer, result):
    tracer.count("mode_solver.nelder_mead.nfev", result.nfev)
    tracer.count("mode_solver.nelder_mead.nit", result.nit)


def _refine(tracer, result):
    tracer.count("quadrature.refine_scalar.order_sum", result[1])


def _scan(tracer, result):
    tracer.count("spdc.spectrum_scan.samples", len(result.gain))


def _poling(tracer, result):
    tracer.count("spdc.synthesize_poling.boundaries", len(result.boundaries_um))


def _sweep(tracer, result):
    tracer.count("design_search.sweep.rows", len(result.rows))
    tracer.count("design_search.sweep.rows_ok", sum(row.error is None for row in result.rows))


def patches(tracer: Tracer, dppln_modules: dict) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every boundary the benchmark traces.

    `dppln_modules` maps short names (mode_solver, design_search, spdc,
    dispersion, cli) to the imported modules.
    """
    ms = dppln_modules["mode_solver"]
    ds = dppln_modules["design_search"]
    sp = dppln_modules["spdc"]
    disp = dppln_modules["dispersion"]
    cli = dppln_modules["cli"]
    span = functools.partial(_traced, tracer)
    return [
        (ds, "solve_mode", span(ds.solve_mode, "mode_solver.solve_mode")),
        (ms, "minimize", span(ms.minimize, "mode_solver.nelder_mead", _nelder_mead)),
        (ms, "refine_scalar", span(ms.refine_scalar, "quadrature.refine_scalar", _refine)),
        (ds, "field_overlap", span(ds.field_overlap, "mode_solver.field_overlap")),
        (ds, "spectrum_scan", span(ds.spectrum_scan, "spdc.spectrum_scan", _scan)),
        (sp, "spectrum_scan", span(sp.spectrum_scan, "spdc.spectrum_scan", _scan)),
        (ds, "design", span(ds.design, "design_search.design")),
        (ds, "sweep", span(ds.sweep, "design_search.sweep", _sweep)),
        (ds, "find_best_geometry", span(ds.find_best_geometry, "design_search.find_best_geometry")),
        (ds.EffectiveIndexSolver, "solve",
         span(ds.EffectiveIndexSolver.solve, "design_search.index_solver.solve")),
        (disp.SellmeierModel, "index",
         _counted(tracer, disp.SellmeierModel.index, "dispersion.index.calls")),
        (cli, "load_config", span(cli.load_config, "config.load_config")),
        (cli, "design", span(cli.design, "design_search.design")),
        (cli, "sweep", span(cli.sweep, "design_search.sweep", _sweep)),
        (cli, "spectrum_scan", span(cli.spectrum_scan, "spdc.spectrum_scan", _scan)),
        (cli, "synthesize_poling", span(cli.synthesize_poling, "spdc.synthesize_poling", _poling)),
    ]


@contextmanager
def installed(tracer: Tracer, dppln_modules: dict):
    """Install the wrappers for the duration of the block, then restore."""
    table = patches(tracer, dppln_modules)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in table]
    panel_nodes = dppln_modules["quadrature"].panel_nodes
    before = panel_nodes.cache_info()
    for owner, attr, wrapper in table:
        setattr(owner, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
        after = panel_nodes.cache_info()
        tracer.count("quadrature.panel_nodes.hits", after.hits - before.hits)
        tracer.count("quadrature.panel_nodes.misses", after.misses - before.misses)


def aggregate(spans: list[list]) -> tuple[dict, dict]:
    """Per-name and per-(parent, child) totals: calls, total_ms, self_ms.

    Self time is a span's duration minus the time its child spans cover.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    by_name = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    edges = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for s in spans:
        duration = s[END] - s[START]
        own = duration - child_time[s[ID]]
        parent = spans[s[PARENT]][NAME] if s[PARENT] is not None else "-"
        for bucket in (by_name[s[NAME]], edges[(parent, s[NAME])]):
            bucket["calls"] += 1
            bucket["total_ms"] += duration * 1e3
            bucket["self_ms"] += own * 1e3
    return dict(by_name), dict(edges)


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Number of `name` spans with an `ancestor` span above them."""
    total = 0
    for s in spans:
        if s[NAME] != name:
            continue
        up = s[PARENT]
        while up is not None:
            if spans[up][NAME] == ancestor:
                total += 1
                break
            up = spans[up][PARENT]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-layer metrics of the traced requests, normalised per request.

    Counts and self times are per traced request (`/req`), per-call figures
    are means over that layer's calls, and ratios carry their base in the
    run record.  A layer the workload does not exercise reports 0.
    """
    by_name, _ = aggregate(tracer.spans)
    c = tracer.counters

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_ms(name):
        return _ratio(by_name.get(name, {}).get("self_ms", 0.0), requests)

    solves = calls("mode_solver.solve_mode")
    nm_calls = calls("mode_solver.nelder_mead")
    refines = calls("quadrature.refine_scalar")
    scans = calls("spdc.spectrum_scan")
    polings = calls("spdc.synthesize_poling")
    searches = calls("design_search.find_best_geometry")
    cli_calls = c["cli.calls"]
    hits, misses = c["quadrature.panel_nodes.hits"], c["quadrature.panel_nodes.misses"]
    return {
        "mode_solver.solve_mode.calls": _ratio(solves, requests),
        "mode_solver.solve_mode.self_ms": self_ms("mode_solver.solve_mode"),
        "mode_solver.nelder_mead.nfev": _ratio(c["mode_solver.nelder_mead.nfev"], nm_calls),
        "mode_solver.nelder_mead.nit": _ratio(c["mode_solver.nelder_mead.nit"], nm_calls),
        "mode_solver.nelder_mead.self_ms": self_ms("mode_solver.nelder_mead"),
        "mode_solver.field_overlap.self_ms": self_ms("mode_solver.field_overlap"),
        "mode_solver.errors.BoundaryOptimumError": _ratio(
            c["mode_solver.solve_mode.raised.BoundaryOptimumError"], requests),
        "mode_solver.errors.NoGuidedModeError": _ratio(
            c["mode_solver.solve_mode.raised.NoGuidedModeError"], requests),
        "quadrature.refine_scalar.calls": _ratio(refines, requests),
        "quadrature.refine_scalar.order_mean": _ratio(c["quadrature.refine_scalar.order_sum"], refines),
        "quadrature.refine_scalar.self_ms": self_ms("quadrature.refine_scalar"),
        "quadrature.panel_nodes.hit_ratio": _ratio(hits, hits + misses),
        "spdc.spectrum_scan.calls": _ratio(scans, requests),
        "spdc.spectrum_scan.samples": _ratio(c["spdc.spectrum_scan.samples"], scans),
        "spdc.spectrum_scan.self_ms": self_ms("spdc.spectrum_scan"),
        "spdc.synthesize_poling.self_ms": self_ms("spdc.synthesize_poling"),
        "spdc.synthesize_poling.boundaries": _ratio(c["spdc.synthesize_poling.boundaries"], polings),
        "design_search.design.self_ms": self_ms("design_search.design"),
        "design_search.index_cache.hit_ratio": (
            1.0 - _ratio(solves, calls("design_search.index_solver.solve"))
            if calls("design_search.index_solver.solve") else 0.0),
        "design_search.sweep.rows_ok_ratio": _ratio(
            c["design_search.sweep.rows_ok"], c["design_search.sweep.rows"]),
        "design_search.spectra_used_ratio": _ratio(c["spectra_used"], scans),
        "design_search.find_best_geometry.designs": _ratio(
            count_under(tracer.spans, "design_search.design", "design_search.find_best_geometry"),
            searches),
        "dispersion.index.calls": _ratio(c["dispersion.index.calls"], requests),
        "config.load_config.self_ms": self_ms("config.load_config"),
        "cli.import_ms": _ratio(c["cli.import_ms"], cli_calls),
        "cli.main_ms": _ratio(c["cli.main_ms"], cli_calls),
        "cli.interpreter_ms": _ratio(c["cli.interpreter_ms"], cli_calls),
        "cli.output_bytes": _ratio(c["cli.output_bytes"], cli_calls),
    }


def structure(tracer: Tracer) -> list[dict]:
    """Parent -> child span edges with call counts and times, largest first."""
    _, edges = aggregate(tracer.spans)
    rows = [dict(parent=p, child=ch, **v) for (p, ch), v in edges.items()]
    return sorted(rows, key=lambda r: -r["total_ms"])
