"""Run `dppln.cli.main` in this interpreter with the tracing wrappers on.

    python3 perfbench/launcher.py TRACE_JSON <dppln arguments...>

Times `import dppln.cli` and `main()`, records spans at the same boundaries
as the in-process workloads, writes them to TRACE_JSON and exits with the
CLI's own exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import gate
import tracing

# Spectra a command hands on to its output: `design` reports all four
# design-point FWHMs, `spectrum` prints its own scan; the rest print none.
SPECTRA_USED = {"design": 4, "spectrum": 1}


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    programs = gate.Programs()
    imported = perf_counter()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, programs.modules):
        main_start = perf_counter()
        with tracer.span("cli.main"):
            code = programs.modules["cli"].main(argv)
        main_end = perf_counter()
    if code == 0:
        tracer.count("spectra_used", SPECTRA_USED.get(argv[0], 0))
    tracer.count("cli.import_ms", (imported - start) * 1e3)
    tracer.count("cli.main_ms", (main_end - main_start) * 1e3)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
