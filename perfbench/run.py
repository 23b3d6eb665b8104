"""dppln benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are defined in BENCHMARK.json at the repository root.
The run measures set-up time in fresh interpreters, checks the program
against the reference fingerprint, runs the workload for about S seconds,
checks every output, and prints each metric by name with its unit.  The last
line of standard output is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics from the traced run with `--trace 1`.  A run
record (machine, versions, commit, seed, all figures) and, when traced, the
spans are written under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from paths import OUT, ROOT, SRC, CheckoutError, child_env

SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120
# Fresh interpreter to ready: import dppln plus the first, cold design().
SETUP_PROBE = (
    "from dppln import DesignRequest, Scheme, WaveguideGeometry, design\n"
    "design(DesignRequest(Scheme.TYPE0_EEE, 519.0, 780.0, 775.0,"
    " WaveguideGeometry(10.0, 10.0, 1.0)))\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and two rounds, for the self-tests")
    return parser.parse_args(argv)


def measure_setup(runs: int) -> tuple[list[float], list[str]]:
    """Wall seconds of `runs` fresh set-ups, and any problems."""
    times, problems = [], []
    for _ in range(runs):
        begun = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"set-up did not finish within {SETUP_TIMEOUT_S} s")
            continue
        times.append(perf_counter() - begun)
        if proc.returncode != 0:
            problems.append(f"set-up exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times, problems


def check_reference(ctx, gate):
    """The fingerprint of both configs, the table geometries and the fixed
    sweep grid must match the reference within 1e-9 relative."""
    for part, compute in (("designs", gate.fingerprint_designs), ("sweeps", gate.reference_sweeps)):
        try:
            actual = compute(ctx.p)
        except Exception as error:  # a broken program fails the gate, not the run
            ctx.check(f"reference {part}", [f"{type(error).__name__}: {error}"])
            continue
        for key, reference in ctx.ref[part].items():
            ctx.check(f"reference {key}", gate.compare(actual.get(key), reference, key))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return f"unknown ({name})"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": src_lines,
        "note": "no CPU pinning and no cache control: machine settings are left untouched",
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import gate
        import tracing
        from workloads import WORKLOADS, Context

        programs = gate.Programs()
        reference = gate.load_reference()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (CheckoutError, ImportError, OSError) as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run_workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    began = perf_counter()

    ctx = Context(programs, reference, args.seed, args.seconds, args.smoke, bool(args.trace))
    setup_times, setup_problems = measure_setup(1 if args.smoke else SETUP_RUNS)
    ctx.check("set-up", setup_problems)
    check_reference(ctx, gate)
    ctx.began = perf_counter()
    named = run_workload(ctx)

    end_to_end = {
        "request_ms_p05": ctx.fast_request_s(0.05) * 1e3,
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    failed_frac = ctx.failed / ctx.attempted if ctx.attempted else 0.0
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(args.seed),
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failed_frac": failed_frac,
        "problems": ctx.problems,
        "setup_samples_s": setup_times,
        "end_to_end": end_to_end,
        "workload_metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in named.items()},
        "request_samples_s": ctx.latency[False],
        "step_samples_s": ctx.steps[False],
        "run_wall_s": perf_counter() - began,
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit, note) in named.items():
        print(f"  {name} = {_fmt(value)} {unit}" + (f"  ({note})" if note else ""))
    print(f"  failed_frac = {failed_frac:.6g}  ({ctx.failed}/{ctx.attempted} operations)")
    for problem in ctx.problems:
        print(f"  FAILED {problem}")

    if args.trace:
        requests = ctx.traced_requests
        layers = tracing.layer_metrics(ctx.tracer, requests)
        untraced = ctx.median_request_s(False)
        traced = ctx.median_request_s(True)
        layers["trace.requests"] = float(requests)
        layers["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0 if untraced and traced else 0.0
        record["tracing_overhead"] = {"request_s_p50_untraced": untraced,
                                      "request_s_p50_traced": traced,
                                      "difference_s": traced - untraced}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        structure = tracing.structure(ctx.tracer)
        record["per_layer"] = metrics
        record["span_structure"] = structure
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.json"
        spans_path.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent", "request"],
                                          "spans": ctx.tracer.spans}))
        print(f"  traced requests {requests}; spans written to {spans_path.relative_to(ROOT)}")
        print(f"  tracing overhead: median request {untraced:.6g} s untraced, {traced:.6g} s "
              f"traced, difference {traced - untraced:+.6g} s")
        print("  span structure (parent > child: calls, total ms, self ms):")
        for row in structure:
            print(f"    {row['parent']} > {row['child']}: {row['calls']}, "
                  f"{row['total_ms']:.1f}, {row['self_ms']:.1f}")
        for name, entry in metrics.items():
            print(f"  {name} = {_fmt(entry['value'])} {entry['unit']}")
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, entry in metrics.items():
            print(f"  {name} = {_fmt(entry['value'])} {entry['unit']}")

    record_path = OUT / f"record-{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": ctx.failed == 0, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
