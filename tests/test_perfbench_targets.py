"""The surface of dppln the benchmark calls exists on the real modules.

`perfbench/tracing.py` replaces attributes of dppln's modules by name for the
duration of a traced request, and the workloads call the CLI and the library
with fixed flags and keywords; a rename or deletion in `src/` would break the
benchmark without failing any other test.  This loads the benchmark's modules
by file path, as the benchmark does, and checks each of its targets.  The
correctness gate's invariants and reference fingerprints are checked on a
few of its requests too, so a result attribute renamed away or a gated
number that moved fails here rather than only in a benchmark run.
"""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dppln import cli, design_search, dispersion, mode_solver, quadrature, spdc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = _load("inputs")


def test_every_patched_name_is_an_own_attribute_of_its_owner():
    tracing = _load("tracing")
    modules = dict(mode_solver=mode_solver, design_search=design_search, spdc=spdc,
                   dispersion=dispersion, cli=cli, quadrature=quadrature)
    table = tracing.patches(tracing.Tracer(), modules)
    assert table
    for owner, attr, _ in table:
        assert attr in owner.__dict__, (owner, attr)
    assert callable(quadrature.panel_nodes.cache_info)


@pytest.mark.parametrize("command", INPUTS.CLI_COMMANDS)
@pytest.mark.parametrize("fmt", INPUTS.CLI_FORMATS)
def test_the_parser_takes_the_benchmark_cli_call(command, fmt):
    # the flags of the cli workload, the selftest and the reference writer
    args = cli.build_parser().parse_args(
        [command, "--config", INPUTS.CONFIGS[0], "--format", fmt, "--out", "out.txt"])
    assert (args.command, args.config, args.format, args.out) == (
        command, INPUTS.CONFIGS[0], fmt, "out.txt")


@pytest.mark.parametrize("function, keywords", [
    (design_search.sweep, ("max_workers",)),
    (spdc.spectrum_scan, ("index_provider", "index_model")),
])
def test_the_library_takes_the_benchmark_keywords(function, keywords):
    parameters = inspect.signature(function).parameters
    for keyword in keywords:
        assert parameters[keyword].kind in (inspect.Parameter.KEYWORD_ONLY,
                                            inspect.Parameter.POSITIONAL_OR_KEYWORD), keyword


def test_import_and_one_design_load_no_config_layer_pool_or_scipy():
    # `import dppln` and one design() in a fresh interpreter are what the
    # benchmark's setup_s pays for; the config layer, the sweep's process pool
    # and the test-only scipy stay off that path
    probe = (
        "import sys, dppln\n"
        "unwanted = ('yaml', 'dppln.config', 'dppln.cli', 'concurrent.futures', 'scipy')\n"
        "loaded = lambda: [name for name in unwanted if name in sys.modules]\n"
        "imported = loaded()\n"
        "dppln.design(dppln.DesignRequest(dppln.Scheme.TYPE0_EEE, 519.0, 780.0, 775.0,\n"
        "                                 dppln.WaveguideGeometry(10.0, 10.0, 1.0)))\n"
        "print(imported, loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[] []\n"), done.stderr


@pytest.fixture(scope="module")
def gate():
    """`perfbench/gate.py`, with `perfbench/` on the path for its `inputs` and
    `paths` imports; both are dropped from `sys.modules` afterwards."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield _load("gate")
    for name in ("inputs", "paths"):
        sys.modules.pop(name, None)


def test_the_gate_finds_no_problem_and_no_difference_from_its_reference(gate):
    programs = gate.Programs()
    reference = gate.load_reference()
    problems = []
    designs = {}
    for scheme in gate.inputs.SCHEMES:
        designs[scheme] = programs.ds.design(programs.request(scheme, 10.0, 10.0))
        problems += gate.design_invariants(designs[scheme], programs.ms, programs.sp)
        problems += gate.compare(gate.design_fingerprint(designs[scheme]),
                                 reference["designs"][f"table {scheme} 10"], scheme)
    swept = programs.ds.sweep(programs.request("type0_eee", 10.0, 10.0),
                              gate.REFERENCE_SWEEP_UM, gate.REFERENCE_SWEEP_UM)
    for row in swept.rows:
        problems += gate.sweep_row_problems(row)
    problems += gate.compare(gate.sweep_fingerprint(swept), reference["sweeps"]["type0_eee"],
                             "sweep")
    scan = programs.dispersive_scan(designs["type0_eee"], "signal")
    problems += gate.dispersive_problems(scan)
    problems += gate.compare(gate.spectrum_fingerprint(scan),
                             reference["dispersive"][gate.dispersive_key("type0_eee", "signal")],
                             "dispersive")
    assert problems == []
