"""The names the benchmark's tracer patches exist on the real modules.

`perfbench/tracing.py` replaces attributes of dppln's modules by name for the
duration of a traced request; a rename in `src/` would break the benchmark
without failing any other test.  This loads the tracer by file path, as the
benchmark does, and checks each of its targets.
"""

import importlib.util
from pathlib import Path

from dppln import cli, design_search, dispersion, mode_solver, quadrature, spdc

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patched_name_is_an_own_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = dict(mode_solver=mode_solver, design_search=design_search, spdc=spdc,
                   dispersion=dispersion, cli=cli, quadrature=quadrature)
    table = tracing.patches(tracing.Tracer(), modules)
    assert table
    for owner, attr, _ in table:
        assert attr in owner.__dict__, (owner, attr)
    assert callable(quadrature.panel_nodes.cache_info)
