"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Smoke-runs every workload at tiny size, traced and untraced, and checks the
metric names against BENCHMARK.json, the determinism of the seeded inputs,
that the correctness gate rejects perturbed results, and that the benchmark
refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import inputs  # noqa: E402
from paths import BENCH, OUT, ROOT, child_env  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_same_seed_same_inputs():
    for seed in (0, 5):
        assert inputs.design_round(seed, 2) == inputs.design_round(seed, 2)
        assert inputs.sweep_grid(seed) == inputs.sweep_grid(seed)
        assert inputs.dispersive_scan(seed, 5) == inputs.dispersive_scan(seed, 5)
        assert inputs.cli_call(seed, 7) == inputs.cli_call(seed, 7)
    assert inputs.design_round(0, 0) != inputs.design_round(1, 0)
    assert inputs.sweep_grid(0) != inputs.sweep_grid(1)


def test_cycles_cover_every_scan_and_call():
    for seed in (0, 9):
        assert len({inputs.dispersive_scan(seed, i) for i in range(4, 8)}) == 4
        assert len({inputs.cli_call(seed, i) for i in range(20, 40)}) == 20


def test_inputs_stay_in_their_strata():
    for seed in range(20):
        depths, widths = inputs.sweep_grid(seed)
        for value, (lo, hi) in zip(depths, inputs.SWEEP_DEPTH_STRATA):
            assert lo <= value <= hi
        for value, (lo, hi) in zip(widths, inputs.SWEEP_WIDTH_STRATA):
            assert lo <= value <= hi
        seeded = [r for r in inputs.design_round(seed, 0) if r not in inputs.table_requests()]
        assert len(seeded) == 2 * inputs.DESIGN_STRATA
        assert all(6.5 <= w <= 12.0 and 6.5 <= d <= 12.0 for _, w, d in seeded)


@pytest.fixture(scope="module")
def programs():
    return gate.Programs()


@pytest.fixture(scope="module")
def reference_design(programs):
    return programs.config_design(inputs.CONFIGS[0])


def test_gate_accepts_the_reference(programs, reference_design):
    reference = gate.load_reference()
    assert gate.compare(gate.design_fingerprint(reference_design),
                        reference["designs"][inputs.CONFIGS[0]]) == []
    assert gate.design_invariants(reference_design, programs.ms, programs.sp) == []


def test_gate_rejects_a_perturbed_result(programs, reference_design):
    reference = gate.load_reference()["designs"][inputs.CONFIGS[0]]
    fingerprint = gate.design_fingerprint(reference_design)
    fingerprint["gamma"] *= 1.0 + 1e-8
    assert gate.compare(fingerprint, reference)
    fingerprint = gate.design_fingerprint(reference_design)
    fingerprint["n_eff"]["idler_2"] *= 1.0 - 1e-8
    assert gate.compare(fingerprint, reference)
    perturbed = replace(reference_design, gamma=reference_design.gamma * 0.999)
    assert gate.design_invariants(perturbed, programs.ms, programs.sp)
    weights = (reference_design.state_weights[0] + 1e-9, reference_design.state_weights[1])
    assert gate.design_invariants(replace(reference_design, state_weights=weights),
                                  programs.ms, programs.sp)


def test_gate_rejects_perturbed_cli_output():
    key = gate.cli_key("design", inputs.CONFIGS[0], "text")
    reference = gate.load_reference()["cli"][key]
    OUT.mkdir(exist_ok=True)
    out = OUT / "selftest.out"
    proc = subprocess.run([sys.executable, "-m", "dppln", "design", "--config", inputs.CONFIGS[0],
                           "--format", "text", "--out", str(out)],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=120)
    text = out.read_text()
    assert gate.cli_problems(proc.returncode, proc.stderr, text, reference) == []
    assert gate.cli_problems(proc.returncode, proc.stderr, text.replace("0.9847", "0.9857"), reference)
    assert gate.cli_problems(proc.returncode, proc.stderr, text.replace("gamma", "gama"), reference)
    assert gate.cli_problems(1, "Traceback (most recent call last):", text, reference)


def test_gate_rejects_an_unattributed_sweep_error(programs):
    row = programs.ds.SweepRow(2.0, 2.0, None, None, None, error="trial-parameter optimum at the box")
    assert gate.sweep_row_problems(row)
    named = replace(row, error="idler_1 (1551.03 nm): trial-parameter optimum at the box")
    assert gate.sweep_row_problems(named) == []


def test_refuses_to_run_without_the_program():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    try:
        proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
