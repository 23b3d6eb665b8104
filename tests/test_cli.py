import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dppln import DesignRequest, Scheme, WaveguideGeometry
from dppln.cli import main, text_sweep
from dppln.config import RunConfig, load_config
from dppln.errors import ConfigurationError

BASE_CONFIG = {
    "material": {"sellmeier": "zelmon1997"},
    "geometry": {"width_um": 10.0, "depth_um": 10.0, "length_cm": 1.0},
    "process": {
        "scheme": "type0_eee",
        "pump_nm": 519.0,
        "signal1_nm": 780.0,
        "signal2_nm": 775.0,
    },
    "scan": {"axis": "signal_1", "span_nm": 8.0, "samples": 801},
    "sweep": {"depths_um": [8.0, 10.0], "widths_um": [8.0, 10.0], "pairing": "zip"},
}


def write_config(tmp_path, name="run.yaml", **overrides):
    data = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        if value is None:
            data.pop(key, None)
        else:
            data[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index_reports_five_guided_waves(tmp_path, capsys):
    config = write_config(tmp_path)
    code, out, err = run(["index", "--config", config], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + five waves
    for expected_dn, line in zip((0.0037, 0.0030, 0.0025, 0.0030, 0.0025), lines[1:]):
        fields = line.split()
        n_bulk, delta_n, n_eff = float(fields[3]), float(fields[4]), float(fields[5])
        assert delta_n == expected_dn
        assert n_bulk < n_eff < n_bulk + delta_n


def test_missing_geometry_block_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, geometry=None)
    code, out, err = run(["design", "--config", config], capsys)
    assert code == 2
    assert "geometry" in err


@pytest.mark.parametrize(
    "overrides,message",
    [({"process": None}, "process: missing required block"),
     ({"process": {**BASE_CONFIG["process"], "signal1_nm": 1200.0}},
      "process.signal1_nm: signal_1 at 1200 nm does not down-convert")],
    ids=["process-missing", "signal-beyond-twice-pump"],
)
def test_load_config_builds_and_checks_the_request(tmp_path, overrides, message):
    # before, such a config loaded and only its request() raised
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
        load_config(write_config(tmp_path, **overrides))


@pytest.mark.parametrize("command, overrides, message", [
    ("design", {"material": {"index_increments": {}}},
     "material.index_increments: no polarization tables given"),
    ("design", None, "config file is empty"),
], ids=["increments-no-table", "empty-file"])
def test_a_missing_field_table_or_file_is_named_exactly(tmp_path, capsys, command, overrides,
                                                        message):
    config = tmp_path / "empty.yaml"
    config.write_text("")
    if overrides is not None:
        config = write_config(tmp_path, **overrides)
    code, out, err = run([command, "--config", str(config)], capsys)
    assert (code, out, err) == (2, "", f"configuration error: {message}\n")


def write_config_without(tmp_path, path, empty, data=BASE_CONFIG):
    """`data` with the key at `path` left out or, when `empty`, written with
    nothing under it, as a config file."""
    data = json.loads(json.dumps(data))
    parent = data
    for key in path[:-1]:
        parent = parent.setdefault(key, {})
    parent.pop(path[-1], None)
    if empty:
        parent[path[-1]] = None
    config = tmp_path / ("empty.yaml" if empty else "absent.yaml")
    config.write_text(yaml.safe_dump(data).replace(": null\n", ":\n"))
    return str(config)


# (key path, command that reads it, that command's exit code with the key left out)
OPTIONAL_KEYS = [
    (("material",), "index", 0),
    (("material", "profile"), "index", 0),
    (("material", "index_increments"), "index", 0),
    (("material", "sellmeier"), "index", 0),
    (("material", "profile", "lateral_scale"), "index", 0),
    (("material", "profile", "depth_scale"), "index", 0),
    (("scan", "samples"), "spectrum", 0),
    (("scan", "index_model"), "spectrum", 0),
    (("sweep", "pairing"), "sweep", 0),
    # an optional block is required only by the command that reads it
    (("scan",), "spectrum", 2),
    (("scan",), "design", 0),
    (("sweep",), "sweep", 2),
    (("sweep",), "index", 0),
]


@pytest.mark.parametrize("path, command, code", OPTIONAL_KEYS,
                         ids=[f"{'.'.join(path)}-{command}" for path, command, _ in OPTIONAL_KEYS])
def test_an_empty_optional_key_runs_as_the_key_left_out(tmp_path, capsys, path, command, code):
    # before, an empty `material:`, `profile:`, `index_increments:` or
    # `sellmeier:` key exited 2 with "expected a mapping, got NoneType" (the
    # sellmeier key with "expected one of ('zelmon1997',), got None")
    runs = []
    for empty in (False, True):
        config = write_config_without(tmp_path, path, empty)
        node = yaml.safe_load(Path(config).read_text())
        for key in path[:-1]:
            node = node[key]
        assert (path[-1] in node, node.get(path[-1])) == (empty, None)
        runs.append(run([command, "--config", config, "--format", "records"], capsys))
    assert runs[0] == runs[1]
    assert runs[0][0] == code, runs[0][2]


# (key path, command that reads it); a custom Sellmeier mapping needs both terms
REQUIRED_FIELDS = [
    *((("geometry", key), "design") for key in ("width_um", "depth_um", "length_cm")),
    *((("process", key), "design") for key in ("scheme", "pump_nm", "signal1_nm", "signal2_nm")),
    (("scan", "axis"), "spectrum"),
    (("scan", "span_nm"), "spectrum"),
    (("sweep", "depths_um"), "sweep"),
    (("sweep", "widths_um"), "sweep"),
    (("material", "sellmeier", "ordinary"), "design"),
    (("material", "sellmeier", "extraordinary"), "design"),
]


@pytest.mark.parametrize("empty", [False, True], ids=["absent", "empty"])
@pytest.mark.parametrize("path, command", REQUIRED_FIELDS,
                         ids=[".".join(path) for path, _ in REQUIRED_FIELDS])
def test_a_missing_required_field_is_named(tmp_path, capsys, path, command, empty):
    # before, a missing scheme or axis read "expected one of ..., got None" and
    # a missing Sellmeier term list "missing 'ordinary' terms"
    data = dict(BASE_CONFIG, material={"sellmeier": CUSTOM_SELLMEIER})
    config = write_config_without(tmp_path, path, empty, data)
    block, key = ".".join(path[:-1]), path[-1]
    assert run([command, "--config", config], capsys) == (
        2, "", f"configuration error: {block}: missing required field '{key}'\n")


def test_a_loaded_config_holds_its_request(tmp_path):
    assert [field.name for field in dataclasses.fields(RunConfig)] == [
        "material", "_request", "scan", "sweep"]
    loaded = load_config(write_config(tmp_path))
    assert loaded.request() is loaded.request() == DesignRequest(
        Scheme.TYPE0_EEE, 519.0, 780.0, 775.0, WaveguideGeometry(10.0, 10.0, 1.0))


def test_text_sweep_keeps_six_fields_in_a_failed_row():
    payload = {"rows": [{"depth_um": 1.0, "width_um": 2.5,
                         "status": "idler_1 (1551.03 nm): a, b, c"}]}
    header, row = text_sweep(payload).splitlines()
    assert row == "1,2.5,,,,idler_1 (1551.03 nm): a; b; c"
    assert len(row.split(",")) == len(header.split(",")) == 6


def test_yaml_parse_error_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("geometry: {width_um: 10.0\nprocess: [")
    code, out, err = run(["design", "--config", str(path)], capsys)
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize(
    "text,message",
    [("geometry: " + "[" * 1000 + "]" * 1000, "the config nests too deeply"),
     ("geometry: {width_um: 1" + "0" * 5000 + "}", "Exceeds the limit (4300 digits)")],
    ids=["nested-1000-levels", "int-of-5001-digits"],
)
def test_yaml_python_cannot_hold_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "unreadable.yaml"
    path.write_text(text + "\n")
    code, out, err = run(["design", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert f"configuration error: YAML parse error: {message}" in err
    assert "Traceback" not in err


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(yaml.safe_dump(BASE_CONFIG).encode() + b"# caf\xe9 in Latin-1\n")
    code, out, err = run(["design", "--config", str(path)], capsys)
    assert code == 2
    assert "cannot read config file: not UTF-8" in err
    assert out == ""


def test_unknown_sellmeier_set_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, material={"sellmeier": "nonexistent"})
    code, out, err = run(["design", "--config", config], capsys)
    assert code == 2
    assert "nonexistent" in err


def test_design_text_and_records_agree(tmp_path, capsys):
    config = write_config(tmp_path)
    code, text, _ = run(["design", "--config", config], capsys)
    assert code == 0
    code, records, _ = run(["design", "--config", config, "--format", "records"], capsys)
    assert code == 0
    payload = json.loads(records)
    assert payload["gamma"] == pytest.approx(0.9847, abs=5e-5)
    # the 4-significant-digit report echoes the 9-digit machine numbers
    for key, label, column in (("gamma", "gamma", 1), ("period1_um", "period_1", 1),
                               ("period2_um", "period_2", 1), ("entropy_bits", "entropy", 1)):
        line = next(l for l in text.splitlines() if l.startswith(label))
        reported = float(line.split()[column])
        assert reported == pytest.approx(payload[key], rel=1e-3)


def test_design_output_deterministic(tmp_path, capsys):
    config = write_config(tmp_path)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["design", "--config", config, "--format", "records", "--out", str(out1)]) == 0
    assert main(["design", "--config", config, "--format", "records", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_design_type2_table_value(tmp_path, capsys):
    config = write_config(
        tmp_path,
        geometry={"width_um": 8.0, "depth_um": 8.0, "length_cm": 1.0},
        process={"scheme": "type2_cross", "pump_nm": 519.0,
                 "signal1_nm": 780.0, "signal2_nm": 775.0},
    )
    code, out, _ = run(["design", "--config", config, "--format", "records"], capsys)
    assert code == 0
    assert json.loads(out)["gamma"] == pytest.approx(0.9876, abs=0.05)


def test_sweep_table(tmp_path, capsys):
    config = write_config(tmp_path)
    code, out, _ = run(["sweep", "--config", config], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "depth_um,width_um,gamma,period1_um,period2_um,status"
    assert len(lines) == 3
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_ten_by_ten_grid_under_a_minute(tmp_path, capsys):
    import time

    config = write_config(
        tmp_path,
        sweep={"depths_um": [6.5 + 0.5 * i for i in range(10)],
               "widths_um": [6.5 + 0.5 * i for i in range(10)],
               "pairing": "product"},
    )
    start = time.perf_counter()
    code, out, _ = run(["sweep", "--config", config], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 101
    assert all(line.split(",")[-1] for line in lines[1:])  # per-row status present
    assert elapsed < 60.0


def test_sweep_empty_width_list_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, sweep={"depths_um": [10.0], "widths_um": []})
    code, _, err = run(["sweep", "--config", config], capsys)
    assert code == 2
    assert "widths_um" in err


def test_spectrum_output_and_summary(tmp_path, capsys):
    config = write_config(tmp_path)
    out_path = tmp_path / "spectrum.txt"
    code = main(["spectrum", "--config", config, "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# axis = signal_1"
    fwhm = float(lines[2].split("=")[1])
    assert fwhm == pytest.approx(1.308, abs=0.01)
    samples = [line.split() for line in lines if not line.startswith("#")]
    assert len(samples) == 801
    gains = [float(g) for _, g in samples]
    assert max(gains) == pytest.approx(1.0, abs=1e-6)


def test_spectrum_narrow_span_is_physics_error(tmp_path, capsys):
    config = write_config(tmp_path, scan={"axis": "signal_1", "span_nm": 0.1, "samples": 201})
    code, _, err = run(["spectrum", "--config", config], capsys)
    assert code == 3
    assert "span" in err


def test_spectrum_span_reaching_the_pump_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, scan={"axis": "signal_1", "span_nm": 2000.0, "samples": 201})
    code, _, err = run(["spectrum", "--config", config], capsys)
    assert code == 2
    assert "span_nm" in err and "522" in err
    assert "Traceback" not in err


def test_near_degenerate_pair_suggests_no_unusable_length_or_span(tmp_path, capsys):
    # a 1037.9 nm signal of a 519 nm pump: its spectra are wider than any
    # span clear of the pump, at every supported length
    process = dict(BASE_CONFIG["process"], signal1_nm=1037.9)
    config = write_config(tmp_path, process=process,
                          scan={"axis": "signal_1", "span_nm": 10.0, "samples": 801})
    code, out, err = run(["design", "--config", config], capsys)
    assert (code, out) == (2, "")
    assert "geometry.length_cm 1 cm is too short" in err and "no supported length" in err
    assert "use more than" not in err
    code, out, err = run(["spectrum", "--config", config], capsys)
    assert (code, out) == (3, "")
    assert "no span clear of the pump" in err and "try" not in err


@pytest.mark.parametrize("name", ["type0_w10.yaml", "type2_w6p5.yaml"])
def test_index_does_not_depend_on_length(tmp_path, capsys, name):
    # a length whose design spectra would reach the pump still has modes
    shipped = Path(__file__).resolve().parent.parent / "configs" / name
    data = yaml.safe_load(shipped.read_text())
    data["geometry"]["length_cm"] = 0.01
    short = tmp_path / name
    short.write_text(yaml.safe_dump(data))
    code, expected, _ = run(["index", "--config", str(shipped)], capsys)
    assert code == 0
    code, out, err = run(["index", "--config", str(short)], capsys)
    assert (code, err) == (0, "")
    assert out == expected


def test_short_length_fails_only_the_command_that_prints_design_spectra(tmp_path, capsys):
    # at 0.01 cm the 8 x FWHM design spectra reach the pump; poling, spectrum
    # (with its own span) and sweep rows need none of them
    config = write_config(tmp_path, geometry={"width_um": 10.0, "depth_um": 10.0,
                                              "length_cm": 0.01},
                          scan={"axis": "signal_1", "span_nm": 300.0, "samples": 801})
    for command in ("poling", "spectrum", "sweep"):
        code, out, err = run([command, "--config", config], capsys)
        assert (code, err) == (0, ""), command
        assert out
    code, out, err = run(["sweep", "--config", config], capsys)
    assert out.count(",ok\n") == 2
    code, out, err = run(["design", "--config", config], capsys)
    assert (code, out) == (2, "")
    assert "geometry.length_cm 0.01 cm is too short" in err


def test_poling_too_short_names_the_length_and_the_shortest_one(tmp_path, capsys):
    config = write_config(tmp_path, geometry={"width_um": 10.0, "depth_um": 10.0,
                                              "length_cm": 0.005})
    code, out, err = run(["poling", "--config", config], capsys)
    assert (code, out) == (2, "")
    match = re.fullmatch(r"configuration error: geometry\.length_cm 0\.005 cm is too short: the "
                         r"poling pattern must cover 10 periods of 6\.85\d* um; use at least "
                         r"(0\.00685\d*) cm\n", err)
    assert match, err
    config = write_config(tmp_path, geometry={"width_um": 10.0, "depth_um": 10.0,
                                              "length_cm": float(match.group(1))})
    code, out, err = run(["poling", "--config", config], capsys)
    assert (code, err) == (0, "")


def test_custom_sellmeier_mapping_with_valid_range_runs(tmp_path, capsys):
    sellmeier = {**CUSTOM_SELLMEIER, "name": "zelmon-copy", "valid_range_nm": [400, 5000]}
    config = write_config(tmp_path, material={"sellmeier": sellmeier})
    code, out, _ = run(["index", "--config", config, "--format", "records"], capsys)
    assert code == 0
    assert len(json.loads(out)["waves"]) == 5


def test_poling_boundary_list_format(tmp_path, capsys):
    config = write_config(tmp_path)
    code, out, _ = run(["poling", "--config", config], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 2000
    values = [float(line) for line in lines[:50]]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(len(line.split(".")[1]) == 6 for line in lines[:50])


@pytest.mark.parametrize("flag", ["--depths", "--widths"])
def test_sweep_lists_come_from_the_config_only(tmp_path, capsys, flag):
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as raised:
        main(["sweep", "--config", config, flag, "10"])
    assert raised.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


PROCESS = BASE_CONFIG["process"]
# Zelmon 1997 terms written out as a custom Sellmeier mapping
CUSTOM_SELLMEIER = {
    "ordinary": [[2.6734, 0.01764], [1.2290, 0.05914], [12.614, 474.60]],
    "extraordinary": [[2.9804, 0.02047], [0.5981, 0.0666], [8.9543, 416.08]],
}


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"material": {"sellmeier": {"ordinary": [[1, 2, 3]],
                                     "extraordinary": [[2.98, 0.02]]}}},
         "material.sellmeier.ordinary"),
        ({"material": {"index_increments": {"extraordinary": [["a", 0.003]]}}},
         "material.index_increments.extraordinary"),
        ({"material": {"profile": {"lateral_scale": "abc"}}}, "material.profile.lateral_scale"),
        ({"material": {"profile": {"lateral_scale": 0}}}, "material.profile.lateral_scale"),
        ({"material": {"profile": {"lateral_scale": -0.5}}}, "material.profile.lateral_scale"),
        ({"process": {**PROCESS, "signal1_nm": float("nan")}}, "process.signal1_nm"),
        ({"process": {**PROCESS, "signal1_nm": 1200.0}}, "process.signal1_nm"),
        ({"material": {"sellmeier": {**CUSTOM_SELLMEIER, "valid_range_nm": [400]}}},
         "material.sellmeier.valid_range_nm"),
        ({"material": {"sellmeier": {**CUSTOM_SELLMEIER, "valid_range_nm": [400, "x"]}}},
         "material.sellmeier.valid_range_nm"),
        ({"material": {"sellmeier": {**CUSTOM_SELLMEIER, "valid_rang_nm": [400, 5000]}}},
         "material.sellmeier: unknown field 'valid_rang_nm'"),
        ({"material": {"temprature_c": 30}}, "material: unknown field 'temprature_c'"),
        ({"material": {"profile": {"lateral_scal": 0.1}}},
         "material.profile: unknown field 'lateral_scal'"),
        ({"scan": {"axis": "signal_1", "span_nm": 8.0, "sample": 801}},
         "scan: unknown field 'sample'"),
        ({"material": {"sellmeier": "zelmon1997", "temperature_c": 25.0}},
         "material: unknown field 'temperature_c'"),
        ({"material": {"sellmeier": CUSTOM_SELLMEIER, "temperature_c": 25.0}},
         "material: unknown field 'temperature_c'"),
        ({"output": {"format": "records"}}, "config: unknown field 'output'"),
        ({"geometry": {"width_um": 10**400, "depth_um": 10.0, "length_cm": 1.0}},
         "geometry.width_um: expected a finite positive number"),
        ({"sweep": {"depths_um": [10.0, -10**400], "widths_um": [10.0]}}, "sweep.depths_um"),
        ({"material": {"index_increments": {"extraordinary": [[519.0, 10**400]]}}},
         "material.index_increments.extraordinary"),
        ({"sweep": {"depths_um": [True], "widths_um": [10.0]}}, "sweep.depths_um"),
        ({"sweep": {"depths_um": ["8"], "widths_um": [10.0]}}, "sweep.depths_um"),
        ({"scan": {"axis": "signal_1", "span_nm": 8.0, "samples": 50}}, "scan.samples"),
        ({"scan": {"axis": "signal_1", "span_nm": 8.0, "samples": 10**7}}, "scan.samples"),
        ({"material": {"index_increments": {"extraordinary": [[True, 0.003]]}}},
         "material.index_increments.extraordinary"),
        ({"material": {"sellmeier": {**CUSTOM_SELLMEIER, "extraordinary": [[-5.0, 0.01]]}}},
         "material.sellmeier"),
        ({"geometry": {"width_um": 60.0, "depth_um": 10.0, "length_cm": 1.0}},
         "geometry.width_um"),
        ({"geometry": {"width_um": 10.0, "depth_um": 0.5, "length_cm": 1.0}},
         "geometry.depth_um"),
        ({"geometry": {"width_um": 10.0, "depth_um": 10.0, "length_cm": 12.0}},
         "geometry.length_cm"),
        ({"material": {"index_increments": {"extraordinary": [[519.0, 0.02]]}}},
         "material.index_increments.extraordinary: extraordinary increment 0.02"),
        ({"geometry": {"width_um": 10.0, "depth_um": 10.0, "length_cm": 0.01}},
         "geometry.length_cm 0.01 cm is too short"),
        ({"sweep": {"depths_um": [10.0, 60.0], "widths_um": [10.0], "pairing": "product"}},
         "sweep.depths_um: depth 60 um outside the supported range"),
        ({"sweep": {"depths_um": [10.0], "widths_um": [0.5], "pairing": "product"}},
         "sweep.widths_um: width 0.5 um outside the supported range"),
        ({"sweep": {"depths_um": [8.0], "widths_um": [8.0, 10.0], "pairing": "zip"}},
         "sweep.depths_um, sweep.widths_um: zip pairing needs equally long lists"),
        ({"scan": None, "geometry": {"width_um": 1.0, "depth_um": 1.0, "length_cm": 1.0}},
         "scan: missing required block"),
        # the process block is checked at load, before the command reads its scan block
        ({"scan": None, "process": None}, "process: missing required block"),
        ({"process": None}, "process: missing required block"),
        ({"sweep": None}, "sweep: missing required block"),
        ({"scan": {"axis": "signal_1", "span_nm": 2000.0, "samples": 201}},
         "scan.span_nm: span_nm 2000 nm reaches the pump"),
    ],
    ids=["sellmeier-row-shape", "increment-not-a-number", "lateral-scale-text",
         "lateral-scale-zero", "lateral-scale-negative", "signal-nan", "signal-beyond-twice-pump",
         "valid-range-one-number", "valid-range-text", "sellmeier-unknown-key",
         "material-unknown-key", "profile-unknown-key", "scan-unknown-key",
         "named-set-temperature", "custom-set-temperature", "output-block",
         "width-too-large-for-a-float", "sweep-depth-too-large-for-a-float",
         "increment-too-large-for-a-float",
         "depth-bool", "depth-text", "samples-too-few", "samples-too-many",
         "increment-wavelength-bool", "sellmeier-negative-square", "width-out-of-range",
         "depth-out-of-range", "length-out-of-range", "increment-out-of-range",
         "length-too-short", "sweep-depth-out-of-range", "sweep-width-out-of-range",
         "sweep-zip-lengths", "scan-missing-before-design", "process-missing-before-scan",
         "process-missing", "sweep-missing", "scan-span-reaches-pump"],
)
def test_malformed_config_field_is_config_error(tmp_path, capsys, overrides, field):
    config = write_config(tmp_path, **overrides)
    command = {"sweep": "sweep", "scan": "spectrum"}.get(next(iter(overrides)), "design")
    code, _, err = run([command, "--config", config], capsys)
    assert code == 2
    assert field in err
    assert "Traceback" not in err


def test_unwritable_output_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "missing" / "x.txt"
    code, _, err = run(["design", "--config", config, "--out", str(out)], capsys)
    assert code == 2
    assert str(out) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags,flag",
    [
        (["--parallel", "0"], "--parallel"),
        (["--parallel", "-3"], "--parallel"),
    ],
    ids=["parallel-zero", "parallel-negative"],
)
def test_malformed_sweep_flag_is_config_error(tmp_path, capsys, flags, flag):
    config = write_config(tmp_path)
    code, out, err = run(["sweep", "--config", config, *flags], capsys)
    assert code == 2
    assert flag in err
    assert "Traceback" not in err
    assert out == ""


SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))


def _field_paths(node, path=()):
    """Every block, field and list element of a parsed config, as key paths."""
    if path:
        yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _field_paths(child, path + (key,))


SHIPPED_FIELDS = [
    (config.name, path)
    for config in SHIPPED_CONFIGS
    for path in _field_paths(yaml.safe_load(config.read_text()))
]
UNKNOWN_KEY = object()
# one of each malformed kind: wrong type, non-finite, bool, string, empty list,
# zero, negative, an integer too large for a float, and an unknown key beside
# the field
BAD_VALUES = [{"nested": 1.0}, [1.0, 2.0], float("nan"), float("inf"), -float("inf"),
              True, False, "abc", [], 0, -1.5, 10**400, UNKNOWN_KEY]


@settings(max_examples=300)
@given(field=st.sampled_from(SHIPPED_FIELDS), value=st.sampled_from(BAD_VALUES))
@example(field=("type0_w10.yaml", ("geometry", "width_um")), value=10**400)
@example(field=("type0_w10.yaml", ("sweep", "depths_um", 0)), value=10**400)
def test_mutated_shipped_config_keeps_the_exit_code_contract(field, value):
    name, path = field
    data = yaml.safe_load((SHIPPED_CONFIGS[0].parent / name).read_text())
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is UNKNOWN_KEY:
        if not isinstance(parent, dict):
            return
        parent["unknown_key"] = 1.0
    else:
        parent[path[-1]] = value
    # the shipped scans are design-point with at most 10 000 samples; no mutation
    # makes them dispersive or larger
    command = {"scan": "spectrum", "sweep": "sweep"}.get(path[0], "design")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / name
        config.write_text(yaml.safe_dump(data))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()


WAVES_AND_PROCESSES = ("pump", "signal_1", "idler_1", "signal_2", "idler_2",
                       "process_1", "process_2")


@settings(max_examples=100)
@given(scheme=st.sampled_from(["type0_eee", "type2_cross"]),
       width=st.floats(1.0, 50.0), depth=st.floats(1.0, 50.0),
       length=st.floats(0.0, 10.0, exclude_min=True), pump=st.floats(400.0, 1000.0),
       ratio1=st.floats(1.05, 1.95, exclude_min=True, exclude_max=True),
       ratio2=st.floats(1.05, 1.95, exclude_min=True, exclude_max=True))
@example(scheme="type2_cross", width=10.0, depth=10.0, length=0.01, pump=519.0,
         ratio1=780.0 / 519.0, ratio2=775.0 / 519.0)
def test_valid_request_exits_0_or_3_and_reruns_identically(scheme, width, depth, length, pump,
                                                            ratio1, ratio2):
    # a request inside every documented range is a design or a physics error
    # naming its wave or process; the one configuration error left is an
    # interaction length below the shortest the design spectra allow
    assume(ratio1 != ratio2)
    data = {"geometry": {"width_um": width, "depth_um": depth, "length_cm": length},
            "process": {"scheme": scheme, "pump_nm": pump, "signal1_nm": ratio1 * pump,
                        "signal2_nm": ratio2 * pump}}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.yaml"
        config.write_text(yaml.safe_dump(data))
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["design", "--config", str(config), "--format", "records"])
            runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    if code == 2:
        limit = re.search(r"geometry\.length_cm .* use more than (\S+) cm", err)
        if limit is None:  # the spectra reach the pump at every supported length
            assert re.search(r"geometry\.length_cm .* no supported length", err), err
        else:
            assert length < float(limit.group(1)) * (1.0 + 1e-5)
    elif code == 3:
        assert re.match(rf"physics error: ({'|'.join(WAVES_AND_PROCESSES)}) \(", err), err
    else:
        assert code == 0 and json.loads(out)["gamma"] > 0.0


@pytest.mark.parametrize("length_cm", [5.0e-324, 1.0e-310])
def test_a_spectrum_at_a_subnormal_length_is_an_error_without_a_traceback(tmp_path, capsys,
                                                                          length_cm):
    # before, 5e-324 cm raised ZeroDivisionError from the FWHM estimate and
    # 1e-310 cm reported that the estimated FWHM is inf nm
    config = write_config(tmp_path, geometry={**BASE_CONFIG["geometry"], "length_cm": length_cm})
    code, _, err = run(["spectrum", "--config", config], capsys)
    assert code in (2, 3), err
    assert "Traceback" not in err and "inf nm" not in err


@pytest.mark.parametrize("profile", [{"depth_scale": 1.0e-300}, {"lateral_scale": 1e-310}],
                         ids=["depth-scale-1e-300", "lateral-scale-1e-310"])
def test_tiny_profile_scale_fails_as_physics_without_a_numpy_warning(tmp_path, capsys, profile):
    # before, the depth decay printed "overflow encountered in square" and
    # the channel wall "overflow encountered in divide"; pytest turns
    # RuntimeWarnings into errors
    config = write_config(tmp_path, material={"sellmeier": "zelmon1997", "profile": profile})
    code, out, err = run(["design", "--config", config], capsys)
    assert code == 3, err
    assert "Warning" not in err
