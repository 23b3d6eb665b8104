import json

import pytest
import yaml

from dppln.cli import main

BASE_CONFIG = {
    "material": {"sellmeier": "zelmon1997", "temperature_c": 25.0},
    "geometry": {"width_um": 10.0, "depth_um": 10.0, "length_cm": 1.0},
    "process": {
        "scheme": "type0_eee",
        "pump_nm": 519.0,
        "signal1_nm": 780.0,
        "signal2_nm": 775.0,
    },
    "scan": {"axis": "signal_1", "span_nm": 8.0, "samples": 801},
    "sweep": {"depths_um": [8.0, 10.0], "widths_um": [8.0, 10.0], "pairing": "zip"},
    "output": {"format": "text"},
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


def test_yaml_parse_error_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("geometry: {width_um: 10.0\nprocess: [")
    code, out, err = run(["design", "--config", str(path)], capsys)
    assert code == 2
    assert "line" in err


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


def test_sweep_table_and_overrides(tmp_path, capsys):
    config = write_config(tmp_path)
    code, out, _ = run(["sweep", "--config", config], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "depth_um,width_um,gamma,period1_um,period2_um,status"
    assert len(lines) == 3
    assert all(line.endswith(",ok") for line in lines[1:])
    code, out, _ = run(["sweep", "--config", config, "--depths", "10", "--widths", "10"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


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


def test_poling_boundary_list_format(tmp_path, capsys):
    config = write_config(tmp_path)
    code, out, _ = run(["poling", "--config", config], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 2000
    values = [float(line) for line in lines[:50]]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(len(line.split(".")[1]) == 6 for line in lines[:50])


def test_records_format_from_config_block(tmp_path, capsys):
    config = write_config(tmp_path, output={"format": "records"})
    code, out, _ = run(["index", "--config", config], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [w["wave"] for w in payload["waves"]] == [
        "pump", "signal_1", "idler_1", "signal_2", "idler_2"
    ]


PROCESS = BASE_CONFIG["process"]


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
    ],
    ids=["sellmeier-row-shape", "increment-not-a-number", "lateral-scale-text",
         "lateral-scale-zero", "lateral-scale-negative", "signal-nan"],
)
def test_malformed_config_field_is_config_error(tmp_path, capsys, overrides, field):
    config = write_config(tmp_path, **overrides)
    code, _, err = run(["design", "--config", config], capsys)
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
