"""File formats and command-line behavior: schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enspulse.bloch import ControlSequence, DispersionGrid, FidelityMap
from enspulse.cli import main
from enspulse.errors import SchemaError
from enspulse.fileio import (
    _write_csv,
    emit_fidelity_csv,
    load_grid,
    load_pulse,
    parse_fidelity_csv,
    save_grid,
    save_pulse,
)


@pytest.fixture()
def pulse_file(tmp_path):
    rng = np.random.default_rng(50)
    pulse = ControlSequence(1e-4, rng.uniform(-2000, 2000, (24, 2)))
    path = tmp_path / "pulse.json"
    save_pulse(str(path), pulse)
    return str(path), pulse


@pytest.fixture()
def grid_file(tmp_path):
    grid = DispersionGrid.from_ranges(omega=(-2000, 2000, 5), epsilon=(0.9, 1.1, 3))
    path = tmp_path / "grid.json"
    save_grid(str(path), grid)
    return str(path), grid


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------


def test_pulse_roundtrip(pulse_file):
    path, pulse = pulse_file
    loaded = load_pulse(path)
    assert loaded.dt == pulse.dt
    assert np.array_equal(loaded.samples, pulse.samples)


def test_pulse_missing_schema_version(tmp_path, pulse_file):
    path, _ = pulse_file
    doc = json.load(open(path))
    del doc["schema_version"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="schema_version"):
        load_pulse(str(bad))


def test_pulse_wrong_unit(tmp_path, pulse_file):
    path, _ = pulse_file
    doc = json.load(open(path))
    doc["amplitude_unit"] = "hz"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="amplitude_unit"):
        load_pulse(str(bad))


def test_pulse_unknown_key(tmp_path, pulse_file):
    path, _ = pulse_file
    doc = json.load(open(path))
    doc["mystery"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="unknown keys"):
        load_pulse(str(bad))


def test_malformed_json_reports_line(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "dt": 1e-4,\n  oops\n}')
    with pytest.raises(SchemaError, match=r":3:"):
        load_pulse(str(bad))


def test_grid_roundtrip(grid_file):
    path, grid = grid_file
    loaded = load_grid(path)
    assert loaded.names == grid.names
    for name in grid.names:
        assert np.allclose(loaded.axes[name], grid.axes[name], atol=1e-15)


def test_grid_bad_range(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"axes": {"omega": {"min": 2.0, "max": 1.0, "n": 4}}}))
    with pytest.raises(SchemaError, match="invalid range"):
        load_grid(str(path))


def test_fidelity_csv_roundtrip(tmp_path):
    grid = DispersionGrid.from_ranges(omega=(-10, 10, 3), epsilon=(0.95, 1.05, 4))
    rng = np.random.default_rng(51)
    fmap = FidelityMap(grid, rng.uniform(0.2, 1.0, grid.size))
    path = tmp_path / "map.csv"
    emit_fidelity_csv(fmap, str(path))
    parsed = parse_fidelity_csv(str(path))
    assert parsed.grid.names == grid.names
    assert np.abs(parsed.values - fmap.values).max() <= 1e-15


def test_fidelity_csv_row_order(tmp_path):
    grid = DispersionGrid.from_ranges(omega=(0, 1, 2), epsilon=(0.9, 1.1, 2))
    fmap = FidelityMap(grid, np.array([0.1, 0.2, 0.3, 0.4]))
    path = tmp_path / "map.csv"
    emit_fidelity_csv(fmap, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "omega,epsilon,fidelity"
    assert len(lines) == 5
    # lexicographic: omega outermost, epsilon innermost
    first = [float(v) for v in lines[1].split(",")]
    second = [float(v) for v in lines[2].split(",")]
    assert first[0] == second[0] and first[1] < second[1]


def test_single_point_grid_single_row(tmp_path):
    grid = DispersionGrid.from_ranges(omega=(5, 5, 1))
    fmap = FidelityMap(grid, np.array([0.7]))
    path = tmp_path / "map.csv"
    emit_fidelity_csv(fmap, str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------


def test_csv_rows_render_like_format_17g(tmp_path):
    near_one = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1 - 1e-16, 0.9999999999999998]
    col_a = [-0.0, 5e-324, 0.1, float(2**53 + 1), 1e300] + near_one
    col_b = [-1.5e-310, 1 / 3, -2.0**-1074, 123456789.0, -7.0] + [-x for x in near_one]
    path = tmp_path / "tricky.csv"
    _write_csv(str(path), ["a", "b"], [np.array(col_a), col_b])
    expected = ["a,b"] + [
        ",".join(format(x, ".17g") for x in row) for row in zip(col_a, col_b)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_simulate_writes_state_csv(tmp_path, pulse_file, grid_file):
    out = tmp_path / "state.csv"
    code = main(
        [
            "simulate",
            "--pulse", pulse_file[0],
            "--grid", grid_file[0],
            "--initial", "0,0,1",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "omega,epsilon,x,y,z"
    assert len(lines) == 1 + 15


def test_simulate_rejects_bad_pulse(tmp_path, grid_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(
        ["simulate", "--pulse", str(bad), "--grid", grid_file[0], "--out", str(tmp_path / "o.csv")]
    )
    assert code == 2


def test_cli_outputs_are_byte_identical(tmp_path, pulse_file, grid_file):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["fidelity-map", "--pulse", pulse_file[0], "--grid", grid_file[0],
            "--target", "1,0,0", "--out", None]
    for out in (out1, out2):
        argv[-1] = str(out)
        assert main(list(argv)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_design_slr_end_to_end(tmp_path):
    out = tmp_path / "bb.json"
    code = main(
        [
            "design-slr",
            "--axis", "x",
            "--angle", "1.5707963267948966",
            "--band", "2000",
            "--steps", "64",
            "--dt", "1e-4",
            "--out", str(out),
        ]
    )
    assert code == 0
    pulse = load_pulse(str(out))
    assert pulse.nsteps == 64
    diag = json.load(open(str(out) + ".diag.json"))
    assert diag["band_error"] <= 0.05
    assert diag["min_fidelity"] >= 0.99
    fmap = parse_fidelity_csv(diag["fidelity_map"])
    assert fmap.min >= 0.99
    assert diag["unimodularity_residual"] <= 1e-12
    for key in ("res_lead", "res_low", "final_dev"):
        assert 0.0 <= diag[key] <= 1e-6


def test_design_pattern_writes_health_figures(tmp_path):
    out = tmp_path / "pat.json"
    code = main(
        [
            "design-pattern",
            "--band", "5000",
            "--select=-2500,2500",
            "--flip", "1.5707963267948966",
            "--steps", "64",
            "--out", str(out),
        ]
    )
    assert code == 0
    diag = json.load(open(str(out) + ".diag.json"))
    assert diag["unimodularity_residual"] <= 1e-12
    for key in ("res_lead", "res_low", "final_dev"):
        assert 0.0 <= diag[key] <= 1e-6


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg is imported by the commands that need it, not at start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, enspulse.cli; sys.exit('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, timeout=120
    )
    assert result.returncode == 0


def test_design_composite_writes_diagnostics(tmp_path):
    out = tmp_path / "comp.json"
    code = main(
        [
            "design-composite",
            "--angle", "1.5707963267948966",
            "--eps-range", "0.9,1.1",
            "--basis", "1,3,5",
            "--out", str(out),
        ]
    )
    assert code == 0
    diag = json.load(open(str(out) + ".diag.json"))
    assert diag["min_fidelity"] >= 0.9999
    assert "fit_max" in diag and "fidelity_map" in diag


def test_design_composite_infeasible_exit_code(tmp_path):
    # an even target over a sign-symmetric range with odd powers only
    code = main(
        [
            "design-composite",
            "--angle", "1.0",
            "--eps-range=-0.2,0.2",
            "--basis", "1,3",
            "--tol", "1e-3",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert code == 3


def test_design_zz_end_to_end(tmp_path):
    out = tmp_path / "zz.json"
    code = main(
        [
            "design-zz",
            "--theta", "0.7853981633974483",
            "--j0", "1.0",
            "--delta", "0.1",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.load(open(out))
    assert doc["kind"] == "segment_list"
    assert all(seg["duration"] >= 0 for seg in doc["segments"] if seg["kind"] == "coupling")
    diag = json.load(open(str(out) + ".diag.json"))
    assert diag["min_fidelity"] >= 0.999


def test_demo_phase(tmp_path, pulse_file, capsys):
    code = main(["demo-phase", "--pulse", pulse_file[0], "--thetas", "0,0.5,1.0"])
    assert code == 0
    printed = capsys.readouterr().out
    assert float(printed.split()[-1]) <= 1e-9


def test_demo_heisenberg(capsys):
    code = main(["demo-heisenberg", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "second_order_spread" in out


def test_analyze_lie_presets(tmp_path):
    out = tmp_path / "lie.json"
    assert main(["analyze-lie", "--preset", "rf-scale", "--out", str(out)]) == 0
    doc = json.load(open(out))
    assert doc["dimension"] == 3
    assert doc["nilpotency"]["verdict"] == "not_nilpotent"

    assert main(["analyze-lie", "--preset", "heisenberg-fields", "--out", str(out)]) == 0
    doc = json.load(open(out))
    assert doc["nilpotency"] == {"verdict": "nilpotent", "step": 2}


def test_analyze_linear(tmp_path):
    samples = {
        "samples": [
            {"s": 1.0, "A": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0, 1.0]},
            {"s": 1.5, "A": [[1.5, 0.0], [0.0, 3.0]], "b": [1.0, 1.0]},
        ]
    }
    spath = tmp_path / "samples.json"
    spath.write_text(json.dumps(samples))
    out = tmp_path / "report.json"
    assert main(["analyze-linear", "--samples", str(spath), "--out", str(out)]) == 0
    doc = json.load(open(out))
    assert doc["passed"] is True


def test_config_file_supplies_defaults(tmp_path, pulse_file, grid_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = hard-pulse\ninitial = 0,0,1\n")
    out = tmp_path / "state.csv"
    code = main(
        [
            "simulate",
            "--pulse", pulse_file[0],
            "--grid", grid_file[0],
            "--out", str(out),
            "--config", str(cfg),
        ]
    )
    assert code == 0


def test_render_json_deterministic_and_typed(tmp_path):
    from enspulse.fileio import render_json

    doc = {
        "b": [1.0, 2.5e-17, 3],
        "a": {"nested": True, "none": None, "text": "x"},
        "arr": np.array([0.1, 0.2]),
    }
    text1 = render_json(doc)
    text2 = render_json(doc)
    assert text1 == text2
    parsed = json.loads(text1)
    assert parsed["a"]["nested"] is True and parsed["a"]["none"] is None
    assert parsed["b"][1] == 2.5e-17


def test_design_slr_with_amplitude_bound(tmp_path):
    out = tmp_path / "bounded.json"
    code = main(
        [
            "design-slr",
            "--angle", "1.5707963267948966",
            "--band", "2000",
            "--steps", "32",
            "--dt", "1e-4",
            "--a-max", "2000",
            "--out", str(out),
        ]
    )
    assert code == 0
    pulse = load_pulse(str(out))
    assert pulse.a_max == 2000
    assert np.hypot(pulse.samples[:, 0], pulse.samples[:, 1]).max() <= 2000 * (1 + 1e-12)
    diag = json.load(open(str(out) + ".diag.json"))
    assert diag["blocks"] >= 2
    assert pulse.nsteps == 32 * diag["blocks"]


def test_nonpositive_tolerance_rejected(tmp_path):
    code = main(
        [
            "design-composite",
            "--angle", "1.0",
            "--tol", "-1e-3",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert code == 2


def test_config_rejects_unknown_key(tmp_path, pulse_file, grid_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    code = main(
        [
            "simulate",
            "--pulse", pulse_file[0],
            "--grid", grid_file[0],
            "--out", str(tmp_path / "s.csv"),
            "--config", str(cfg),
        ]
    )
    assert code == 2
