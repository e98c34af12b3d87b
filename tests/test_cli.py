"""File formats and command-line behavior: schemas, exit codes, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from enspulse import composite, slr
from enspulse.bloch import ControlSequence, DispersionGrid, EnsembleState, FidelityMap
from enspulse.cli import build_parser, main
from enspulse.composite import DEFAULT_TOL
from enspulse.errors import InfeasibleError, SchemaError
from enspulse.fileio import (
    _layout,
    _write_csv,
    emit_fidelity_csv,
    emit_state_csv,
    load_grid,
    load_pulse,
    render_json,
    save_pulse,
)
from enspulse.slr import rotation_target


def save_grid(path, grid):
    """Write ``grid`` as a grid file: each axis's min, max and point count."""
    axes = {name: {"min": float(v[0]), "max": float(v[-1]), "n": len(v)} for name, v in grid.axes.items()}
    Path(path).write_text(json.dumps({"axes": axes}) + "\n")


def parse_fidelity_csv(path):
    """The fidelity map held by a CSV that ``emit_fidelity_csv`` wrote."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = np.array([[float(v) for v in line.split(",")] for line in fh if line.strip()])
    assert header[-1] == "fidelity"
    grid = DispersionGrid({name: np.unique(cols[:, j]) for j, name in enumerate(header[:-1])})
    assert grid.size == len(cols)
    return FidelityMap(grid, cols[:, -1])


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


@pytest.mark.parametrize(
    "axis",
    [
        {"min": -1.0, "max": 1.0, "n": "5"},
        {"min": -1.0, "max": 1.0, "n": None},
        {"min": "a", "max": 1.0, "n": 5},
        {"min": -1.0, "max": True, "n": 5},
        {"min": -1.0, "max": 1.0, "n": float("nan")},
        {"min": -1.0, "max": float("inf"), "n": 5},
        {"min": -1.0, "max": 1.0, "n": 2.5},
    ],
)
def test_grid_non_numeric_or_non_finite_axis_names_file_and_axis(tmp_path, axis):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"axes": {"omega": axis}}))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: axis 'omega'")):
        load_grid(str(path))


@pytest.mark.parametrize("dt", ["NaN", "Infinity", "-Infinity", "0"])
def test_pulse_dt_must_be_finite_and_positive(tmp_path, dt):
    path = tmp_path / "pulse.json"
    path.write_text(
        '{"schema_version": 1, "amplitude_unit": "rad_per_s", "dt": %s, "samples": [[1.0, 0.0]]}' % dt
    )
    with pytest.raises(SchemaError, match="dt must be positive and finite"):
        load_pulse(str(path))


@pytest.mark.parametrize("a_max", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_a_max_must_be_finite_and_positive(a_max):
    # amp > nan is false, so a NaN bound used to pass every amplitude check
    with pytest.raises(ValueError, match="a_max must be positive and finite"):
        ControlSequence(1e-4, [[1.0, 0.0]], a_max)


@pytest.mark.parametrize("a_max", ["NaN", "Infinity", "-Infinity", "0"])
def test_pulse_file_a_max_must_be_finite_and_positive(tmp_path, grid_file, capsys, a_max):
    path = tmp_path / "pulse.json"
    path.write_text(
        '{"schema_version": 1, "amplitude_unit": "rad_per_s", "dt": 1e-4, "samples": [[1.0, 0.0]],'
        ' "a_max": %s}' % a_max
    )
    with pytest.raises(SchemaError, match="a_max must be positive and finite"):
        load_pulse(str(path))
    out = tmp_path / "map.csv"
    argv = ["fidelity-map", "--pulse", str(path), "--grid", grid_file[0], "--target", "1,0,0", "--out", str(out)]
    assert main(argv) == 2
    assert "a_max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("dt", "true"), ("dt", '"1e-4"'), ("dt", "null"), ("dt", None),
        ("a_max", "true"), ("a_max", '"5"'), ("a_max", "null"),
    ],
)
def test_pulse_file_dt_and_a_max_must_be_json_numbers(tmp_path, grid_file, capsys, key, value):
    # a boolean used to load as 1.0 and a string as its number; None leaves the key out
    fields = {"dt": "1e-4", key: value}
    path = tmp_path / "pulse.json"
    path.write_text(
        '{"schema_version": 1, "amplitude_unit": "rad_per_s", "samples": [[1.0, 0.0]]'
        + "".join(f', "{k}": {v}' for k, v in fields.items() if v is not None)
        + "}"
    )
    with pytest.raises(SchemaError, match=f"{key} must be a JSON number"):
        load_pulse(str(path))
    out = tmp_path / "map.csv"
    argv = ["fidelity-map", "--pulse", str(path), "--grid", grid_file[0], "--target", "1,0,0", "--out", str(out)]
    assert main(argv) == 2
    assert f"{key} must be a JSON number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "samples",
    [
        '[["1e3", 2.0]]', "[[1.0, true]]", "[[false, 2.0]]", "[[1.0, null]]",
        '[["1e3", true], [false, "2"]]', "[[1.0, 0.0], [[2.0], 0.0]]", "[1.0, 0.0]", '"1e3"',
        "[[1, 2], [3]]", "[[1.0, 2.0, 3.0]]", '{"u": 1.0, "v": 2.0}',
    ],
)
def test_pulse_file_samples_must_be_json_numbers(tmp_path, grid_file, capsys, samples):
    # np.asarray(..., dtype=float) used to read strings as their numbers and
    # booleans as 0 and 1
    path = tmp_path / "pulse.json"
    path.write_text('{"schema_version": 1, "amplitude_unit": "rad_per_s", "dt": 1e-4, "samples": %s}' % samples)
    with pytest.raises(SchemaError, match="samples must be"):
        load_pulse(str(path))
    out = tmp_path / "map.csv"
    argv = ["fidelity-map", "--pulse", str(path), "--grid", grid_file[0], "--target", "1,0,0", "--out", str(out)]
    assert main(argv) == 2
    assert "samples must be" in capsys.readouterr().err
    assert not out.exists()


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
    _write_csv(str(path), ["a", "b"], [np.array(col_a)], [col_b])
    expected = ["a,b"] + [
        ",".join(format(x, ".17g") for x in row) for row in zip(col_a, col_b)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"


def written_lines(path):
    text = path.read_text()
    assert text.endswith("\n")
    # lines, not one string, so that a mismatch reports its first row quickly
    return text.split("\n")[:-1]


def per_row_csv(header, grid, columns):
    """The lines of a grid table's CSV, each row formatted value by value."""
    pts = grid.points()
    rows = zip(*[pts[n] for n in grid.names], *columns)
    return [",".join(header)] + [",".join(format(float(x), ".17g") for x in row) for row in rows]


@pytest.mark.parametrize(
    "sizes",
    [
        {"omega": 1500},
        {"omega": 7, "epsilon": 100},
        {"omega": 2, "epsilon": 1100},
        {"omega": 5, "epsilon": 3, "theta": 40},
    ],
    ids=lambda sizes: "x".join(f"{name}{n}" for name, n in sizes.items()),
)
def test_grid_csv_rows_match_a_per_row_oracle(tmp_path, sizes):
    # uneven axis values and values spread over many decades, on grids whose
    # blocks hold one, several or a partial run of outer-axis values
    rng = np.random.default_rng(len(sizes))
    grid = DispersionGrid(
        {name: np.unique(rng.normal(size=n) * 10.0 ** rng.integers(-5, 5, n))
         for name, n in sizes.items()}
    )
    fmap = FidelityMap(grid, rng.uniform(0.0, 1.0, grid.size) ** 9)
    path = tmp_path / "map.csv"
    emit_fidelity_csv(fmap, str(path))
    header = list(grid.names) + ["fidelity"]
    assert written_lines(path) == per_row_csv(header, grid, [fmap.values])
    xyz = rng.normal(size=(grid.size, 3)) * 10.0 ** rng.integers(-8, 8, (grid.size, 1))
    state = EnsembleState(grid, "bloch", xyz / np.linalg.norm(xyz, axis=1, keepdims=True))
    emit_state_csv(state, str(path))
    header = list(grid.names) + ["x", "y", "z"]
    assert written_lines(path) == per_row_csv(header, grid, list(state.values.T))
    # a column that is mostly signed zeros, as a design's profile columns are
    small = rng.normal(size=grid.size) * 1e-3
    signed = np.where(rng.random(grid.size) < 0.7, np.copysign(0.0, small), small)
    header = list(grid.names) + ["a", "b"]
    _write_csv(str(path), header, list(grid.axes.values()), [signed, -signed])
    assert written_lines(path) == per_row_csv(header, grid, [signed, -signed])


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


@pytest.mark.parametrize("target", ["0,0,0", "0,0,2", "nan,0,1"])
def test_fidelity_map_rejects_non_unit_target_before_propagating(
    tmp_path, pulse_file, grid_file, capsys, monkeypatch, target
):
    def no_propagation(*args, **kwargs):
        raise AssertionError("propagated a map for a non-unit target")

    monkeypatch.setattr("enspulse.cli.fidelity_map", no_propagation)
    out = tmp_path / "map.csv"
    argv = ["fidelity-map", "--pulse", pulse_file[0], "--grid", grid_file[0],
            f"--target={target}", "--out", str(out)]
    assert main(argv) == 2
    assert "--target" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fidelity-map"])
def test_nan_initial_state_is_rejected(tmp_path, pulse_file, grid_file, capsys, command):
    out = tmp_path / "out.csv"
    argv = [command, "--pulse", pulse_file[0], "--grid", grid_file[0],
            "--initial=nan,0,1", "--out", str(out)]
    if command == "fidelity-map":
        argv += ["--target", "1,0,0"]
    assert main(argv) == 2
    assert "--initial must be a unit Bloch vector, its norm is off by nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "initial, dev", [("0,0,2", "1.000e+00"), ("0,0,0", "1.000e+00"), ("0.6,0,0", "4.000e-01"), ("0,nan,1", "nan")]
)
@pytest.mark.parametrize("command", ["simulate", "fidelity-map"])
def test_initial_that_is_not_a_unit_vector_is_named_with_its_norm_deviation(
    tmp_path, pulse_file, grid_file, capsys, command, initial, dev
):
    out = tmp_path / "out.csv"
    argv = [command, "--pulse", pulse_file[0], "--grid", grid_file[0], f"--initial={initial}", "--out", str(out)]
    if command == "fidelity-map":
        argv += ["--target", "1,0,0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --initial must be a unit Bloch vector, its norm is off by {dev}\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["grid.json", "pulse.json"]


@pytest.mark.parametrize("command", ["simulate", "fidelity-map"])
def test_single_spin_commands_reject_a_coupling_axis(tmp_path, pulse_file, capsys, command):
    grid = tmp_path / "j.json"
    grid.write_text('{"axes": {"J": {"min": 0.9, "max": 1.1, "n": 3}}}')
    out = tmp_path / "out.csv"
    argv = [command, "--pulse", pulse_file[0], "--grid", str(grid), "--out", str(out)]
    if command == "fidelity-map":
        argv += ["--target", "1,0,0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: axis 'J' does not act on a single spin")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--pulse", "--grid"])
def test_an_empty_path_is_quoted_in_the_message(tmp_path, pulse_file, grid_file, capsys, flag):
    paths = {"--pulse": pulse_file[0], "--grid": grid_file[0], "--out": str(tmp_path / "out.csv")}
    paths[flag] = ""
    argv = ["simulate"] + [word for item in paths.items() for word in item]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: '': No such file or directory\n"
    assert sorted(os.listdir(tmp_path)) == ["grid.json", "pulse.json"]


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


@pytest.mark.parametrize("axis, a_max", [("x", None), ("y", 800.0)])
def test_design_slr_profile_targets_are_the_block_rotation(tmp_path, axis, a_max):
    out = tmp_path / "bb.json"
    argv = ["design-slr", "--axis", axis, "--angle", "1.5707963267948966", "--band", "2000",
            "--steps", "64", "--dt", "1e-4", "--out", str(out)]
    if a_max is not None:
        argv += ["--a-max", str(a_max)]
    assert main(argv) == 0
    diag = json.load(open(str(out) + ".diag.json"))
    table = np.genfromtxt(diag["profile_csv"], delimiter=",", names=True)
    ga, gb = rotation_target(axis, diag["block_angle"], table["omega"], 64, 1e-4)
    ta = table["target_alpha_re"] + 1j * table["target_alpha_im"]
    tb = table["target_beta_re"] + 1j * table["target_beta_im"]
    # 17 significant digits round-trip every double exactly
    assert np.array_equal(ta, ga) and np.array_equal(tb, gb)
    assert np.abs(np.abs(ta) ** 2 + np.abs(tb) ** 2 - 1.0).max() <= 1e-15


def hard_pulse_spinors(pulse, omega):
    """Final spinors from (1, 0): per step, free precession exp(-(i/2) w dt sz)
    and then the rf rotation cos(t/2) I - i sin(t/2) n.sigma, in closed form."""
    a = np.ones(omega.size, dtype=complex)
    b = np.zeros(omega.size, dtype=complex)
    half = np.exp(-0.5j * pulse.dt * omega)
    for u, v in pulse.samples:
        flip = pulse.dt * np.hypot(u, v)
        n = (u - 1j * v) / np.hypot(u, v) if flip > 0 else 1.0  # nx - i ny
        c, s = np.cos(0.5 * flip), np.sin(0.5 * flip)
        a, b = a * half, b / half
        a, b = c * a - 1j * s * n * b, -1j * s * np.conj(n) * a + c * b
    return a, b


@pytest.mark.parametrize("a_max", [None, 800.0])
def test_design_slr_min_fidelity_simulates_the_written_pulse(tmp_path, a_max):
    out = tmp_path / "bb.json"
    argv = ["design-slr", "--axis", "x", "--angle", "1.5707963267948966", "--band", "2000",
            "--steps", "64", "--dt", "1e-4", "--out", str(out)]
    if a_max is not None:
        argv += ["--a-max", str(a_max)]
    assert main(argv) == 0
    pulse = load_pulse(str(out))
    diag = json.load(open(str(out) + ".diag.json"))
    assert diag["blocks"] == (1 if a_max is None else 4)
    # the x quarter turn: alpha cos(pi/4), beta -i sin(pi/4) behind the
    # half-train delay of the whole written pulse
    omega = np.linspace(-2000.0, 2000.0, 65)
    a, b = hard_pulse_spinors(pulse, omega)
    fb = -1j * np.sin(np.pi / 4) * np.exp(0.5j * omega * pulse.dt * (pulse.nsteps - 1))
    simulated = np.abs(np.cos(np.pi / 4) * a + np.conj(fb) * b) ** 2
    assert diag["min_fidelity"] == pytest.approx(simulated.min(), abs=1e-12)
    assert parse_fidelity_csv(diag["fidelity_map"]).min == diag["min_fidelity"]
    assert diag["min_fidelity"] >= (1 - diag["band_error"] ** 2 / 2) ** 2 - 1e-12


@settings(max_examples=25)
@given(
    axis=st.sampled_from(["x", "y"]),
    angle=st.floats(0.05, 2 * np.pi - 0.05),
    n=st.integers(8, 96),
    band=st.floats(500.0, 5000.0),
    bound=st.none() | st.floats(0.3, 1.2),
)
def test_broadband_map_is_its_band_error_pass_on_the_even_offsets(axis, angle, n, band, bound):
    # the band error and the map come from one pass: the map's offsets are
    # every other one of the check's 129, so each mapped fidelity F bounds
    # band_error >= sqrt(2 - 2 sqrt(F))
    dt = 0.5 / band
    try:
        design = slr.design_broadband(axis, angle, band, n, dt)
        if bound is not None:
            # a fraction of the unbounded peak: one block to a few
            a_max = bound * design.pulse.amplitudes.max()
            design = slr.design_broadband(axis, angle, band, n, dt, a_max=a_max)
    except InfeasibleError:
        assume(False)  # the command exits 3
    assume(design.blocks <= 4)
    omega = design.fidelity.grid.axes["omega"]
    assert omega.tobytes() == np.linspace(-band, band, 65).tobytes()
    a, b = hard_pulse_spinors(design.pulse, omega)
    ta, tb = rotation_target(axis, angle, omega, design.pulse.nsteps, dt)
    simulated = np.abs(np.conj(ta) * a + np.conj(tb) * b) ** 2
    assert np.abs(design.fidelity.values - simulated).max() <= 1e-12
    floor = np.sqrt(np.maximum(2.0 - 2.0 * np.sqrt(design.fidelity.values), 0.0))
    assert np.all(design.band_error >= floor)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_design_slr_past_a_half_turn_realizes_its_angle(tmp_path, axis):
    # cos(4.0 / 2) < 0: the written pulse must rotate by 4.0, not by 2 pi - 4.0
    out = tmp_path / "bb.json"
    argv = ["design-slr", "--axis", axis, "--angle", "4.0", "--band", "2000",
            "--steps", "64", "--dt", "1e-4", "--out", str(out)]
    assert main(argv) == 0
    pulse = load_pulse(str(out))
    diag = json.load(open(str(out) + ".diag.json"))
    assert diag["blocks"] == 1
    omega = np.linspace(-2000.0, 2000.0, 65)
    a, b = hard_pulse_spinors(pulse, omega)
    unit = -1j if axis == "x" else 1.0
    fb = unit * np.sin(2.0) * np.exp(0.5j * omega * pulse.dt * (pulse.nsteps - 1))
    simulated = np.abs(np.cos(2.0) * a + np.conj(fb) * b) ** 2
    assert simulated.min() >= 0.9999
    assert diag["min_fidelity"] == pytest.approx(simulated.min(), abs=1e-12)
    assert diag["band_error"] <= 0.01
    # the profile's target columns: the rotation its predicted columns fit, in
    # the representative with alpha >= 0
    table = np.genfromtxt(diag["profile_csv"], delimiter=",", names=True)
    pa, pb, ta, tb = (table[f"{p}_re"] + 1j * table[f"{p}_im"]
                      for p in ("alpha", "beta", "target_alpha", "target_beta"))
    assert np.abs(np.conj(ta) * pa + np.conj(tb) * pb).min() >= 1 - 1e-4
    assert np.all(ta.real > 0.0)


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


@pytest.mark.parametrize("steps, flip", [(64, 1.5707963267948966), (65, 3.14159)])
def test_design_pattern_figures_simulate_the_written_pulse(tmp_path, capsys, steps, flip):
    # the 24 n + 1 profile offsets at one rf scale: the verification pass goes
    # through the pulse's polynomial pair, checked here step by step
    out = tmp_path / "pat.json"
    argv = ["design-pattern", "--band", "5000", "--select=-2500,2500", "--flip", repr(flip),
            "--steps", str(steps), "--out", str(out)]
    assert main(argv) == 0
    printed = float(re.search(r"z_profile_error (\S+)", capsys.readouterr().out).group(1))
    pulse = load_pulse(str(out))
    diag = json.load(open(str(out) + ".diag.json"))
    profile = slr.band_selective_profile(5000.0, (-2500.0, 2500.0), flip, steps, pulse.dt)
    a, b = hard_pulse_spinors(pulse, profile.omega)
    z = np.abs(a) ** 2 - np.abs(b) ** 2
    keep = profile.weights >= 1.0
    z_error = np.abs(z - (1.0 - 2.0 * np.abs(profile.f_beta) ** 2))[keep].max()
    fidelity = np.abs(np.conj(profile.f_alpha) * a + np.conj(profile.f_beta) * b) ** 2
    assert printed == diag["z_profile_error"]
    assert abs(printed - z_error) <= 1e-12
    assert abs(diag["min_fidelity"] - fidelity.min()) <= 1e-12


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg is imported by the commands that need it, not at start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, enspulse.cli; sys.exit('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, timeout=120
    )
    assert result.returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["design-slr", "--angle", "1.5707963267948966", "--band", "2000", "--steps", "64", "--dt", "1e-4"],
        ["design-pattern", "--band", "5000", "--select=-2500,2500", "--flip", "1.5707963267948966", "--steps", "64"],
        ["design-composite", "--angle", "1.5707963267948966", "--eps-range", "0.9,1.1", "--basis", "1,3,5"],
        ["design-zz", "--theta", "0.7853981633974483", "--j0", "1.0", "--delta", "0.1"],
    ],
)
def test_slr_designs_leave_scipy_unloaded(tmp_path, argv):
    # the slr fit solves its Toeplitz system and the bracket compilers'
    # claims exponentiate their generators without scipy.linalg, whose import
    # would cost a fresh process about a quarter of a second
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    full = argv + ["--out", str(tmp_path / "pulse.json")]
    code = f"import sys, enspulse.cli; assert enspulse.cli.main({full!r}) == 0; sys.exit('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, timeout=120
    )
    assert result.returncode == 0
    assert (tmp_path / "pulse.json").exists()


def _fresh(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; its stdout lines, and last the
    ``enspulse`` modules it then holds, space-separated."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = code + "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('enspulse')))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def _loaded_after(code: str) -> set:
    return set(_fresh(code)[-1].split())


START_UP = {f"enspulse{m}" for m in ("", ".cli", ".bloch", ".kernels", ".fileio", ".errors")}
LAZY = {f"enspulse.{m}" for m in ("slr", "composite", "liealg", "linear")}


def test_package_import_loads_no_submodule():
    assert _loaded_after("import enspulse") == {"enspulse"}


def test_cli_start_up_and_the_map_commands_load_no_design_or_analysis_module(
    tmp_path, pulse_file, grid_file
):
    assert _loaded_after("import enspulse.cli") == START_UP
    inputs = ["--pulse", pulse_file[0], "--grid", grid_file[0]]
    runs = [
        ["simulate", *inputs, "--out", str(tmp_path / "state.csv")],
        ["fidelity-map", *inputs, "--target", "1,0,0", "--out", str(tmp_path / "map.csv")],
        ["demo-phase", "--pulse", pulse_file[0]],
    ]
    code = "from enspulse.cli import main\n" + "".join(f"assert main({a!r}) == 0\n" for a in runs)
    assert _loaded_after(code) == START_UP


def test_design_slr_loads_slr_and_no_other_lazy_module(tmp_path):
    argv = [*SLR_QUARTER_TURN, "--steps", "32", "--out", str(tmp_path / "pulse.json")]
    loaded = _loaded_after(f"from enspulse.cli import main\nassert main({argv!r}) == 0")
    assert loaded & LAZY == {"enspulse.slr"}
    assert (tmp_path / "pulse.json").exists()


def test_help_lists_every_command_and_the_tol_default_from_a_fresh_start():
    # the composite parsers import their default from the compiler on demand
    runs = [["--help"], ["design-composite", "--help"], ["design-zz", "--help"]]
    code = "from enspulse.cli import main\n" + "".join(
        f"assert main({a!r}) == 0\nprint('=====')\n" for a in runs
    )
    top, *commands, _ = "\n".join(_fresh(code)).split("=====")
    assert all(f"\n    {name} " in top for name in COMMANDS)
    assert "{" + ",".join(COMMANDS) + "}" in top
    for text in commands:
        assert f"--tol TOL largest fit residual (rad) accepted (default: {DEFAULT_TOL})" in " ".join(
            text.split()
        )


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["simulate", "design-slr"])
def test_an_out_path_that_cannot_be_written_exits_2_naming_it(
    tmp_path, pulse_file, grid_file, capsys, command, where
):
    if where == "directory":
        out = tmp_path / "taken"
        out.mkdir()
    else:
        out = tmp_path / "missing" / "out.json"
    argv = {
        "simulate": ["simulate", "--pulse", pulse_file[0], "--grid", grid_file[0]],
        "design-slr": [*SLR_QUARTER_TURN, "--steps", "32"],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {str(out)!r}: ") and "Traceback" not in err
    # no artifact and no temporary .enspulse-* file is left behind
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("message", ["Unable to allocate 17.9 GiB for an array", ""])
def test_an_allocation_failure_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, message):
    # design-slr --steps 100000000 asks for a 2.4e9-point profile grid; the
    # designer here raises at once, so nothing is allocated for real
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(slr, "design_broadband", refuse)
    assert main([*SLR_QUARTER_TURN, "--steps", "100000000", "--out", str(tmp_path / "p.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message or 'out of memory'}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("thetas", ["nan", "inf", "-inf", "0,inf", "nan,1", "inf,inf"])
def test_demo_phase_rejects_a_theta_that_is_not_finite(pulse_file, capsys, thetas):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["demo-phase", "--pulse", pulse_file[0], f"--thetas={thetas}"]) == 2
    assert caught == []
    assert "axis 'theta' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "select, message",
    [("2500,-2500", "must be increasing (lo < hi)"), ("-2500,6000", "must sit inside the band")],
)
def test_design_pattern_names_what_is_wrong_with_the_selection(tmp_path, capsys, select, message):
    argv = ["design-pattern", "--band", "5000", f"--select={select}", "--flip", "1.5", "--steps", "64"]
    assert main([*argv, "--out", str(tmp_path / "p.json")]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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


def test_design_zz_unreachable_power_exit_code(tmp_path, capsys):
    code = main(
        ["design-zz", "--theta", "0.7", "--j0", "1.0", "--delta", "0.1", "--basis", "1,2",
         "--out", str(tmp_path / "zz.json")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "power J^2" in err and "not bracket-reachable" in err
    assert os.listdir(tmp_path) == []


_COMPOSITE = ["design-composite", "--angle", "1.0"]
_ZZ = ["design-zz", "--j0", "1.0", "--delta", "0.1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(_COMPOSITE + ["--eps-range", "1.1,0.9"], "--eps-range", id="eps-range-reversed"),
        pytest.param(_COMPOSITE + ["--eps-range", "nan,1.1"], "--eps-range", id="eps-range-nan"),
        pytest.param(["design-composite", "--angle", "nan"], "--angle", id="angle-nan"),
        pytest.param(["design-composite", "--angle", "inf"], "--angle", id="angle-inf"),
        pytest.param(_ZZ + ["--theta", "nan"], "--theta", id="theta-nan"),
        pytest.param(_ZZ + ["--theta=-inf"], "--theta", id="theta-inf"),
        # a zero target compiles to nothing; it is refused before any file
        pytest.param(["design-composite", "--angle", "0"], "--angle", id="angle-zero"),
        pytest.param(["design-composite", "--angle=-0.0"], "--angle", id="angle-negative-zero"),
        pytest.param(_ZZ + ["--theta", "0"], "--theta", id="theta-zero"),
    ],
)
def test_bad_composite_flags_exit_2_before_writing(tmp_path, capsys, argv, flag):
    code = main(argv + ["--out", str(tmp_path / "x.json")])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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


def test_readme_design_zz_writes_11_couplings_and_22_local_rotations(tmp_path):
    # a negative coupling runs between one flip pair, never a flip pair of
    # flip pairs; the claim's grid is the fit's grid
    out = tmp_path / "zz.json"
    argv = ["design-zz", "--theta", "0.7853981633974483", "--j0", "1.0", "--delta", "0.1"]
    assert main([*argv, "--out", str(out)]) == 0
    kinds = [seg["kind"] for seg in json.load(open(out))["segments"]]
    assert (kinds.count("coupling"), kinds.count("local"), len(kinds)) == (11, 22, 33)
    diag = json.load(open(str(out) + ".diag.json"))
    assert diag["segments"] == 33
    fmap = parse_fidelity_csv(diag["fidelity_map"])
    assert fmap.grid.axes["J"].tolist() == composite.coupling_grid(1.0, 0.1).tolist()
    assert fmap.grid.size == composite.COUPLING_SAMPLES


def test_design_zz_without_spread_writes_one_point_map(tmp_path):
    out = tmp_path / "zz0.json"
    code = main(
        [
            "design-zz",
            "--theta", "0.7853981633974483",
            "--j0", "1.0",
            "--delta", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    diag = json.load(open(str(out) + ".diag.json"))
    fmap = parse_fidelity_csv(diag["fidelity_map"])
    assert fmap.grid.size == 1 and fmap.grid.axes["J"].tolist() == [1.0]
    assert fmap.min == diag["min_fidelity"]


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--step", "nan"], "--step must be positive"),
        (["--step", "0"], "--step must be positive"),
        (["--steps", "0"], "--steps must be positive"),
        (["--epsilons", ""], "gains must be nonempty and finite, got []"),
        (["--epsilons", "nan,1"], "gains must be nonempty and finite, got [nan, 1.0]"),
    ],
    ids=["step-nan", "step-0", "steps-0", "epsilons-empty", "epsilons-nan"],
)
def test_demo_heisenberg_rejects_degenerate_flags(capsys, flags, message):
    # a NaN step once printed nan rows and exit 1, as if the scaling law
    # failed; zero steps or a zero step passed on all-zero x3
    assert main(["demo-heisenberg", *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_design_zz_empty_basis_exits_2_naming_the_powers(tmp_path, capsys):
    code = main([*_ZZ, "--theta", "0.7", "--basis", "", "--out", str(tmp_path / "zz.json")])
    assert code == 2
    assert "parameter powers must be nonempty" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize(
    "targets_doc",
    [
        {"nottargets": []},
        {"targets": 3.0},
        {"targets": [["a"], ["b"]]},
        {"targets": [None, None]},
        {"targets": [[float("nan")], [1.0]]},
        [[1.0]],
    ],
)
def test_analyze_linear_rejects_malformed_targets(tmp_path, targets_doc):
    samples = {
        "samples": [
            {"s": 1.0, "A": [[1.0]], "b": [1.0]},
            {"s": 1.5, "A": [[1.5]], "b": [1.0]},
        ]
    }
    spath = tmp_path / "samples.json"
    spath.write_text(json.dumps(samples))
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps(targets_doc))
    argv = ["analyze-linear", "--samples", str(spath), "--out", str(tmp_path / "r.json")]
    assert main([*argv, "--reachability-targets", str(tpath)]) == 2
    tpath.write_text(json.dumps({"targets": [[1.0], [1.0]]}))
    assert main([*argv, "--reachability-targets", str(tpath)]) == 0


@pytest.mark.parametrize("entry", [3.0, [[1.0]], "A", None], ids=["number", "list", "string", "null"])
def test_analyze_linear_rejects_a_sample_that_is_not_an_object(tmp_path, capsys, entry):
    spath = tmp_path / "samples.json"
    spath.write_text(json.dumps({"samples": [{"s": 1.0, "A": [[1.0]], "b": [1.0]}, entry]}))
    out = tmp_path / "report.json"
    assert main(["analyze-linear", "--samples", str(spath), "--out", str(out)]) == 2
    assert "sample 1: must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "nan"), ("--tol", "-1e-8"), ("--tol", "inf"),
     ("--step", "nan"), ("--step", "0"), ("--step", "-0.1"), ("--step", "inf")],
)
def test_analyze_linear_rejects_bad_tol_and_step_by_name(tmp_path, capsys, flag, value):
    # a similar pair and a singular drift fail the conditions at any sane tol
    samples = {
        "samples": [
            {"s": 1.0, "A": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0, 1.0]},
            {"s": 2.0, "A": [[2.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0]},
            {"s": 3.0, "A": [[0.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0]},
        ]
    }
    spath = tmp_path / "samples.json"
    spath.write_text(json.dumps(samples))
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps({"targets": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}))
    out = tmp_path / "report.json"
    argv = ["analyze-linear", "--samples", str(spath), "--reachability-targets", str(tpath),
            "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["passed"] is False
    out.unlink()
    capsys.readouterr()
    assert main([*argv, f"{flag}={value}"]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


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


SLR_QUARTER_TURN = ["design-slr", "--angle", "1.5707963267948966", "--band", "2000", "--dt", "1e-4"]


def test_config_value_is_converted_by_its_flag_type(tmp_path):
    # --a-max has no default: the old fold-in left "800" a string
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a-max = 800\n")
    out = tmp_path / "pulse.json"
    assert main([*SLR_QUARTER_TURN, "--steps", "64", "--out", str(out), "--config", str(cfg)]) == 0
    pulse = load_pulse(str(out))
    assert pulse.a_max == 800.0
    assert np.hypot(pulse.samples[:, 0], pulse.samples[:, 1]).max() <= 800 * (1 + 1e-12)
    cfg.write_text("a-max = eight hundred\n")
    assert main([*SLR_QUARTER_TURN, "--out", str(out), "--config", str(cfg)]) == 2


def test_command_line_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 128\n")
    out = tmp_path / "pulse.json"
    assert main([*SLR_QUARTER_TURN, "--steps", "32", "--out", str(out), "--config", str(cfg)]) == 0
    assert load_pulse(str(out)).nsteps == 32
    assert main([*SLR_QUARTER_TURN, "--out", str(out), "--config", str(cfg)]) == 0
    assert load_pulse(str(out)).nsteps == 128


COMMANDS = (
    "design-slr", "design-pattern", "design-composite", "design-zz", "simulate",
    "fidelity-map", "analyze-lie", "analyze-linear", "demo-phase", "demo-heisenberg",
)


def test_a_call_builds_only_its_own_subparser(tmp_path, pulse_file, grid_file, monkeypatch, capsys):
    built = []
    original = argparse._SubParsersAction.add_parser

    def recorded(self, name, **kwargs):
        built.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recorded)
    argv = ["simulate", "--pulse", pulse_file[0], "--grid", grid_file[0]]
    assert main([*argv, "--out", str(tmp_path / "state.csv")]) == 0
    assert built == ["simulate"]
    built.clear()
    assert main(["--help"]) == 0
    assert built == list(COMMANDS)
    listing = capsys.readouterr().out
    assert all(f"\n    {name} " in listing for name in COMMANDS)
    assert "{" + ",".join(COMMANDS) + "}" in listing


def test_one_subparser_prints_the_full_parsers_usage_and_errors(capsys):
    # an argument the subcommand leaves over is reported by the top-level
    # parser, whose usage line names every command
    texts = []
    for argv in (["demo-heisenberg", "--bogus"], ["demo-phase", "--help"], ["design-slr"]):
        for parser in (build_parser(), build_parser(argv[0])):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            texts.append(capsys.readouterr())
    for full, one in zip(texts[::2], texts[1::2]):
        assert one == full
    assert "{" + ",".join(COMMANDS) + "}" in texts[1].err


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


@pytest.mark.parametrize("value, text", [(1.5, "1.5"), (7.0, "7"), (3, "3"), (True, "true")])
def test_render_json_renders_a_zero_dim_array_as_its_scalar(value, text):
    from enspulse.fileio import render_json

    assert render_json(np.array(value)) == text
    assert render_json({"x": np.array(value)}) == '{\n  "x": ' + text + "\n}"


ARRAY_FLOATS = st.one_of(
    st.floats(),
    # signed zero, subnormals, extremes and integral floats ("7", not "7.0")
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 7.0, -12.0]),
)
ARRAY_SHAPES = st.one_of(
    st.tuples(st.integers(0, 300)),
    st.tuples(st.integers(0, 300), st.integers(1, 6)),
)


@settings(max_examples=150)
@given(arr=hnp.arrays(np.float64, ARRAY_SHAPES, elements=ARRAY_FLOATS), indent=st.integers(0, 2))
# one- and two-row arrays that inline, and a list too long to
@example(arr=np.array([0.5, -0.0, 7.0]), indent=0)
@example(arr=np.linspace(0.1, 30.0, 300), indent=1)
@example(arr=np.array([[1.0, 2.5], [-0.0, 5e-324]]), indent=1)
# rows whose numbers do not fit on one line: 5 x 19 and 4 x 24 characters
@example(arr=np.full((3, 5), 0.1), indent=2)
@example(arr=np.full((2, 4), -1.2345678901234567e-308), indent=1)
def test_render_json_formats_float_arrays_as_their_lists(arr, indent):
    from enspulse.fileio import render_json

    # the list path renders number by number: it is the oracle
    assert render_json(arr, indent) == render_json(arr.tolist(), indent)


def one_template_render(arr, indent):
    """The former float-array path of render_json: one "%.17g" template over
    every value, split into the parts of the list layout."""
    row = "%.17g" if arr.ndim == 1 else "[" + ", ".join(["%.17g"] * arr.shape[1]) + "]"
    parts = ("\n".join([row] * arr.shape[0]) % tuple(arr.ravel().tolist())).split("\n")
    if arr.ndim == 1 or arr.shape[1] <= 3 or max(map(len, parts)) - 2 <= 100:
        return _layout(parts, "  " * indent)
    return render_json(arr.tolist(), indent)


PULSE_ROWS = np.random.default_rng(5).uniform(-2000.0, 2000.0, (14592, 2))


@settings(max_examples=100)
@given(arr=hnp.arrays(np.float64, ARRAY_SHAPES, elements=ARRAY_FLOATS), indent=st.integers(0, 2))
# a pulse longer than one block of rows, its first column alone, and rows
# that break across lines
@example(arr=PULSE_ROWS, indent=0)
@example(arr=PULSE_ROWS[:, 0].copy(), indent=1)
@example(arr=np.full((3, 5), -0.1), indent=1)
def test_render_json_matches_the_one_template_rendering(arr, indent):
    if arr.size:
        assert render_json(arr, indent) == one_template_render(arr, indent)


def test_render_json_inlines_a_list_of_up_to_100_characters():
    from enspulse.fileio import render_json

    # 34 one-character parts and their separators are exactly 100 characters
    assert render_json([7] * 34) == "[" + ", ".join(["7"] * 34) + "]"
    assert render_json([7] * 35) == "[\n  " + ",\n  ".join(["7"] * 35) + "\n]"
    assert render_json([7] * 33 + [10]).startswith("[\n")


def test_render_json_layout_of_long_lists_and_lists_of_dicts():
    from enspulse.fileio import render_json

    doc = {
        "short": [1, 2.5],
        "long": [k / 3 for k in range(1, 9)],
        "rows": [{"a": 1}, {"b": [1, 2]}],
        "nested": [[k / 7 for k in range(1, 7)], [7]],
    }
    assert render_json(doc) == "\n".join(
        [
            "{",
            '  "long": [',
            "    0.33333333333333331,",
            "    0.66666666666666663,",
            "    1,",
            "    1.3333333333333333,",
            "    1.6666666666666667,",
            "    2,",
            "    2.3333333333333335,",
            "    2.6666666666666665",
            "  ],",
            '  "nested": [',
            "    [",
            "      0.14285714285714285,",
            "      0.2857142857142857,",
            "      0.42857142857142855,",
            "      0.5714285714285714,",
            "      0.7142857142857143,",
            "      0.8571428571428571",
            "    ],",
            "    [7]",
            "  ],",
            '  "rows": [',
            "    {",
            '      "a": 1',
            "    },",
            "    {",
            '      "b": [1, 2]',
            "    }",
            "  ],",
            '  "short": [1, 2.5]',
            "}",
        ]
    )


@pytest.mark.parametrize("steps", [64, 128])
@pytest.mark.parametrize("angle", [0.5, np.pi / 2, 2.8, 3.0, 3.1, 4.0])
def test_design_slr_angle_is_designed_or_declared_infeasible(tmp_path, capsys, angle, steps):
    # every angle in (0, 2 pi) is valid input: a design that fails is a
    # verdict (3), never "bad input" (2)
    argv = ["design-slr", "--axis", "y", "--angle", repr(angle), "--band", "2000",
            "--steps", str(steps), "--dt", "1e-4", "--out", str(tmp_path / "bb.json")]
    code = main(argv)
    assert code in (0, 3)
    if (angle, steps) == (3.0, 64):
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"^infeasible: completion residual \d\.\d\de-\d\d exceeds 1e-08$", err, re.M)


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


_SLR = ["design-slr", "--angle", "1.5707963267948966", "--band", "2000", "--steps", "32", "--dt", "1e-4"]
_PATTERN = ["design-pattern", "--band", "5000", "--select=-2500,2500", "--flip", "3.14159", "--steps", "64"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["design-composite", "--angle", "1.0", "--tol", "-1e-3"], "--tol", id="composite-tol"),
        pytest.param(_SLR + ["--band", "inf"], "--band", id="slr-band-inf"),
        pytest.param(_SLR + ["--band", "nan"], "--band", id="slr-band-nan"),
        pytest.param(_SLR + ["--a-max", "nan"], "--a-max", id="slr-amax-nan"),
        pytest.param(_SLR + ["--a-max", "inf"], "--a-max", id="slr-amax-inf"),
        pytest.param(_PATTERN + ["--band", "inf"], "--band", id="pattern-band-inf"),
        pytest.param(_PATTERN + ["--transition", "nan"], "--transition", id="pattern-transition-nan"),
        pytest.param(_PATTERN + ["--margin", "1"], "--margin", id="pattern-margin-1"),
        pytest.param(_PATTERN + ["--margin", "2"], "--margin", id="pattern-margin-2"),
    ],
)
def test_nonpositive_tolerance_rejected(tmp_path, capsys, argv, flag):
    # nonpositive, non-finite and out-of-range flag values are bad input:
    # exit 2 with the flag named, before any design work
    code = main(argv + ["--out", str(tmp_path / "x.json")])
    assert code == 2
    assert flag in capsys.readouterr().err


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
