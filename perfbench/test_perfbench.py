"""Tests of the benchmark itself: span arithmetic, oracles and failure accounting.

Run with ``python3 -m pytest perfbench``.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import enspulse.cli  # noqa: E402
import enspulse.fileio  # noqa: E402
import enspulse.slr  # noqa: E402
import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Loop  # noqa: E402


def synthetic_tree():
    #  cli.main [0, 10]
    #  |- slr.fit [1, 4]
    #  |  `- slr.completion [2, 3]
    #  `- kernels.bloch.long [5, 9]
    #     |- fileio.write [5, 6.5]
    #     `- fileio.write [6, 7]      (overlaps its sibling)
    S = spans.Span
    return [
        S("cli.main", 0.0, 10.0, -1, 0),
        S("slr.fit", 1.0, 4.0, 0, 0),
        S("slr.completion", 2.0, 3.0, 1, 0),
        S("kernels.bloch.long", 5.0, 9.0, 0, 0),
        S("fileio.write", 5.0, 6.5, 3, 0),
        S("fileio.write", 6.0, 7.0, 3, 0),
    ]


def test_self_time_subtracts_union_of_children():
    assert spans.self_times(synthetic_tree()) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.5, 1.0])


def test_layer_figures_of_synthetic_tree():
    fig = spans.layer_figures(synthetic_tree(), {"kernels.pointsteps": 400})
    assert fig["cli.self_s"] == pytest.approx(3.0)
    assert fig["slr.fit_s"] == pytest.approx(2.0)
    assert fig["slr.completion_s"] == pytest.approx(1.0)
    assert fig["slr.self_s"] == pytest.approx(3.0)
    assert fig["kernels.bloch_s"] == pytest.approx(2.0)
    assert fig["kernels.long_s"] == pytest.approx(2.0)
    assert fig["kernels.spinor_s"] == 0.0
    assert fig["fileio.write_s"] == pytest.approx(2.5)
    assert fig["bloch.pointsteps_per_s"] == pytest.approx(200.0)
    assert fig["composite.segments"] == 0


def test_instrumentation_nests_spans_and_restores_functions(tmp_path):
    original = enspulse.slr.complete_polynomial
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer):
        root = tracer.begin("cli.main")
        rc = enspulse.cli.main(["design-slr", "--angle", "1.0", "--band", "2000", "--steps", "16",
                                "--dt", "1e-4", "--out", str(tmp_path / "p.json")])
        tracer.end(root)
    assert rc == 0
    assert enspulse.slr.complete_polynomial is original
    names = [s.name for s in tracer.spans]
    fit = names.index("slr.fit")
    completion = names.index("slr.completion")
    assert tracer.spans[completion].parent == fit
    assert tracer.spans[fit].command == tracer.spans[0].command
    assert tracer.counts["fileio.bytes_written"] > 0
    assert tracer.counts["kernels.pointsteps"] == 16 * 65


def test_tail_is_maximum_below_twenty_samples():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)
    assert sum(i > value for i in range(40)) == 10


def test_closed_form_matches_expm_product():
    rng = np.random.default_rng(0)
    u, v = rng.uniform(-3000, 3000, 37), rng.uniform(-3000, 3000, 37)
    expected = oracles.expm_rotation(u, v, 1e-4, 0.0, 1.07)
    assert np.abs(oracles.closed_form_rotation(u, v, 1e-4, 1.07) - expected).max() < 1e-12


def test_hard_pulse_z_matches_expm_product():
    from scipy.linalg import expm

    rng = np.random.default_rng(1)
    u, v, dt = rng.uniform(-3000, 3000, 23), rng.uniform(-3000, 3000, 23), 1e-4
    omega = rng.uniform(-8000, 8000, 5)
    sx, sy, sz = (oracles.PAULI[k] for k in "xyz")
    for w, z in zip(omega, oracles.hard_pulse_z(u, v, dt, omega)):
        state = np.array([1.0, 0.0], dtype=complex)
        for uk, vk in zip(u, v):
            state = expm(-0.5j * dt * (uk * sx + vk * sy)) @ expm(-0.5j * dt * w * sz) @ state
        assert abs(abs(state[0]) ** 2 - abs(state[1]) ** 2 - z) < 1e-12


def small_map_command(tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    pulse = str(tmp_path / "pulse.json")
    grid = str(tmp_path / "grid.json")
    out = str(tmp_path / "map.csv")
    workloads.write_pulse(pulse, 1e-4, rng.uniform(-3000, 3000, 8), rng.uniform(-3000, 3000, 8))
    axes = {"omega": (-2000.0, 2000.0, 4), "epsilon": (0.8, 1.2, 4)}
    workloads.write_grid(grid, axes)
    argv = ["fidelity-map", "--pulse", pulse, "--grid", grid, "--target=1,0,0", "--out", out]
    check = workloads.map_check(out, axes, pulse, False, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 16,
                                np.random.default_rng(seed))
    return workloads.Command("map", argv, [out], check)


def run_loop(command, passes):
    loop = Loop(enspulse.cli.main, [command])
    for _ in range(passes):
        loop.run_pass()
    return loop.attempted, *loop.check()


def test_correct_output_passes(tmp_path):
    attempted, failed, notes, dev, _ = run_loop(small_map_command(tmp_path), 2)
    assert (attempted, failed, notes) == (2, 0, [])
    assert dev < 1e-12


def corrupt_fidelity_csv(monkeypatch, passes=None):
    """Make the program write one wrong fidelity value on the given passes (all if None)."""
    calls = []
    write = enspulse.fileio.atomic_write_text

    def corrupting(path, text):
        calls.append(path)
        if path.endswith(".csv") and (passes is None or len(calls) in passes):
            lines = text.splitlines()
            row = lines[3].split(",")
            row[-1] = repr(float(row[-1]) * 0.5)
            lines[3] = ",".join(row)
            text = "\n".join(lines) + "\n"
        write(path, text)

    monkeypatch.setattr(enspulse.fileio, "atomic_write_text", corrupting)


def test_corrupted_output_is_counted_failed(tmp_path, monkeypatch):
    corrupt_fidelity_csv(monkeypatch)
    attempted, failed, notes, _, _ = run_loop(small_map_command(tmp_path), 3)
    assert (attempted, failed) == (3, 3)
    assert notes and notes[0].startswith("map:")


def test_output_corrupted_on_one_warm_pass_is_counted_failed(tmp_path, monkeypatch):
    corrupt_fidelity_csv(monkeypatch, passes={2})
    attempted, failed, notes, _, _ = run_loop(small_map_command(tmp_path), 3)
    assert (attempted, failed) == (3, 1)
    assert notes == ["map: output differs from the cold pass"]


def test_output_left_corrupted_after_last_pass_fails_every_pass(tmp_path, monkeypatch):
    corrupt_fidelity_csv(monkeypatch, passes={3})
    attempted, failed, notes, _, _ = run_loop(small_map_command(tmp_path), 3)
    assert (attempted, failed) == (3, 3)


def test_host_speed_uses_probes_around_a_command():
    ref = hostspeed.REFERENCE_PROBE_S
    sampler = hostspeed.Sampler()
    sampler.samples = [(0.0, ref), (1.0, 2 * ref), (1.1, 2 * ref), (1.15, 4 * ref), (5.0, 4 * ref)]
    # the median of the three samples within MARGIN_S of [1.05, 1.06]
    assert sampler.speed(1.05, 1.06) == 0.5
    # no sample within the margin: the nearest one
    assert sampler.speed(4.0, 4.1) == 0.25


def test_sampler_times_probes_and_takes_them_out_of_loop_timings(tmp_path):
    command = small_map_command(tmp_path)
    loop = Loop(enspulse.cli.main, [command], sampler=hostspeed.Sampler(interval=0.002))
    with loop.sampler:
        wall, _, (command_s,), ((start, end),) = loop.run_pass()
    assert loop.sampler.samples and loop.sampler.spent > 0
    assert command_s == pytest.approx(end - start - loop.sampler.spent)
    assert wall >= command_s
