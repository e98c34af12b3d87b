"""The three workloads: fixed command lists whose inputs come from a seed.

One pass over a workload's command list is the benchmark's operation.  Sizes
are part of each workload's definition; the seed only picks values (pulse
samples, rotation axes, small angle and edge jitters, linear ensembles), so
every seed does the same amount of work.

* ``slr-design``: design-slr at n=64 and n=256, the README design-slr at
  n=64 with ``--a-max 800`` (4 blocks), design-pattern at n=128 and n=256.
  The ``slr`` layer (fit, completion, recursions) does almost all the work;
  propagation only verifies short pulses.
* ``ensemble-map``: fidelity-map of a 512-step pulse over a 64x64
  offset x rf-scale grid in the exact and hard-pulse models, simulate of a
  128-step pulse over a 256x256 grid (a 6.5 MB CSV) and demo-phase over 16
  phases.  The kernel's wide regime (many points, short pulses) and the
  heaviest writes; no ``slr`` or ``liealg`` work.
* ``compensate``: decide (analyze-lie on four presets, the phase preset at
  depth 6; analyze-linear on a passing and a failing seeded ensemble;
  demo-heisenberg), compile (the README design-composite at 1, 64 and 256
  subdivisions, 57, 3 648 and 14 592 steps; design-zz at 8 subdivisions),
  verify (fidelity-map of each composite artifact over its 21-point eps
  grid).  The kernel's long regime (few points, many steps), ``composite``
  and ``liealg``.  Depth 6 takes the phase preset down the same sampled
  closure path as the default depth 8 with the same verdict, at a cost that
  does not drown the verify step.

The README cases of design-composite, design-zz and the 4-block design-slr are
never jittered: they carry two known defects (claimed fidelities far above
what the written files achieve, and a band error of 1.40) that the benchmark
reports at their present values.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

# oracle agreement required on fidelities, Bloch components and band errors
ORACLE_TOL = 1e-9
# grid points re-simulated per map: wide maps cost 512 or 128 steps a point,
# the composite maps up to 14 592
WIDE_SAMPLES = 24
LONG_SAMPLES = 3
HALF_PI = float(np.pi / 2)
README_EPS = (0.9, 1.1, 21)


@dataclass
class Outcome:
    rc: int | None  # None when the command raised
    stdout: str


@dataclass
class Verdict:
    ok: bool
    dev: float = 0.0  # largest deviation from the oracle
    note: str = ""
    figures: dict = field(default_factory=dict)


@dataclass
class Command:
    label: str
    argv: list
    outputs: list  # files the command writes; compared byte for byte across passes
    check: Callable[[Outcome], Verdict]


@dataclass
class Workload:
    commands: list
    summarize: Callable[[dict], dict]  # per-artifact figures -> {metric: (value, unit)}


def printed_word(stdout: str, key: str) -> str:
    match = re.search(rf"\b{re.escape(key)} (\S+)", stdout)
    if match is None:
        raise ValueError(f"{key!r} not printed")
    return match.group(1)


def printed(stdout: str, key: str) -> float:
    return float(printed_word(stdout, key))


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: str, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def write_pulse(path: str, dt: float, u, v):
    samples = [[float(a), float(b)] for a, b in zip(u, v)]
    _write_json(path, {"schema_version": 1, "amplitude_unit": "rad_per_s", "dt": dt, "samples": samples})


def write_grid(path: str, axes: dict):
    _write_json(path, {"axes": {k: {"min": lo, "max": hi, "n": n} for k, (lo, hi, n) in axes.items()}})


def grid_points(axes: dict) -> dict:
    """Lexicographic grid points, axes given in the program's axis order."""
    mesh = np.meshgrid(*[np.linspace(lo, hi, n) for lo, hi, n in axes.values()], indexing="ij")
    return {name: m.ravel() for name, m in zip(axes, mesh)}


def _fmt_vec(vec) -> str:
    return ",".join(repr(float(x)) for x in vec)


def _failed_rc(out: Outcome, expected: int = 0) -> Verdict | None:
    if out.rc != expected:
        return Verdict(False, note=f"exit code {out.rc}, expected {expected}")
    return None


def seeded(seed: int, stream: int) -> np.random.Generator:
    """The generator of one input stream of a workload; any integer seed works."""
    return np.random.default_rng([seed % 2**64, stream])


def gmean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


# ---------------------------------------------------------------------------
# checks shared by several commands
# ---------------------------------------------------------------------------


def map_check(path, axes, pulse_path, hard, initial, target, samples, rng):
    """Check a fidelity-map or simulate CSV against per-step expm products
    at ``samples`` seeded grid points.

    ``target`` None means a state CSV (x, y, z columns) rather than a
    fidelity map.
    """

    def check(out: Outcome) -> Verdict:
        bad = _failed_rc(out)
        if bad:
            return bad
        header, rows = oracles.read_csv(path)
        names = list(axes)
        pts = grid_points(axes)
        value_cols = ["fidelity"] if target is not None else ["x", "y", "z"]
        if header != names + value_cols or rows.shape != (len(pts[names[0]]), len(header)):
            return Verdict(False, note=f"{os.path.basename(path)}: unexpected header or row count")
        for i, name in enumerate(names):
            if np.abs(rows[:, i] - pts[name]).max() > 1e-12 * np.abs(pts[name]).max():
                return Verdict(False, note=f"{os.path.basename(path)}: {name} coordinates differ")
        if target is not None and printed(out.stdout, "min_fidelity") != rows[:, -1].min():
            return Verdict(False, note="printed min_fidelity differs from the map")
        dt, u, v = oracles.load_pulse_arrays(pulse_path)
        dev = 0.0
        for i in rng.choice(rows.shape[0], size=min(samples, rows.shape[0]), replace=False):
            omega = pts["omega"][i] if "omega" in pts else 0.0
            eps = pts["epsilon"][i] if "epsilon" in pts else 1.0
            state = oracles.expm_rotation(u, v, dt, omega, eps, hard) @ np.asarray(initial)
            if target is None:
                dev = max(dev, float(np.abs(state - rows[i, len(names):]).max()))
            else:
                dev = max(dev, abs(0.5 * (1.0 + state @ np.asarray(target)) - rows[i, -1]))
        return Verdict(dev <= ORACLE_TOL, dev)

    return check


# ---------------------------------------------------------------------------
# slr-design
# ---------------------------------------------------------------------------


def _hard_pulse_spinors(pulse_path: str, omega):
    """Final spinors, from (1, 0), of the written pulse under the program's
    hard-pulse model."""
    from enspulse.bloch import ControlSequence, DispersionGrid, EnsembleState, propagate

    dt, u, v = oracles.load_pulse_arrays(pulse_path)
    grid = DispersionGrid(axes={"omega": omega})
    final = propagate(ControlSequence(dt, np.column_stack([u, v])), grid,
                      EnsembleState.uniform_spinor(grid, 1, 0), model="hard_pulse")
    return final.values, len(u)


def _design_slr(wd, tag, axis, angle, band, n, dt, a_max=None) -> Command:
    path = os.path.join(wd, f"{tag}.json")
    argv = ["design-slr", "--axis", axis, "--angle", repr(angle), "--band", repr(band),
            "--steps", str(n), "--dt", repr(dt), "--out", path]
    if a_max is not None:
        argv[-2:-2] = ["--a-max", repr(a_max)]

    def check(out: Outcome) -> Verdict:
        bad = _failed_rc(out)
        if bad:
            return bad
        claimed, blocks = printed(out.stdout, "band_error"), int(printed(out.stdout, "blocks"))
        omega = np.linspace(-band, band, 129)
        final, nsteps = _hard_pulse_spinors(path, omega)
        oracle = oracles.spinor_band_error(final, omega, axis, angle, nsteps, dt)
        dev = abs(oracle - claimed)
        diag = _read_json(path + ".diag.json")
        ok = dev <= ORACLE_TOL * (1 + claimed) and diag["band_error"] == claimed and blocks * n == nsteps
        return Verdict(ok, dev, figures={f"band_error[{tag}]": claimed, f"blocks[{tag}]": blocks})

    outputs = [path] + [path + s for s in (".diag.json", ".profile.csv", ".fidelity.csv")]
    return Command(tag, argv, outputs, check)


def _design_pattern(wd, tag, band, select, flip, n, transition) -> Command:
    path = os.path.join(wd, f"{tag}.json")
    dt = 0.5 / band
    argv = ["design-pattern", "--band", repr(band), f"--select={select[0]!r},{select[1]!r}",
            "--flip", repr(flip), "--steps", str(n), "--transition", repr(transition), "--out", path]

    def check(out: Outcome) -> Verdict:
        bad = _failed_rc(out)
        if bad:
            return bad
        claimed = printed(out.stdout, "z_profile_error")
        stop = 0.995 * np.pi / dt
        omega = np.linspace(-stop, stop, 24 * n + 1)
        pulse_dt, u, v = oracles.load_pulse_arrays(path)
        z = oracles.hard_pulse_z(u, v, pulse_dt, omega)
        flips, keep = oracles.flip_pattern(omega, select, flip, transition)
        oracle = float(np.abs(z - np.cos(flips))[keep].max())
        dev = abs(oracle - claimed)
        diag = _read_json(path + ".diag.json")
        ok = dev <= ORACLE_TOL and diag["z_profile_error"] == claimed and len(u) == n
        return Verdict(ok, dev, figures={f"z_profile_error[{tag}]": claimed})

    outputs = [path] + [path + s for s in (".diag.json", ".profile.csv", ".fidelity.csv")]
    return Command(tag, argv, outputs, check)


def _summarize_slr(fig: dict) -> dict:
    band = [v for k, v in fig.items() if k.startswith("band_error[")]
    z = [v for k, v in fig.items() if k.startswith("z_profile_error[")]
    return {
        "band_error_gmean": (gmean(band), "1"),
        "band_error_4block": (fig["band_error[slr64-amax]"], "1"),
        "blocks_4block": (fig["blocks[slr64-amax]"], "count"),
        "z_profile_error_max": (max(z), "1"),
    }


def slr_design(seed: int, wd: str) -> Workload:
    rng = seeded(seed, 1)
    cmds = []
    for n in (64, 256):
        axis = str(rng.choice(["x", "y"]))
        angle = HALF_PI * (1.0 + 0.02 * (rng.random() - 0.5))
        cmds.append(_design_slr(wd, f"slr{n}", axis, angle, 2000.0, n, 1e-4))
    cmds.append(_design_slr(wd, "slr64-amax", "x", HALF_PI, 2000.0, 64, 1e-4, a_max=800.0))
    for n in (128, 256):
        shift = float(rng.uniform(-100.0, 100.0))
        cmds.append(_design_pattern(wd, f"pattern{n}", 5000.0, (-2500.0 + shift, 2500.0 + shift),
                                    3.14159, n, 1500.0))
    return Workload(cmds, _summarize_slr)


# ---------------------------------------------------------------------------
# ensemble-map
# ---------------------------------------------------------------------------


def ensemble_map(seed: int, wd: str) -> Workload:
    rng = seeded(seed, 2)
    check_rng = seeded(seed, 20)
    dt = 1e-4
    pulses = {}
    for nsteps in (512, 128):
        path = os.path.join(wd, f"pulse{nsteps}.json")
        write_pulse(path, dt, rng.uniform(-3000, 3000, nsteps), rng.uniform(-3000, 3000, nsteps))
        pulses[nsteps] = path
    axes64 = {"omega": (-2000.0, 2000.0, 64), "epsilon": (0.8, 1.2, 64)}
    axes256 = {"omega": (-2000.0, 2000.0, 256), "epsilon": (0.8, 1.2, 256)}
    grids = {}
    for tag, axes in (("grid64", axes64), ("grid256", axes256)):
        grids[tag] = os.path.join(wd, f"{tag}.json")
        write_grid(grids[tag], axes)
    target = rng.normal(size=3)
    target /= np.linalg.norm(target)
    thetas = np.sort(rng.uniform(0.0, 2 * np.pi, 16))
    initial = (0.0, 0.0, 1.0)

    cmds = []
    for model in ("exact", "hard-pulse"):
        out = os.path.join(wd, f"map-{model}.csv")
        argv = ["fidelity-map", "--pulse", pulses[512], "--grid", grids["grid64"],
                f"--target={_fmt_vec(target)}", "--model", model, "--out", out]
        check = map_check(out, axes64, pulses[512], model == "hard-pulse", initial, target,
                          WIDE_SAMPLES, check_rng)
        cmds.append(Command(f"map-{model}", argv, [out], check))
    out = os.path.join(wd, "simulate.csv")
    argv = ["simulate", "--pulse", pulses[128], "--grid", grids["grid256"],
            f"--initial={_fmt_vec(initial)}", "--out", out]
    cmds.append(Command("simulate", argv, [out],
                        map_check(out, axes256, pulses[128], False, initial, None, WIDE_SAMPLES, check_rng)))

    def phase_check(out: Outcome) -> Verdict:
        bad = _failed_rc(out)
        if bad:
            return bad
        dev = printed(out.stdout, "max_frame_deviation")
        return Verdict(dev <= ORACLE_TOL, dev)

    argv = ["demo-phase", "--pulse", pulses[512], f"--thetas={_fmt_vec(thetas)}"]
    cmds.append(Command("demo-phase", argv, [], phase_check))
    return Workload(cmds, lambda fig: {})


# ---------------------------------------------------------------------------
# compensate
# ---------------------------------------------------------------------------

# (mode, dimension, nilpotency verdict, step): rf scale and coupling span an
# su(2)-type algebra, the planar integrator's fields the Heisenberg algebra,
# the rf-phase family so(3) with sampled coefficients
LIE_VERDICTS = {
    "rf-scale": ("symbolic", 3, "not_nilpotent", None),
    "coupling": ("symbolic", 3, "not_nilpotent", None),
    "heisenberg-fields": ("vector_field", 3, "nilpotent", 2),
    "phase": ("sampled", 3, "not_nilpotent", None),
}


def _analyze_lie(wd, preset, extra=()) -> Command:
    path = os.path.join(wd, f"lie-{preset}.json")

    def check(out: Outcome) -> Verdict:
        bad = _failed_rc(out)
        if bad:
            return bad
        doc = _read_json(path)
        got = (doc["mode"], doc["dimension"], doc["nilpotency"]["verdict"], doc["nilpotency"]["step"])
        return Verdict(got == LIE_VERDICTS[preset], note="" if got == LIE_VERDICTS[preset] else f"{got}")

    return Command(f"lie-{preset}", ["analyze-lie", "--preset", preset, *extra, "--out", path], [path], check)


def _linear_ensemble(rng, failing: bool) -> tuple[list, dict]:
    """Six controllable 3x3 samples; the failing one holds a similar pair
    (coinciding characteristic polynomials) and a singular drift."""
    samples = [
        {"s": i, "A": rng.normal(size=(3, 3)).tolist(), "b": rng.normal(size=3).tolist()}
        for i in range(6)
    ]
    expected = {"passed": True, "coincident_pairs": [], "rank_deficient": []}
    if failing:
        a0 = np.asarray(samples[0]["A"])
        t = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        samples[1]["A"] = (t @ a0 @ np.linalg.inv(t)).tolist()
        basis = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        eig = np.diag([0.0, *rng.uniform(0.5, 2.0, 2)])
        samples[2]["A"] = (basis @ eig @ np.linalg.inv(basis)).tolist()
        expected = {"passed": False, "coincident_pairs": [[0, 1]], "rank_deficient": [2]}
    return samples, expected


def _analyze_linear(wd, tag, samples, expected) -> Command:
    spath = os.path.join(wd, f"{tag}-samples.json")
    _write_json(spath, {"samples": samples})
    path = os.path.join(wd, f"{tag}.json")

    def check(out: Outcome) -> Verdict:
        bad = _failed_rc(out)
        if bad:
            return bad
        doc = _read_json(path)
        got = {k: doc[k] for k in expected}
        same = got == expected and printed_word(out.stdout, "passed") == str(expected["passed"]).lower()
        return Verdict(same, note="" if same else f"{got}")

    return Command(tag, ["analyze-linear", "--samples", spath, "--out", path], [path], check)


def _heisenberg(seed: int) -> Command:
    def check(out: Outcome) -> Verdict:
        bad = _failed_rc(out)
        if bad:
            return bad
        ratios = [float(x) for x in re.findall(r"x3_over_eps2 (\S+)", out.stdout)]
        spread = (max(ratios) - min(ratios)) / max(abs(r) for r in ratios)
        return Verdict(len(ratios) == 3 and spread <= 1e-6, spread)

    return Command("demo-heisenberg", ["demo-heisenberg", "--seed", str(seed)], [], check)


def _design_composite(wd, subdivisions, eps_axis) -> Command:
    path = os.path.join(wd, f"composite-s{subdivisions}.json")
    argv = ["design-composite", "--angle", repr(HALF_PI), "--eps-range", "0.9,1.1",
            "--basis", "1,3,5", "--subdivisions", str(subdivisions), "--out", path]
    target = oracles.axis_rotation("x", HALF_PI)

    def check(out: Outcome) -> Verdict:
        bad = _failed_rc(out)
        if bad:
            return bad
        claimed = _read_json(path + ".diag.json")["min_fidelity"]
        dt, u, v = oracles.load_pulse_arrays(path)
        simulated = min(
            float(oracles.rotation_fidelity(oracles.closed_form_rotation(u, v, dt, eps), target))
            for eps in eps_axis
        )
        ok = printed(out.stdout, "min_fidelity") == claimed and len(u) == 57 * subdivisions
        tag = f"composite-s{subdivisions}"
        return Verdict(ok, figures={f"claimed[{tag}]": claimed, f"simulated[{tag}]": simulated})

    return Command(f"composite-s{subdivisions}", argv, [path, path + ".diag.json", path + ".fidelity.csv"], check)


def _design_zz(wd, subdivisions) -> Command:
    path = os.path.join(wd, f"zz-s{subdivisions}.json")
    theta, j0, delta = float(np.pi / 4), 1.0, 0.1
    argv = ["design-zz", "--theta", repr(theta), "--j0", repr(j0), "--delta", repr(delta),
            "--subdivisions", str(subdivisions), "--out", path]

    def check(out: Outcome) -> Verdict:
        bad = _failed_rc(out)
        if bad:
            return bad
        diag = _read_json(path + ".diag.json")
        jgrid = np.linspace(j0 * (1 - delta), j0 * (1 + delta), 21)
        simulated = float(oracles.two_qubit_gate_fidelities(path, jgrid, theta).min())
        ok = printed(out.stdout, "min_fidelity") == diag["min_fidelity"]
        tag = f"zz-s{subdivisions}"
        return Verdict(ok, figures={f"claimed[{tag}]": diag["min_fidelity"], f"simulated[{tag}]": simulated})

    return Command(f"zz-s{subdivisions}", argv, [path, path + ".diag.json", path + ".fidelity.csv"], check)


def _summarize_compensate(fig: dict) -> dict:
    tags = [k[len("claimed["):-1] for k in fig if k.startswith("claimed[")]
    claimed = np.array([fig[f"claimed[{t}]"] for t in tags])
    simulated = np.array([fig[f"simulated[{t}]"] for t in tags])
    out = {
        "infidelity_gmean": (gmean(1.0 - simulated), "1"),
        "verify_gap": (float((claimed - simulated).max()), "1"),
    }
    for t, c, s in zip(tags, claimed, simulated):
        out[f"claimed_min_fidelity[{t}]"] = (float(c), "1")
        out[f"simulated_min_fidelity[{t}]"] = (float(s), "1")
    return out


def compensate(seed: int, wd: str) -> Workload:
    rng = seeded(seed, 3)
    check_rng = seeded(seed, 30)
    eps_axes = {"epsilon": README_EPS}
    eps_axis = np.linspace(*README_EPS)
    grid = os.path.join(wd, "eps-grid.json")
    write_grid(grid, eps_axes)

    cmds = [_analyze_lie(wd, p) for p in ("rf-scale", "coupling", "heisenberg-fields")]
    cmds.append(_analyze_lie(wd, "phase", ("--max-depth", "6")))
    for tag, failing in (("linear-pass", False), ("linear-fail", True)):
        cmds.append(_analyze_linear(wd, tag, *_linear_ensemble(rng, failing)))
    cmds.append(_heisenberg(int(rng.integers(1 << 31))))
    composites = [_design_composite(wd, s, eps_axis) for s in (1, 64, 256)]
    cmds += composites
    cmds.append(_design_zz(wd, 8))
    # verify: the state the x quarter-turn takes +z to
    target = oracles.axis_rotation("x", HALF_PI) @ np.array([0.0, 0.0, 1.0])
    for comp in composites:
        pulse = comp.outputs[0]
        out = pulse[: -len(".json")] + "-map.csv"
        argv = ["fidelity-map", "--pulse", pulse, "--grid", grid, f"--target={_fmt_vec(target)}", "--out", out]
        check = map_check(out, eps_axes, pulse, False, (0.0, 0.0, 1.0), target, LONG_SAMPLES, check_rng)
        cmds.append(Command(f"verify-{comp.label}", argv, [out], check))
    return Workload(cmds, _summarize_compensate)


WORKLOADS = {"slr-design": slr_design, "ensemble-map": ensemble_map, "compensate": compensate}
