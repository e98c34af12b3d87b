"""Command-line surface: design, simulate, verify and analyze.

Exit codes: 0 success, 2 invalid input (bad flags, malformed or
schema-violating files), 3 infeasibility verdicts (a correct "cannot be
done" answer, distinct from an error).  Every design subcommand writes a
diagnostics JSON next to its artifact containing the fit residuals and the
path of the verification fidelity map it also wrote.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio
from .bloch import (
    DispersionGrid,
    EnsembleState,
    FidelityMap,
    TargetSpec,
    fidelity_map,
    fidelity_of_states,
    phase_frame_check,
    propagate,
)
from .errors import EnspulseError, InfeasibleError, SchemaError
from .fileio import _fmt

# ``slr``, ``composite``, ``liealg`` and ``linear`` are imported by the
# commands that run them, so start-up loads only what every command shares

__all__ = ["main", "build_parser"]


def _parse_floats(text: str, n: int | None = None) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"expected comma-separated numbers, got {text!r}") from exc
    if n is not None and len(vals) != n:
        raise SchemaError(f"expected {n} comma-separated numbers, got {text!r}")
    return vals


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"expected comma-separated integers, got {text!r}") from exc


def _require_positive(**kwargs):
    """Reject a given flag value that is not a finite positive number (NaN too)."""
    for name, value in kwargs.items():
        if value is not None and not 0 < value < np.inf:
            raise SchemaError(
                f"--{name.replace('_', '-')} must be positive and finite, got {value}"
            )


def _angle(text: str) -> float:
    """A target angle: a finite, nonzero number."""
    value = float(text)
    if not np.isfinite(value) or value == 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and nonzero, got {text!r}")
    return value


def _read_config(path: str, valid: set) -> dict[str, str]:
    """The key=value lines of ``path`` by destination; unknown keys rejected."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in valid:
            raise SchemaError(f"{path}:{lineno}: unknown key {key!r}")
        values[dest] = value
    return values


class _ConfigDefaults(argparse.Action):
    """``--config PATH`` keeps the path with the subcommand parser that met it.

    :func:`main` sets that parser's defaults from the file and parses again,
    so flags given on the command line win, and argparse converts each value
    with its flag's type, as it does any string default.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        setattr(namespace, self.dest, (path, parser))


# The analysis entry points the commands call.  Each imports its module on
# first call, so start-up does not; perfbench's tracer wraps them by these
# names on this module.


def lie_closure(*args, **kwargs):
    from .liealg import lie_closure

    return lie_closure(*args, **kwargs)


def ensemble_necessary_conditions(*args, **kwargs):
    from .linear import ensemble_necessary_conditions

    return ensemble_necessary_conditions(*args, **kwargs)


def reachability_residual(*args, **kwargs):
    from .linear import reachability_residual

    return reachability_residual(*args, **kwargs)


def heisenberg_invariant(*args, **kwargs):
    from .linear import heisenberg_invariant

    return heisenberg_invariant(*args, **kwargs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _write_verification(out: str, fmap: FidelityMap, report: dict):
    """Write ``<out>.fidelity.csv`` and ``<out>.diag.json``: the report, the map's path and minimum."""
    map_path = out + ".fidelity.csv"
    fileio.emit_fidelity_csv(fmap, map_path)
    fileio.save_report(
        out + ".diag.json", {**report, "fidelity_map": map_path, "min_fidelity": fmap.min}
    )


def _cmd_design_slr(args) -> int:
    from . import slr

    _require_positive(band=args.band, steps=args.steps, dt=args.dt, a_max=args.a_max)
    dt = args.dt if args.dt is not None else 0.5 / args.band
    design = slr.design_broadband(
        args.axis, args.angle, args.band, args.steps, dt, a_max=args.a_max
    )
    fileio.save_pulse(args.out, design.pulse)
    # the profile on the offsets of the design's own map
    omega = design.fidelity.grid.axes["omega"]
    al, be = slr.predicted_spinor(design.polys, omega, dt)
    # inside the band the block's profile is exactly the block rotation
    ga, gb = slr.rotation_target(args.axis, design.block_angle, omega, args.steps, dt)
    fileio.emit_profile_csv(args.out + ".profile.csv", omega, al, be, ga, gb)
    _write_verification(
        args.out,
        design.fidelity,
        {
            "band_error": design.band_error,
            "fit_residual": design.fit_residual,
            "blocks": design.blocks,
            "block_angle": design.block_angle,
            "profile_csv": args.out + ".profile.csv",
            **design.inversion,
        },
    )
    print(f"band_error {_fmt(design.band_error)} blocks {design.blocks}")
    return 0


def _cmd_design_pattern(args) -> int:
    from . import slr

    _require_positive(band=args.band, steps=args.steps, dt=args.dt, transition=args.transition)
    if not 0 < args.margin < 1:
        raise SchemaError(f"--margin must lie in (0, 1), got {args.margin}")
    dt = args.dt if args.dt is not None else 0.5 / args.band
    lo, hi = _parse_floats(args.select, 2)
    profile = slr.band_selective_profile(
        args.band, (lo, hi), args.flip, args.steps, dt, transition=args.transition
    )
    design = slr.design_pattern(profile, args.steps, dt, margin=args.margin)
    fileio.save_pulse(args.out, design.pulse)
    pv, qv = design.values
    fileio.emit_profile_csv(
        args.out + ".profile.csv", profile.omega, pv, qv, profile.f_alpha, profile.f_beta
    )
    grid = DispersionGrid(axes={"omega": profile.omega})
    final = propagate(
        design.pulse, grid, EnsembleState.uniform_spinor(grid, 1, 0), model="hard_pulse"
    )
    fid = fidelity_of_states(
        final,
        TargetSpec.per_point("spinor", np.column_stack([profile.f_alpha, profile.f_beta])),
    )
    # the figure of merit for a flip pattern is the longitudinal profile
    # outside the transition ramps; the strict per-sample spinor fidelity
    # also counts transverse phase
    z_achieved = np.abs(final.values[:, 0]) ** 2 - np.abs(final.values[:, 1]) ** 2
    z_target = 1.0 - 2.0 * np.abs(profile.f_beta) ** 2
    keep = profile.weights >= 1.0
    z_error = float(np.abs(z_achieved - z_target)[keep].max())
    _write_verification(
        args.out,
        fid,
        {
            "fit_error": design.fit_error,
            "z_profile_error": z_error,
            "profile_csv": args.out + ".profile.csv",
            **design.inversion,
        },
    )
    print(f"z_profile_error {_fmt(z_error)} fit_error {_fmt(design.fit_error)}")
    return 0


def _cmd_design_composite(args) -> int:
    from . import composite

    _require_positive(tol=args.tol, grid_points=args.grid_points, subdivisions=args.subdivisions)
    lo, hi = _parse_floats(args.eps_range, 2)
    grid = np.linspace(lo, hi, args.grid_points)
    if not (np.isfinite(grid).all() and np.all(np.diff(grid) > 0)):
        raise SchemaError(f"--eps-range must be finite and increasing, got {args.eps_range!r}")
    spec = composite.RobustRotationSpec(
        args.axis,
        args.angle,
        grid,
        tuple(_parse_ints(args.basis)),
        tol=args.tol,
        subdivisions=args.subdivisions,
    )
    out = composite.compile_robust_rotation(spec)
    fileio.save_pulse(args.out, out.sequence)
    fids = composite.generator_level_rotation_fidelity(out, spec.angles, args.axis, grid)
    fmap = FidelityMap(DispersionGrid(axes={"epsilon": grid}), fids)
    _write_verification(args.out, fmap, out.diagnostics)
    print(f"fit_max {_fmt(out.diagnostics['fit_max'])} min_fidelity {_fmt(fmap.min)}")
    return 0


def _cmd_design_zz(args) -> int:
    from . import composite
    from .liealg import expm_skew, pauli

    _require_positive(j0=args.j0, tol=args.tol, subdivisions=args.subdivisions)
    out = composite.compile_j_robust_zz(
        args.theta,
        args.j0,
        args.delta,
        tuple(_parse_ints(args.basis)),
        tol=args.tol,
        subdivisions=args.subdivisions,
    )
    fileio.save_segments(args.out, out.sequence, extra={"target_zz_angle": args.theta})
    jgrid = composite.coupling_grid(args.j0, args.delta)
    target = expm_skew(-1j * args.theta * np.kron(pauli("z"), pauli("z")))
    fids = composite.gate_fidelity(expm_skew(out.predicted.evaluate({"J": jgrid})), target)
    fmap = FidelityMap(DispersionGrid(axes={"J": jgrid}), fids)
    _write_verification(args.out, fmap, out.diagnostics)
    print(f"fit_max {_fmt(out.diagnostics['fit_max'])} min_fidelity {_fmt(fmap.min)}")
    return 0


def _unit_bloch(flag: str, text: str) -> list[float]:
    """The Bloch vector given to ``flag``: three numbers whose norm is 1."""
    vec = _parse_floats(text, 3)
    dev = abs(float(np.linalg.norm(vec)) - 1.0)
    if not dev <= EnsembleState.NORM_TOL:  # NaN too
        raise SchemaError(f"{flag} must be a unit Bloch vector, its norm is off by {dev:.3e}")
    return vec


def _cmd_simulate(args) -> int:
    initial = _unit_bloch("--initial", args.initial)
    pulse = fileio.load_pulse(args.pulse)
    grid = fileio.load_grid(args.grid)
    model = args.model.replace("-", "_")
    state = propagate(pulse, grid, EnsembleState.uniform_bloch(grid, initial), model=model)
    fileio.emit_state_csv(state, args.out)
    return 0


def _cmd_fidelity_map(args) -> int:
    target = TargetSpec.constant_bloch(_unit_bloch("--target", args.target))
    start = _unit_bloch("--initial", args.initial)
    pulse = fileio.load_pulse(args.pulse)
    grid = fileio.load_grid(args.grid)
    initial = EnsembleState.uniform_bloch(grid, start)
    model = args.model.replace("-", "_")
    fmap = fidelity_map(pulse, grid, target, initial, model=model)
    fileio.emit_fidelity_csv(fmap, args.out)
    print(f"min_fidelity {_fmt(fmap.min)}")
    return 0


# the families the compilers bracket, by the name of the table the compilers
# hold them in
_FAMILY_PRESETS = {
    "rf-scale": "RF_ELEMENTS",
    "rf-two-scale": "TWO_PARAM_ELEMENTS",
    "offset": "OMEGA_ELEMENTS",
    "coupling": "COUPLING_ELEMENTS",
}


def _lie_preset(name: str):
    if name in _FAMILY_PRESETS:
        from . import composite

        return list(getattr(composite, _FAMILY_PRESETS[name]).values())
    if name == "phase":
        from .composite import SO3 as so3
        from .liealg import SampledElement

        theta = np.linspace(0.0, 2 * np.pi, 33)
        return [
            SampledElement.make([(np.cos(theta), so3["x"]), (np.sin(theta), so3["y"])]),
            SampledElement.make([(-np.sin(theta), so3["x"]), (np.cos(theta), so3["y"])]),
        ]
    if name == "heisenberg-matrix":
        from .liealg import DispersionPolyElement

        x = np.zeros((3, 3)); x[0, 1] = 1.0
        y = np.zeros((3, 3)); y[1, 2] = 1.0
        return [
            DispersionPolyElement.single({"eps": 1}, x),
            DispersionPolyElement.single({"eps": 1}, y),
        ]
    if name == "heisenberg-fields":
        from .liealg import PolyVectorField

        g1 = PolyVectorField.make(3, [{(0, 0, 0): 1.0}, {}, {(0, 1, 0): -1.0}])
        g2 = PolyVectorField.make(3, [{}, {(0, 0, 0): 1.0}, {(1, 0, 0): 1.0}])
        return [g1, g2]
    raise SchemaError(f"unknown preset {name!r}")


def _cmd_analyze_lie(args) -> int:
    gens = _lie_preset(args.preset)
    report = lie_closure(gens, max_depth=args.max_depth)
    doc = {
        "preset": args.preset,
        "mode": report.mode,
        "dimension": len(report.basis),
        "depth_reached": report.depth_reached,
        "nilpotency": {"verdict": report.nilpotency.verdict, "step": report.nilpotency.step},
    }
    if report.mode == "symbolic":
        doc["per_direction_monomials"] = [
            [dict(sorted(d.items())) for d in funcs] for funcs in report.per_direction_functions
        ]
    elif report.mode == "sampled":
        doc["per_direction_function_counts"] = [
            int(len(f)) for f in report.per_direction_functions
        ]
    fileio.save_report(args.out, doc)
    print(f"dimension {len(report.basis)} nilpotency {report.nilpotency}")
    return 0


def _cmd_analyze_linear(args) -> int:
    from .linear import LinearSystemSample

    if not 0 <= args.tol < np.inf:  # NaN too
        raise SchemaError(f"--tol must be nonnegative and finite, got {args.tol}")
    _require_positive(step=args.step)
    doc = fileio._load_json(args.samples)
    entries = doc.get("samples") if isinstance(doc, dict) else None
    if not entries or not isinstance(entries, list):
        raise SchemaError(f"{args.samples}: needs a nonempty 'samples' list")
    samples = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"{args.samples}: sample {i}: must be a JSON object")
        try:
            samples.append(LinearSystemSample(entry.get("s", i), entry["A"], entry["b"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{args.samples}: sample {i}: {exc}") from exc
    report = ensemble_necessary_conditions(samples, tol=args.tol)
    doc_out = {
        "passed": report.passed,
        "coincident_pairs": [list(p) for p in report.coincident_pairs],
        "rank_deficient": report.rank_deficient,
        "characteristic_coefficients": [list(c) for c in report.coefficients],
    }
    if args.reachability_targets:
        path = args.reachability_targets
        tdoc = fileio._load_json(path)
        bad = SchemaError(f"{path}: needs a 'targets' list of finite numbers")
        if not (isinstance(tdoc, dict) and isinstance(tdoc.get("targets"), list)):
            raise bad
        try:
            targets = [np.asarray(t, dtype=float) for t in tdoc["targets"]]
        except (TypeError, ValueError) as exc:
            raise bad from exc
        if not all(np.isfinite(t).all() for t in targets):
            raise bad
        doc_out["reachability_residual"] = reachability_residual(
            samples, targets, args.horizon, args.step
        )
    fileio.save_report(args.out, doc_out)
    print(f"passed {str(report.passed).lower()}")
    return 0


def _cmd_demo_phase(args) -> int:
    pulse = fileio.load_pulse(args.pulse)
    grid = DispersionGrid(axes={"theta": _parse_floats(args.thetas)})
    dev = phase_frame_check(pulse, grid)
    print(f"max_frame_deviation {_fmt(dev)}")
    return 0 if dev <= 1e-9 else 1


def _cmd_demo_heisenberg(args) -> int:
    _require_positive(steps=args.steps, step=args.step)
    rng = np.random.default_rng(args.seed)
    u1 = rng.uniform(-1, 1, args.steps)
    u2 = rng.uniform(-1, 1, args.steps)
    eps = _parse_floats(args.epsilons)
    report = heisenberg_invariant(u1, u2, args.step, eps)
    for e, row in zip(eps, report.finals):
        print(
            f"eps {_fmt(e)} x3 {_fmt(row[2])} x3_over_eps2 {_fmt(row[2] / e**2)}"
        )
    print(f"second_order_spread {_fmt(report.second_order_spread)}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _args_design_slr(p):
    p.add_argument("--axis", choices=("x", "y"), default="x")
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--band", type=float, required=True)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--dt", type=float)
    p.add_argument("--a-max", type=float, dest="a_max")
    p.add_argument("--out", required=True)


def _args_design_pattern(p):
    p.add_argument("--band", type=float, required=True)
    p.add_argument("--select", required=True, help="lo,hi of the selected interval")
    p.add_argument("--flip", type=float, required=True)
    p.add_argument("--steps", type=int, default=128)
    p.add_argument("--dt", type=float)
    p.add_argument("--transition", type=float)
    p.add_argument("--margin", type=float, default=0.01)
    p.add_argument("--out", required=True)


def _args_design_composite(p):
    from .composite import DEFAULT_TOL

    p.add_argument("--axis", choices=("x", "y"), default="x")
    p.add_argument("--angle", type=_angle, required=True)
    p.add_argument("--eps-range", default="0.9,1.1", dest="eps_range")
    p.add_argument("--grid-points", type=int, default=21, dest="grid_points")
    p.add_argument("--basis", default="1,3,5")
    p.add_argument("--subdivisions", type=int, default=1)
    p.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help="largest fit residual (rad) accepted (default: %(default)s)",
    )
    p.add_argument("--out", required=True)


def _args_design_zz(p):
    from .composite import DEFAULT_TOL

    p.add_argument("--theta", type=_angle, required=True)
    p.add_argument("--j0", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--basis", default="1,3")
    p.add_argument("--subdivisions", type=int, default=1)
    p.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help="largest fit residual (rad) accepted (default: %(default)s)",
    )
    p.add_argument("--out", required=True)


def _args_simulate(p):
    p.add_argument("--pulse", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--initial", default="0,0,1")
    p.add_argument("--model", choices=("exact", "hard-pulse"), default="exact")
    p.add_argument("--out", required=True)


def _args_fidelity_map(p):
    p.add_argument("--pulse", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--target", required=True, help="target Bloch vector x,y,z")
    p.add_argument("--initial", default="0,0,1")
    p.add_argument("--model", choices=("exact", "hard-pulse"), default="exact")
    p.add_argument("--out", required=True)


def _args_analyze_lie(p):
    p.add_argument(
        "--preset", required=True,
        choices=(*_FAMILY_PRESETS, "phase", "heisenberg-matrix", "heisenberg-fields"),
    )
    p.add_argument("--max-depth", type=int, default=8, dest="max_depth")
    p.add_argument("--out", required=True)


def _args_analyze_linear(p):
    p.add_argument("--samples", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--reachability-targets", dest="reachability_targets")
    p.add_argument("--horizon", type=int, default=16)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--out", required=True)


def _args_demo_phase(p):
    p.add_argument("--pulse", required=True)
    p.add_argument("--thetas", default="0,0.5,1.0")


def _args_demo_heisenberg(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--epsilons", default="0.5,1,2")


# every subcommand: its help line, its arguments and its handler, in the
# order ``enspulse --help`` lists them
_COMMANDS = {
    "design-slr": ("broadband rotation via spinor polynomials", _args_design_slr, _cmd_design_slr),
    "design-pattern": (
        "frequency-selective flip pattern", _args_design_pattern, _cmd_design_pattern,
    ),
    "design-composite": (
        "rf-scale-robust rotation via bracket words", _args_design_composite, _cmd_design_composite,
    ),
    "design-zz": ("coupling-robust ZZ evolution", _args_design_zz, _cmd_design_zz),
    "simulate": ("propagate Bloch states over a grid", _args_simulate, _cmd_simulate),
    "fidelity-map": (
        "score a pulse against a target state", _args_fidelity_map, _cmd_fidelity_map,
    ),
    "analyze-lie": (
        "bracket closure and nilpotency of a preset family", _args_analyze_lie, _cmd_analyze_lie,
    ),
    "analyze-linear": (
        "necessary conditions for a linear ensemble", _args_analyze_linear, _cmd_analyze_linear,
    ),
    "demo-phase": ("rf-phase frame-law deviation of a pulse", _args_demo_phase, _cmd_demo_phase),
    "demo-heisenberg": (
        "gain-scaling law of the planar integrator", _args_demo_heisenberg, _cmd_demo_heisenberg,
    ),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``enspulse`` parser, with every subcommand or, for a known
    ``command``, with that one alone.

    :func:`main` passes the command its arguments name, so a call builds one
    subparser instead of ten.  The usage line still names every command, so
    the two parsers print the same text for that command's arguments.
    """
    parser = argparse.ArgumentParser(
        prog="enspulse",
        description="Design and verify dispersion-compensating pulse sequences.",
    )
    if command in _COMMANDS:
        names = [command]
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}"
        )
    else:
        names = list(_COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_arguments, func = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.add_argument("--config", action=_ConfigDefaults, help="key=value file supplying defaults")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.config:
            path, subparser = args.config
            valid = set(vars(args)) - {"config", "func", "command"}
            subparser.set_defaults(**_read_config(path, valid))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse errors and --help
        return int(exc.code or 0)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (EnspulseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
