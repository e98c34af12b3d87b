"""In-memory span tracing for the benchmark, installed from outside the package.

Spans are recorded around the public functions of each ``enspulse`` layer by
replacing them, at the names their callers look them up by, with thin timing
wrappers (``enspulse.cli.propagate``, ``enspulse.kernels.spinor_propagate``,
``enspulse.slr.complete_polynomial``, ...).  Nothing under ``src/`` is edited
and nothing is written to disk while tracing: spans stay in a list until the
benchmark reduces them to per-layer figures.

Each span holds its name, start, end, the index of the span that was open
when it began (its parent) and the id of the CLI command it belongs to, so
every span of one command shares one id.  A span's self time is its duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field

# Kernel calls on sequences at least this long are the long-sequence regime
# (few grid points, per-step overhead); the composite artifacts of the
# `compensate` workload have 3 648 and 14 592 steps.
LONG_SEQUENCE_STEPS = 2048


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    command: int


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    command: int = 0
    _stack: list = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.command))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, name: str | None = None):
        span = self.spans[index]
        span.end = time.perf_counter()
        if name is not None:
            span.name = name
        self._stack.pop()

    def count(self, key: str, amount: float):
        self.counts[key] = self.counts.get(key, 0) + amount

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()


def self_times(spans: list) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def self_time_by_name(spans: list) -> dict:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


# ---------------------------------------------------------------------------
# wrappers at the lookup names
# ---------------------------------------------------------------------------


def _kernel_counter(args, kwargs, result, tracer):
    u, omega = args[0], args[3]
    steps, points = len(u), len(omega)
    tracer.count("kernels.pointsteps", steps * points)
    return "long" if steps >= LONG_SEQUENCE_STEPS else None


def _closure_mode(args, kwargs, result, tracer):
    return "sampled" if result.mode == "sampled" else None


def _compiled_segments(args, kwargs, result, tracer):
    tracer.count("composite.segments", result.diagnostics.get("segments", 0))
    return None


def _bytes_written(args, kwargs, result, tracer):
    tracer.count("fileio.bytes_written", len(args[1].encode()))
    return None


def _bytes_read(args, kwargs, result, tracer):
    tracer.count("fileio.bytes_read", os.path.getsize(args[0]))
    return None


# (module, attribute, span name, hook).  A hook sees each completed call; it
# may add counts and returns a suffix that refines the span name, or None.
TARGETS = [
    ("enspulse.cli", "propagate", "bloch.propagate", None),
    ("enspulse.cli", "fidelity_map", "bloch.fidelity_map", None),
    ("enspulse.cli", "fidelity_of_states", "bloch.fidelity_of_states", None),
    ("enspulse.cli", "phase_frame_check", "bloch.phase_frame_check", None),
    ("enspulse.bloch", "propagate", "bloch.propagate", None),
    ("enspulse.cli", "lie_closure", "liealg.closure", _closure_mode),
    ("enspulse.composite", "lie_closure", "liealg.closure", _closure_mode),
    ("enspulse.cli", "ensemble_necessary_conditions", "linear.necessary_conditions", None),
    ("enspulse.cli", "reachability_residual", "linear.reachability", None),
    ("enspulse.cli", "heisenberg_invariant", "linear.heisenberg", None),
    ("enspulse.kernels", "spinor_propagate", "kernels.spinor", _kernel_counter),
    ("enspulse.kernels", "bloch_propagate", "kernels.bloch", _kernel_counter),
    ("enspulse.slr", "design_broadband", "slr.design_broadband", None),
    ("enspulse.slr", "design_pattern", "slr.design_pattern", None),
    ("enspulse.slr", "broadband_profile", "slr.profile", None),
    ("enspulse.slr", "band_selective_profile", "slr.profile", None),
    ("enspulse.slr", "target_to_polys", "slr.fit", None),
    ("enspulse.slr", "complete_polynomial", "slr.completion", None),
    ("enspulse.slr", "inverse_recursion_full", "slr.inverse", None),
    ("enspulse.slr", "forward_recursion", "slr.forward", None),
    ("enspulse.slr", "predicted_spinor", "slr.evaluate", None),
    ("enspulse.slr:SpinorPolynomials", "evaluate", "slr.evaluate", None),
    ("enspulse.composite", "compile_robust_rotation", "composite.compile", _compiled_segments),
    ("enspulse.composite", "compile_j_robust_zz", "composite.compile", _compiled_segments),
    ("enspulse.composite", "generator_level_rotation_fidelity", "composite.claim", None),
    ("enspulse.fileio", "atomic_write_text", "fileio.write", _bytes_written),
    ("enspulse.fileio", "save_pulse", "fileio.write", None),
    ("enspulse.fileio", "save_segments", "fileio.write", None),
    ("enspulse.fileio", "save_report", "fileio.write", None),
    ("enspulse.fileio", "emit_fidelity_csv", "fileio.write", None),
    ("enspulse.fileio", "emit_state_csv", "fileio.write", None),
    ("enspulse.fileio", "emit_profile_csv", "fileio.write", None),
    ("enspulse.fileio", "_load_json", "fileio.read", _bytes_read),
    ("enspulse.fileio", "load_pulse", "fileio.read", None),
    ("enspulse.fileio", "load_grid", "fileio.read", None),
]


def _resolve(target: str):
    module_name, _, cls = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


def _wrap(fn, name: str, hook, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        refined = None
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                suffix = hook(args, kwargs, result, tracer)
                refined = f"{name}.{suffix}" if suffix else None
            return result
        finally:
            tracer.end(index, refined)

    return traced


class Instrumentation:
    """Installs and removes the wrappers of :data:`TARGETS` around one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list = []

    def install(self):
        for target, attr, name, hook in TARGETS:
            owner = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, hook, self.tracer))

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


# ---------------------------------------------------------------------------
# per-layer figures of one traced pass
# ---------------------------------------------------------------------------

# metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "cli.self_s": ["cli.main"],
    "fileio.write_s": ["fileio.write"],
    "fileio.read_s": ["fileio.read"],
    "slr.fit_s": ["slr.fit"],
    "slr.completion_s": ["slr.completion"],
    "slr.inverse_s": ["slr.inverse"],
    "slr.forward_s": ["slr.forward"],
    "slr.evaluate_s": ["slr.evaluate"],
    "bloch.score_s": ["bloch.fidelity_map", "bloch.fidelity_of_states", "bloch.phase_frame_check"],
    "kernels.spinor_s": ["kernels.spinor", "kernels.spinor.long"],
    "kernels.bloch_s": ["kernels.bloch", "kernels.bloch.long"],
    "kernels.long_s": ["kernels.spinor.long", "kernels.bloch.long"],
    "composite.compile_s": ["composite.compile"],
    "liealg.closure_s": ["liealg.closure"],
    "liealg.closure_sampled_s": ["liealg.closure.sampled"],
}
LAYERS = ("cli", "fileio", "slr", "bloch", "kernels", "composite", "liealg", "linear")
COUNT_METRICS = ("kernels.pointsteps", "composite.segments", "fileio.bytes_written", "fileio.bytes_read")


def layer_figures(spans: list, counts: dict) -> dict:
    """Per-layer self times and counts of one pass's spans."""
    by_name = self_time_by_name(spans)
    out = {
        metric: sum(by_name.get(n, 0.0) for n in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in by_name.items() if n.split(".")[0] == layer)
    out["linear.s"] = out.pop("linear.self_s")
    for key in COUNT_METRICS:
        out[key] = counts.get(key, 0)
    kernel_s = out["kernels.spinor_s"] + out["kernels.bloch_s"]
    out["bloch.pointsteps_per_s"] = out["kernels.pointsteps"] / kernel_s if kernel_s > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out


def median_figures(per_pass: list) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
