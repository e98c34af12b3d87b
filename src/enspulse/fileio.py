"""Stable on-disk formats: pulse JSON, grid JSON, reports and CSV maps.

All numeric output is rendered with 17 significant digits and writes are
atomic (write-then-rename), so identical inputs produce byte-identical
files.  Validation failures raise :class:`~enspulse.errors.SchemaError`
with a line reference when the JSON itself is malformed.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .bloch import ControlSequence, DispersionGrid, EnsembleState, FidelityMap
from .errors import SchemaError

__all__ = [
    "PULSE_SCHEMA_VERSION",
    "save_pulse",
    "load_pulse",
    "save_grid",
    "load_grid",
    "save_segments",
    "save_report",
    "emit_fidelity_csv",
    "parse_fidelity_csv",
    "emit_state_csv",
    "emit_profile_csv",
    "atomic_write_text",
    "render_json",
]

PULSE_SCHEMA_VERSION = 1
AMPLITUDE_UNIT = "rad_per_s"


# rows per block when formatting CSV tables
_CSV_BLOCK = 1024


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  "{key}": {render_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        inner = ", ".join(render_json(v, indent + 1) for v in seq)
        if len(inner) <= 100 and "\n" not in inner:
            return "[" + inner + "]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj)!r} deterministically")


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".enspulse-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# pulse files
# ---------------------------------------------------------------------------


def save_pulse(path: str, pulse: ControlSequence):
    doc = {
        "schema_version": PULSE_SCHEMA_VERSION,
        "amplitude_unit": AMPLITUDE_UNIT,
        "dt": pulse.dt,
        "samples": [[u, v] for u, v in pulse.samples],
    }
    if pulse.a_max is not None:
        doc["a_max"] = pulse.a_max
    atomic_write_text(path, render_json(doc) + "\n")


PULSE_KEYS = {"schema_version", "amplitude_unit", "dt", "samples", "a_max"}


def load_pulse(path: str) -> ControlSequence:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: pulse file must be a JSON object")
    if "schema_version" not in doc:
        raise SchemaError(f"{path}: missing schema_version")
    if doc["schema_version"] != PULSE_SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported schema_version {doc['schema_version']}")
    if doc.get("amplitude_unit") != AMPLITUDE_UNIT:
        raise SchemaError(
            f"{path}: amplitude_unit must be {AMPLITUDE_UNIT!r}, got {doc.get('amplitude_unit')!r}"
        )
    unknown = set(doc) - PULSE_KEYS
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    samples = doc.get("samples")
    if not samples:
        raise SchemaError(f"{path}: samples must be nonempty")
    try:
        return ControlSequence(float(doc["dt"]), np.asarray(samples, dtype=float), doc.get("a_max"))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# grid files
# ---------------------------------------------------------------------------


def save_grid(path: str, grid: DispersionGrid):
    axes = {}
    for name, vals in grid.axes.items():
        axes[name] = {"min": float(vals[0]), "max": float(vals[-1]), "n": int(len(vals))}
    atomic_write_text(path, render_json({"axes": axes}) + "\n")


def load_grid(path: str) -> DispersionGrid:
    doc = _load_json(path)
    axes_doc = doc.get("axes") if isinstance(doc, dict) else None
    if not isinstance(axes_doc, dict) or not axes_doc:
        raise SchemaError(f"{path}: grid file needs a nonempty 'axes' object")
    ranges = {}
    for name, spec in axes_doc.items():
        if not isinstance(spec, dict) or not {"min", "max", "n"} <= set(spec):
            raise SchemaError(f"{path}: axis {name!r} needs min, max and n")
        if spec["n"] < 1 or spec["min"] > spec["max"]:
            raise SchemaError(f"{path}: axis {name!r} has an invalid range")
        ranges[name] = (float(spec["min"]), float(spec["max"]), int(spec["n"]))
    try:
        return DispersionGrid.from_ranges(**ranges)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# segment lists and reports
# ---------------------------------------------------------------------------


def save_segments(path: str, segments, extra: dict | None = None):
    doc = {
        "schema_version": PULSE_SCHEMA_VERSION,
        "kind": "segment_list",
        "segments": [seg.as_dict() for seg in segments],
    }
    if extra:
        doc.update(extra)
    atomic_write_text(path, render_json(doc) + "\n")


def save_report(path: str, report: dict):
    atomic_write_text(path, render_json(report) + "\n")


# ---------------------------------------------------------------------------
# CSV maps
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: list, columns: list):
    """One header line, then one row per index of ``columns``, 17 digits each.

    ``"%.17g"`` renders a float exactly as :func:`_fmt` does.  Rows are
    formatted a block at a time, so no Python float exists for more than one
    block of the table.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%.17g"] * table.shape[1])
    parts = [",".join(header)]
    for start in range(0, len(table), _CSV_BLOCK):
        block = table[start : start + _CSV_BLOCK].tolist()
        parts.append("\n".join([row % tuple(values) for values in block]))
    parts.append("")  # the trailing newline
    atomic_write_text(path, "\n".join(parts))


def emit_fidelity_csv(fmap: FidelityMap, path: str):
    """Rows in lexicographic axis order, newline-terminated."""
    names = list(fmap.grid.names)
    pts = fmap.grid.points()
    _write_csv(path, names + ["fidelity"], [pts[n] for n in names] + [fmap.values])


def parse_fidelity_csv(path: str) -> FidelityMap:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if header[-1] != "fidelity":
        raise SchemaError(f"{path}: last column must be 'fidelity'")
    names = header[:-1]
    cols = np.array([[float(v) for v in row] for row in rows])
    axes = {}
    for j, name in enumerate(names):
        axes[name] = np.unique(cols[:, j])
    grid = DispersionGrid(axes)
    if grid.size != len(rows):
        raise SchemaError(f"{path}: rows do not form a full grid")
    return FidelityMap(grid, cols[:, -1])


def emit_state_csv(state: EnsembleState, path: str):
    if state.kind != "bloch":
        raise ValueError("state CSV export is defined for Bloch states")
    names = list(state.grid.names)
    pts = state.grid.points()
    _write_csv(path, names + ["x", "y", "z"], [pts[n] for n in names] + list(state.values.T))


def emit_profile_csv(path: str, omega, achieved_alpha, achieved_beta, target_alpha, target_beta):
    header = [
        "omega", "alpha_re", "alpha_im", "beta_re", "beta_im",
        "target_alpha_re", "target_alpha_im", "target_beta_re", "target_beta_im",
    ]
    columns = [omega]
    for z in (achieved_alpha, achieved_beta, target_alpha, target_beta):
        z = np.asarray(z)
        columns += [z.real, z.imag]
    _write_csv(path, header, columns)
