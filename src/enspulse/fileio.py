"""Stable on-disk formats: pulse JSON, grid JSON, reports and CSV maps.

All numeric output is rendered with 17 significant digits and writes are
atomic (write-then-rename), so identical inputs produce byte-identical
files.  Float arrays, such as a pulse's samples, are formatted in one call
with the same 17-digit text as a single number.  Validation failures raise
:class:`~enspulse.errors.SchemaError` with a line reference when the JSON
itself is malformed.
"""

from __future__ import annotations

import itertools
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


# rows per block when formatting CSV tables: a block's Python floats live only
# while it is formatted, and 1024-row blocks raised a design run's peak
# resident memory by about 1 MB over 256-row ones
_CSV_BLOCK = 256


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats.

    A nonempty float array of one or two dimensions is formatted by one
    ``"%.17g"`` template over all its values, which renders each number as
    :func:`_fmt` does; the parts then take the same layout rule as a list.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  "{key}": {render_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return render_json(obj.item(), indent)
        if obj.dtype.kind == "f" and obj.size and obj.ndim <= 2:
            row = "%.17g" if obj.ndim == 1 else "[" + ", ".join(["%.17g"] * obj.shape[1]) + "]"
            parts = ("\n".join([row] * obj.shape[0]) % tuple(obj.ravel().tolist())).split("\n")
            # a row whose numbers do not fit on one line goes to the general
            # path, which breaks it across lines; a number takes at most 24
            # characters, so rows of up to three always fit
            if obj.ndim == 1 or obj.shape[1] <= 3 or max(map(len, parts)) - 2 <= 100:
                return _layout(parts, pad)
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        return _layout([render_json(v, indent + 1) for v in seq], pad)
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


def _layout(parts: list, pad: str) -> str:
    """A JSON list of rendered ``parts`` at the indentation ``pad``."""
    # inline when ", ".join(parts) fits in 100 characters on one line, which
    # more than 34 nonempty parts never do
    if (
        len(parts) <= 34
        and sum(len(p) + 2 for p in parts) - 2 <= 100
        and not any("\n" in p for p in parts)
    ):
        return "[" + ", ".join(parts) + "]"
    return "[\n" + pad + "  " + (",\n" + pad + "  ").join(parts) + "\n" + pad + "]"


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
        "samples": pulse.samples,
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
        # one pass over every entry: a boolean, string or null is no number
        numbers = set(map(type, itertools.chain.from_iterable(samples))) <= {int, float}
    except TypeError:  # a row that is not a list
        numbers = False
    if not numbers:
        raise SchemaError(f"{path}: samples must be [u, v] pairs of JSON numbers")
    for key in ("dt", "a_max"):
        value = doc.get(key)
        if (key == "dt" or key in doc) and type(value) not in (int, float):  # not bool, str or null
            raise SchemaError(f"{path}: {key} must be a JSON number, got {json.dumps(value)}")
    try:
        return ControlSequence(float(doc["dt"]), np.asarray(samples, dtype=float), doc.get("a_max"))
    except (TypeError, ValueError, OverflowError) as exc:
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
        lo, hi, n = (spec[k] for k in ("min", "max", "n"))
        numeric = all(type(v) in (int, float) for v in (lo, hi, n))  # not bool, str or null
        if not (numeric and -np.inf < lo <= hi < np.inf and 1 <= n < np.inf and n == int(n)):
            raise SchemaError(f"{path}: axis {name!r} has an invalid range: {spec}")
        ranges[name] = (float(lo), float(hi), int(n))
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


def _write_csv(path: str, header: list, axes: list, columns: list):
    """One header line, then one row per point of the grid spanned by ``axes``.

    Rows run in lexicographic order (the last axis fastest).  Each holds the
    point's axis values, then its entry of every one of ``columns``, all with
    ``"%.17g"``, which renders a float exactly as :func:`_fmt` does.  Each axis
    value is formatted once, and rows are formatted one block of outer-axis
    values at a time, so no Python float exists for more than one block.  A
    lone axis is one more column of its block's formatting call.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%.17g"] * table.shape[1])
    axes = [np.asarray(a, dtype=float) for a in axes]
    outer = axes[0] if axes else np.zeros(1)
    labels = [["%.17g," % x for x in a.tolist()] for a in axes[1:]]
    # a formatted number holds no "%", so the axis prefixes go into the
    # format template itself and each block is one formatting call
    inner = ["".join(p) + row for p in itertools.product(*labels)]
    per = max(1, _CSV_BLOCK // len(inner))  # outer-axis values per block
    parts = [",".join(header)]
    for i in range(0, len(outer), per):
        values = outer[i : i + per]
        block = table[i * len(inner) : (i + len(values)) * len(inner)]
        if len(axes) == 1:
            # a lone axis is one more column of the block's one formatting call
            heads, block = ["%.17g,"] * len(values), np.column_stack((values, block))
        else:
            heads = ["%.17g," % x for x in values.tolist()] if axes else [""]
        template = "\n".join([head + tail for head in heads for tail in inner])
        parts.append(template % tuple(block.ravel().tolist()))
    parts.append("")  # the trailing newline
    atomic_write_text(path, "\n".join(parts))


def emit_fidelity_csv(fmap: FidelityMap, path: str):
    """Rows in lexicographic axis order, newline-terminated."""
    names, axes = list(fmap.grid.names), list(fmap.grid.axes.values())
    _write_csv(path, names + ["fidelity"], axes, [fmap.values])


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
    names, axes = list(state.grid.names), list(state.grid.axes.values())
    _write_csv(path, names + ["x", "y", "z"], axes, list(state.values.T))


def emit_profile_csv(path: str, omega, achieved_alpha, achieved_beta, target_alpha, target_beta):
    header = [
        "omega", "alpha_re", "alpha_im", "beta_re", "beta_im",
        "target_alpha_re", "target_alpha_im", "target_beta_re", "target_beta_im",
    ]
    columns = []
    for z in (achieved_alpha, achieved_beta, target_alpha, target_beta):
        z = np.asarray(z)
        columns += [z.real, z.imag]
    _write_csv(path, header, [omega], columns)
