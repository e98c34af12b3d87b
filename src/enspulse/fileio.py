"""Stable on-disk formats: pulse JSON, grid JSON, reports and CSV maps.

All numeric output is rendered with 17 significant digits and writes are
atomic (write-then-rename), so identical inputs produce byte-identical
files.  A written file gets mode ``0o666`` less the umask, as ``open`` would
give it.  Validation failures raise :class:`~enspulse.errors.SchemaError`
with a line reference when the JSON itself is malformed.

Float arrays, the rows of every CSV table and a pulse's samples, are turned
into text by one vectorized formatter, :func:`_words17`, whose bytes are
those of ``"%.17g"`` for each number:

- **Digits.**  With ``k = floor(log10|x|)``, the 17-digit significand is
  ``D = round(|x| * 10**(16 - k))``.  The product is formed in double-double
  arithmetic: Dekker's exact two-product of ``|x|`` with the nearest double
  to the power of ten, plus ``|x|`` times that power's remainder, both from
  a table.  Its error is below 1e-14, so once ``k`` is corrected to put the
  product in ``[1e16, 1e17)`` (and a significand that rounds up to ``1e17``
  moves to ``k + 1``) the rounding is that of the exact value.
- **Fallback.**  A number goes to :func:`_fmt` only where that argument
  cannot decide: when the product's fraction lies within ``2**-30`` of
  one half (exact ties such as 1455453400000000.25 included), or when the
  number is not finite, or ``|x|`` lies outside ``[1e-280, 1e280]``, which
  takes in the subnormals.  Signed zeros stay on the fast path.  An array
  of fewer than :data:`_SMALL` numbers goes to the fallback whole, since
  the vectorized path's fixed cost would exceed it.
- **Text.**  Four-digit groups of ``D`` come from a table of all 10 000
  groups, kept a second time without trailing zeros for the last nonzero
  group of a number.  Each number's text is laid out in four 64-bit words,
  zero bytes as filler: the sign and the ``0.000`` prefix of ``%g``'s small
  fixed form, the digits with their dot, the ``e+XX`` exponent and one
  separator byte; deleting the zero bytes of a block leaves its text.

The tables are built on first use, from exact integer arithmetic, so that
importing the module does no work.  CSV tables and a pulse's samples are
formatted in blocks of about :data:`_BLOCK` numbers, each block's rows
gathered from the columns, so a block's table, words and temporaries are the
only arrays the text needs and the whole table is never built.  A CSV text
grows as one ``str``, and :func:`atomic_write_text` encodes and writes it in
slices of :data:`_WRITE` characters, so a table's text is held once, not
again as bytes.
"""

from __future__ import annotations

import functools
import itertools
import json
import os

import numpy as np

from .bloch import ControlSequence, DispersionGrid, EnsembleState, FidelityMap
from .errors import SchemaError

__all__ = [
    "PULSE_SCHEMA_VERSION",
    "save_pulse",
    "load_pulse",
    "load_grid",
    "save_segments",
    "save_report",
    "emit_fidelity_csv",
    "emit_state_csv",
    "emit_profile_csv",
    "atomic_write_text",
    "render_json",
]

PULSE_SCHEMA_VERSION = 1
AMPLITUDE_UNIT = "rad_per_s"


# numbers formatted per block of table rows: a block's words and temporaries,
# about 0.6 MB at this size, live only while its text is made
_BLOCK = 4096
# characters encoded and written at a time: a slice and its bytes, 2 MiB of
# ASCII at most, are all a write holds beside its text
_WRITE = 1 << 20


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# "%.17g" over float arrays
# ---------------------------------------------------------------------------

_WORD = np.dtype("<u8")  # a word's bytes in text order on any host
_HALF = np.dtype("<u4")  # a digit group's four bytes, half a word
_K_MIN, _K_MAX = -282, 282  # the decimal exponents the tables cover
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE = 2.0**-30  # a fraction this close to 1/2 goes to the fallback
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_STRIPPED = 10000  # offset of the digit groups without trailing zeros
# fewer numbers than this are formatted one by one: the vectorized path's
# hundred-odd numpy calls cost about 100 us before its first number
_SMALL = 128


@functools.cache
def _tables():
    """The powers of ten, the digit groups and the layout of each text form."""
    hi, lo = [], []
    for s in range(16 - _K_MAX, 17 - _K_MIN):  # 10**s for s = 16 - k
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        h = num / den  # true division of integers rounds correctly
        m, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - m * den) / (den * d))
    hi = np.array(hi)
    c = hi * _SPLIT
    high = c - (c - hi)
    power = (hi, high, hi - high, np.array(lo))
    # the four digits of each group, then the same without trailing zeros:
    # digit j is dropped where it and every digit after it are "0"
    groups = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):
        groups[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
        groups[(1,) + (slice(None),) * j + (0,) * (4 - j) + (j,)] = 0
    digits = groups.view(_HALF).ravel()
    # per form, with the dot after p digits: the prefix word (its sign byte
    # left zero), three words masking the digits after the dot, three
    # holding the integer zeros that fixed form keeps and three holding the
    # dot.  Form x + 5 is fixed form at decimal exponent x; forms 0 and 22,
    # below and above it, are the exponent form
    rows = []
    for x in range(-5, 18):
        if 0 <= x <= 16:  # fixed form, x + 1 integer digits
            p, prefix, zeros = x + 1, b"", b"0" * (x + 1)
        elif -4 <= x < 0:  # "0.", -x - 1 zeros, then the digits
            p, prefix, zeros = 17, b"0.000"[: 1 - x], b""
        else:
            p, prefix, zeros = 1, b"", b""
        rows.append(
            b"\0" + prefix.ljust(7, b"\0")
            + b"\0" * p + b"\xff" * (24 - p)
            + zeros.ljust(24, b"\0")
            + (b"\0" * p + b".").ljust(24, b"\0")
        )
    forms = np.frombuffer(b"".join(rows), dtype=_WORD).reshape(len(rows), 10)
    # per decimal exponent x: its form and its exponent word, whose first
    # two bytes are the digits'
    exponents = range(_K_MIN, _K_MAX + 2)
    form = np.array([min(max(x, -5), 17) + 5 for x in exponents])
    text = [b"" if -4 <= x <= 16 else b"e%+03d" % x for x in exponents]
    exponent = np.frombuffer(b"".join(b"\0\0" + t.ljust(6, b"\0") for t in text), dtype=_WORD)
    return power, digits, tuple(np.ascontiguousarray(forms.T)), form, exponent


def _scaled(a, k, power):
    """``a * 10**(16 - k)`` as ``p + t``: ``p`` the rounded product with the
    power's nearest double, ``t`` its exact error plus the power's remainder."""
    i = _K_MAX - k
    hi, high, low, rest = power
    p = a * hi[i]
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    high, low = high[i], low[i]
    # in place, in the order of ((ah*high - p) + ah*low + al*high) + al*low
    err = ah * high
    err -= p
    err += ah * low
    err += al * high
    err += al * low
    err += a * rest[i]
    return p, err


def _significands(a, power):
    """``(D, k, tie)`` for positive ``a`` in ``[_FAST_MIN, _FAST_MAX]``: the
    17 significant digits ``D = round(a * 10**(16 - k))`` of each number, its
    decimal exponent ``k``, and whether its product lies near a tie."""
    k = np.floor(np.log10(a)).astype(np.intp)
    p, t = _scaled(a, k, power)
    # the floor of log10 may be one off near a power of ten: move k until the
    # product lies in [1e16, 1e17).  A product less than 1/40 below 1e16, or
    # 1/4 above 1e17, rounds to the same text at either exponent; these
    # margins, far above the product's error, keep a move from being undone
    while True:
        low = (p - 1e16) + t < -0.025
        high = (p - 1e17) + t >= 0.25
        off = np.flatnonzero(low | high)
        if not off.size:
            break
        k[off] += high[off].astype(np.intp) - low[off]
        p[off], t[off] = _scaled(a[off], k[off], power)
    whole = np.floor(t)
    frac = t - whole
    # p >= 2**53 is an integer
    D = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    top = np.flatnonzero(D == 10**17)  # rounded up to the next power of ten
    D[top] = 10**16
    k[top] += 1
    return D, k, np.abs(frac - 0.5) < _TIE


def _digit_words(D, digits):
    """The 17 digits of each ``D`` as text in three words, its trailing
    zeros dropped: the leading digit, then four groups of four."""
    head = D // 10**8
    low = D - head * 10**8
    d0 = head // 10**8
    high = head - d0 * 10**8
    g1 = high // 10**4
    g2 = high - g1 * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    # a group followed only by zero groups drops its trailing zeros; two
    # groups side by side in the table's order read as one word
    tail = low == 0
    index = np.empty((len(D), 4), dtype=np.intp)
    index[:, 0] = g1 + _STRIPPED * (tail & (g2 == 0))
    index[:, 1] = g2 + _STRIPPED * tail
    index[:, 2] = g3 + _STRIPPED * (g4 == 0)
    index[:, 3] = g4 + _STRIPPED
    A, B = digits[index].view(_WORD).T
    return (d0.astype(np.uint64) + 48) | (A << 8), (A >> 56) | (B << 8), B >> 56


def _words17(x: np.ndarray, ends: bytes) -> np.ndarray:
    """``x.shape + (4,)`` words holding each number's ``"%.17g"`` text.

    Zero bytes are filler; the last byte of a number's words is ``ends[j]``
    for a number in column ``j`` of ``x``'s last axis.  Fewer than
    :data:`_SMALL` numbers all take the fallback, which is faster there.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    if flat.size < _SMALL:
        words, fallback = np.zeros((flat.size, 4), dtype=_WORD), np.arange(flat.size)
    else:
        words, fallback = _vector_words(flat)
    text = words.view(np.uint8)
    if fallback.size:
        given = b"".join(_fmt(v).encode().ljust(31, b"\0") for v in flat[fallback].tolist())
        text[fallback, :31] = np.frombuffer(given, dtype=np.uint8).reshape(-1, 31)
    text.reshape(x.shape + (32,))[..., 31] = np.frombuffer(ends, dtype=np.uint8)
    return words.reshape(x.shape + (4,))


def _vector_words(flat: np.ndarray):
    """``(words, fallback)``: the ``(n, 4)`` words of :func:`_words17` for a
    1-d ``flat``, last bytes zero, and the numbers left to the fallback."""
    power, digits, forms, form, exponent = _tables()
    a = np.abs(flat)
    outside = ~((a >= _FAST_MIN) & (a <= _FAST_MAX))
    if outside.any():
        zero = a == 0.0
        a[outside] = 1.0
        D, k, fallback = _significands(a, power)
        D[zero] = 0  # and k is 0, that of 1.0
        fallback |= outside & ~zero
    else:
        D, k, fallback = _significands(a, power)
    fallback = np.flatnonzero(fallback)
    row = k - _K_MIN
    f = form[row]
    prefix, after0, after1, after2, zeros0, zeros1, zeros2, dot0, dot1, dot2 = forms
    # the digit string, with the integer zeros of fixed form put back; its
    # bytes after the dot, N, move up one byte to make room for the dot
    G0, G1, G2 = _digit_words(D, digits)
    G0 |= zeros0[f]
    G1 |= zeros1[f]
    G2 |= zeros2[f]
    N0 = G0 & after0[f]
    N1 = G1 & after1[f]
    N2 = G2 & after2[f]
    # the dot stands only before a digit
    dot = ((N0 | N1 | N2) != 0).astype(np.uint64) * np.uint64(0xFFFFFFFFFFFFFFFF)
    # each word is computed into a fresh array and then copied into its
    # column: numpy 2.4's signbit writes wrong values into a strided output
    words = np.empty((flat.size, 4), dtype=_WORD)
    words[:, 0] = prefix[f] | (np.signbit(flat).astype(np.uint64) * np.uint64(ord("-")))
    words[:, 1] = (G0 ^ N0) | (N0 << 8) | (dot0[f] & dot)
    words[:, 2] = (G1 ^ N1) | (N1 << 8) | (N0 >> 56) | (dot1[f] & dot)
    words[:, 3] = (G2 ^ N2) | (N2 << 8) | (N1 >> 56) | (dot2[f] & dot) | exponent[row]
    return words, fallback


def _text(words: np.ndarray) -> bytes:
    """The text of formatted ``words``: their bytes without the filler."""
    return words.tobytes().translate(None, b"\0")


def _blocks(columns: list, ends: bytes):
    """Yield ``(rows, words)`` over blocks of about :data:`_BLOCK` numbers of
    the table whose ``columns`` are equally long 1-d float arrays: the
    block's row numbers and its :func:`_words17`.

    Each block's rows are gathered from the columns into a table of the
    block's size, so the whole table is never built.
    """
    n, per = len(columns[0]), max(1, _BLOCK // len(columns))
    for start in range(0, n, per):
        rows = np.arange(start, min(start + per, n))
        table = np.empty((len(rows), len(columns)))
        for j, column in enumerate(columns):
            table[:, j] = column[start : start + per]
        yield rows, _words17(table, ends)


def _array_parts(arr: np.ndarray) -> list:
    """Each number of a 1-d float array, or each row of a 2-d one as
    ``[a, b, ...]``, rendered as :func:`_fmt` renders a number."""
    ends = b"\n" if arr.ndim == 1 else b"," * (arr.shape[1] - 1) + b"]"
    text = b"".join(_text(words) for _, words in _blocks(list(arr.reshape(len(arr), -1).T), ends))
    if arr.ndim == 2:
        # no number holds a "," or a "]": spell out the separators of each row
        text = b"[" + text.replace(b",", b", ").replace(b"]", b"]\n[")[:-1]
    return text.decode().split("\n")[:-1]


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats.

    A nonempty float array of one or two dimensions is formatted by
    :func:`_words17`, a block of rows at a time, which renders each number
    as :func:`_fmt` does; the parts then take the same layout rule as a list.
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
            parts = _array_parts(obj)
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
    """Write ``text`` to a new file that then replaces ``path``.

    The file is created as ``open`` creates one, with mode ``0o666`` less
    the umask, under a fresh name in ``path``'s directory, and is removed
    if the write fails.  A path that cannot be written (a missing directory,
    a directory, no permission) raises :class:`SchemaError` naming it.
    ``text`` is encoded and written in slices of :data:`_WRITE` characters,
    so no encoding of the whole text is ever held; a slice edge never splits
    a character, so the file's bytes are those of the whole text's encoding.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        while tmp is None:
            name = os.path.join(directory, ".enspulse-" + os.urandom(6).hex())
            try:
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                continue
            tmp = name
        with os.fdopen(fd, "w") as fh:
            for start in range(0, len(text), _WRITE):
                fh.write(text[start : start + _WRITE])
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise SchemaError(f"{path!r}: {exc.strerror}") from exc
        raise


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path!r}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from exc
    except OSError as exc:
        raise SchemaError(f"{path!r}: {exc.strerror}") from exc


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
        # every row holds two entries, and every entry is a number: a
        # boolean, string or null is none
        pairs = set(map(len, samples)) == {2}
        pairs = pairs and set(map(type, itertools.chain.from_iterable(samples))) <= {int, float}
    except TypeError:  # a row that is not a list
        pairs = False
    if not pairs:
        raise SchemaError(f"{path}: samples must be [u, v] pairs of JSON numbers")
    for key in ("dt", "a_max"):
        value = doc.get(key)
        if (key == "dt" or key in doc) and type(value) not in (int, float):  # not bool, str or null
            raise SchemaError(f"{path}: {key} must be a JSON number, got {json.dumps(value)}")
    try:
        numbers = np.fromiter(itertools.chain.from_iterable(samples), dtype=float, count=2 * len(samples))
        return ControlSequence(float(doc["dt"]), numbers.reshape(-1, 2), doc.get("a_max"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# grid files
# ---------------------------------------------------------------------------


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
    point's axis values, then its entry of every one of ``columns``, all as
    :func:`_fmt` renders them.
    """
    atomic_write_text(path, _csv_text(header, axes, columns))


def _csv_text(header: list, axes: list, columns: list) -> str:
    """The text :func:`_write_csv` writes.

    Rows are formatted one block of about :data:`_BLOCK` numbers of
    ``columns`` at a time (:func:`_blocks`), and each block's text is
    appended to one ``str``.  CPython appends to a ``str`` in place, growing
    it without a copy, while the local name holds its only reference, so the
    text is held once and never beside a second buffer of its bytes.  Under
    a tracer (``sys.settrace``) the interpreter copies at each append
    instead: the text is still the same, and the peak is the text twice, as
    a buffer decoded whole would hold.  Each value of two or more axes is
    formatted once and gathered into the rows it labels; a lone axis labels
    each row once, so it is one more column.
    """
    if len(axes) == 1:
        axes, columns = [], [axes[0], *columns]
    columns = [np.asarray(c, dtype=float) for c in columns]
    labels = [_words17(np.asarray(a, dtype=float)[:, None], b",")[:, 0] for a in axes]
    ends = b"," * (len(columns) - 1) + b"\n"
    text = ",".join(header) + "\n"
    for rows, words in _blocks(columns, ends):
        if labels:
            block = np.empty((len(rows), len(labels) + len(columns), 4), dtype=_WORD)
            points = np.unravel_index(rows, [len(w) for w in labels])
            for j, (label, index) in enumerate(zip(labels, points)):
                block[:, j] = np.take(label, index, axis=0)
            block[:, len(labels) :] = words
            words = block
        text += _text(words).decode()
    return text


def emit_fidelity_csv(fmap: FidelityMap, path: str):
    """Rows in lexicographic axis order, newline-terminated."""
    names, axes = list(fmap.grid.names), list(fmap.grid.axes.values())
    _write_csv(path, names + ["fidelity"], axes, [fmap.values])


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
