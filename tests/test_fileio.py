"""The vectorized ``"%.17g"`` formatter behind every float array the file
layer writes: on arbitrary float64 bit patterns, on the edges of the ``%g``
rule and of the formatter's fallback, each number's text is the bytes of
``format(x, ".17g")``.  Written files take their mode from the umask, as
``open`` would give it, and a failed write leaves its target alone."""

import os
import stat
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enspulse import fileio
from enspulse.bloch import ControlSequence, DispersionGrid, FidelityMap


def expected(values):
    return [format(v, ".17g") for v in values]


def assert_renders_like_format_17g(values):
    # repeated up to the size that takes the vectorized path, not the fallback
    arr = np.resize(np.array(values, dtype=np.float64), max(len(values), fileio._SMALL))
    assert fileio._array_parts(arr) == expected(arr.tolist())


@st.composite
def ties(draw):
    """Doubles exactly halfway between two 17-digit decimals.

    ``x = m / 2**(n + 1)`` with ``m`` odd and ``2D + 1 = 5**n * m`` for a
    17-digit ``D`` is ``(D + 1/2) * 10**-n``; it is a double while ``m`` is
    below ``2**53``.
    """
    n = draw(st.integers(1, 20))
    lo = -(-(2 * 10**16 + 1) // 5**n)
    hi = min(2**53 - 1, (2 * 10**17 + 1) // 5**n)
    m = draw(st.integers(lo, hi)) | 1
    return draw(st.sampled_from([1, -1])) * m / 2 ** (n + 1)


BIT_PATTERNS = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64)))


@settings(max_examples=300)
@given(values=st.lists(st.one_of(BIT_PATTERNS, st.floats(), ties()), min_size=1, max_size=40))
# ties that round half to even up, then down
@example(values=[1455453400000000.75, 1455453400000000.25])
def test_arbitrary_doubles_render_like_format_17g(values):
    assert_renders_like_format_17g(values)


def neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# doubles just below a power of ten whose 17-digit rounding carries up to it
CARRIES = [1e-243, 1e-176, 1e-79, 1e-14, 1e98, 1e129, 1e153]
TIES = [1455453400000000.25, 1455453400000000.75, 76717110347791.94, 9067114079.667969, 0.07884788513183594]
EDGES = (
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1.5e-310]
    + [2.2250738585072014e-308, -2.2250738585072014e-308]
    + [1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan]
    # the switches of %g at 1e-4 and 1e17, and every power in between
    + [v for e in range(-6, 19) for v in neighbours(10.0**e)]
    + CARRIES
    + TIES
    # three-digit exponents, and the ends of the fast range
    + [1e100, -1e-100, 1.2345678901234567e-123, -9.8765432109876543e279]
    + neighbours(1e280) + neighbours(1e-280) + [1e281, -1e-281]
    + [99999999999999984.0, 1e16 + 2, 123456789012345680.0, 0.1, 1 / 3, -2.0 / 3]
)


def test_edge_values_render_like_format_17g():
    assert_renders_like_format_17g(EDGES)
    assert_renders_like_format_17g([-v for v in EDGES])


def test_short_arrays_render_like_format_17g():
    # fewer than _SMALL numbers go to the fallback one by one
    values = EDGES[: fileio._SMALL - 1]
    assert fileio._array_parts(np.array(values)) == expected(values)


@pytest.mark.parametrize("x", CARRIES)
def test_carries_are_below_their_power_of_ten(x):
    # each printed power of ten is the rounding of a smaller double
    text = format(x, ".17g")
    assert text.startswith("1e") and Decimal(x) < Decimal(text)


@pytest.mark.parametrize("x", TIES)
def test_ties_are_exact(x):
    # 18 significant digits ending in 5: the 17-digit rounding is a tie
    digits = Decimal(x).as_tuple().digits
    assert len(digits) == 18 and digits[-1] == 5


def test_values_across_blocks_render_like_format_17g():
    # more numbers than one block, with the edge values at the block joins
    rng = np.random.default_rng(11)
    values = rng.normal(size=3 * fileio._BLOCK) * 10.0 ** rng.integers(-20, 20, 3 * fileio._BLOCK)
    values[fileio._BLOCK - len(EDGES) // 2 :][: len(EDGES)] = EDGES
    assert fileio._array_parts(values) == expected(values.tolist())
    rows = values.reshape(-1, 3)
    assert fileio._array_parts(rows) == [
        "[" + ", ".join(expected(row)) + "]" for row in rows.tolist()
    ]


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
)
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    grid = DispersionGrid.from_ranges(omega=(-1.0, 1.0, 3), epsilon=(0.9, 1.1, 2))
    previous = os.umask(umask)
    try:
        fileio.save_pulse(str(tmp_path / "pulse.json"), ControlSequence(1e-4, np.ones((4, 2))))
        fileio.emit_fidelity_csv(FidelityMap(grid, np.full(grid.size, 0.5)), str(tmp_path / "map.csv"))
        fileio.save_report(str(tmp_path / "report.json"), {"min_fidelity": 0.5})
    finally:
        os.umask(previous)
    names = sorted(os.listdir(tmp_path))
    assert names == ["map.csv", "pulse.json", "report.json"]
    assert [stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in names] == [mode] * 3


def test_a_failed_write_leaves_its_target_and_no_temporary_file(tmp_path):
    target = tmp_path / "map.csv"
    target.write_text("kept\n")
    # a lone surrogate cannot be encoded: the write fails after the
    # temporary file exists, in the first slice or after a slice was written
    for head in (0, fileio._WRITE + 5):
        with pytest.raises(UnicodeEncodeError):
            fileio.atomic_write_text(str(target), "x" * head + "partial\udc80")
        assert os.listdir(tmp_path) == ["map.csv"]
        assert target.read_text() == "kept\n"


@pytest.mark.parametrize(
    "length", [0, 1, fileio._WRITE - 1, fileio._WRITE, fileio._WRITE + 1, 3 * fileio._WRITE + 5]
)
def test_a_text_written_in_slices_reads_back_whole(tmp_path, length):
    # a two-byte character on each side of every slice edge the text reaches
    text = np.resize(np.frombuffer(b"0123456789,\n", dtype=np.uint8), length).tobytes().decode()
    for edge in range(fileio._WRITE, length, fileio._WRITE):
        text = text[: edge - 1] + "\u00e9\u00e8" + text[edge + 1 :]
    assert len(text) == length
    path = tmp_path / "text.csv"
    fileio.atomic_write_text(str(path), text)
    assert path.read_text() == text
    assert os.listdir(tmp_path) == ["text.csv"]


def test_a_table_is_built_and_written_holding_its_text_about_once(tmp_path):
    # the text grows as one str and is written in slices: no bytes of the
    # whole text and no second copy of it beside the str
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("under a tracer the interpreter copies a str at each append")
    rng = np.random.default_rng(2)
    axes = [np.linspace(-2000.0, 2000.0, 180), np.linspace(0.8, 1.2, 170)]
    columns = list(rng.normal(size=(3, 180 * 170)))
    path = str(tmp_path / "state.csv")
    fileio._write_csv(path, ["omega", "epsilon", "x", "y", "z"], axes, columns)  # tables built
    tracemalloc.start()
    try:
        fileio._write_csv(path, ["omega", "epsilon", "x", "y", "z"], axes, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert 2.5e6 < size < 3.5e6
    assert peak < 1.5 * size + 1e6
