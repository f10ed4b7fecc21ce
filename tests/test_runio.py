import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from singlerange.runio import (
    TRACE_HEADER_CURRENT,
    TRACE_HEADER_FREE,
    _BLOCK_ROWS,
    _write_rows,
    read_trace_csv,
    write_trace_csv,
)
from singlerange.truthsim import TruthTrace

SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, np.inf,
           -np.inf, np.nan, 0.1, -1.5]
ROW_COUNTS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]


def reference_rows(header, columns):
    """The cell-by-cell writer that the block writer replaced."""

    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    lines = [header + "\n"]
    for k in range(len(columns[0])):
        lines.append(",".join(fmt(col[k]) for col in columns) + "\n")
    return "".join(lines).encode()


def float_column(n):
    # floats() draws -0.0, subnormals, infinities and NaN among others
    return arrays(np.float64, n, elements=st.floats(width=64))


@st.composite
def int_and_float_columns(draw):
    n = draw(st.sampled_from(ROW_COUNTS) | st.integers(0, 40))
    ints = draw(arrays(np.int64, n))
    floats = [draw(float_column(n)) for _ in range(draw(st.integers(1, 3)))]
    return [ints, *floats]


@settings(max_examples=60, deadline=None)
@given(int_and_float_columns())
@example([np.arange(len(SPECIAL)), np.array(SPECIAL)])
@example([np.arange(_BLOCK_ROWS + 1),
          np.resize(np.array(SPECIAL), _BLOCK_ROWS + 1)])
def test_block_writer_matches_cell_writer(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    header = ",".join(f"c{i}" for i in range(len(columns)))
    _write_rows(path, header, columns)
    assert path.read_bytes() == reference_rows(header, columns)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def traces(draw, mode):
    n = draw(st.integers(2, 30))
    finite = st.floats(-1e12, 1e12, allow_subnormal=True)
    ts = draw(st.floats(1e-6, 1e3))
    x = draw(arrays(np.float64, (n, 3), elements=finite))
    y_clean = draw(arrays(np.float64, n, elements=finite))
    y = draw(arrays(np.float64, n, elements=finite))
    r = None
    if mode == "current":
        r = draw(arrays(np.float64, (n, 3), elements=finite))
    return TruthTrace(ts=ts, x=x, y_clean=y_clean, y=y, r=r)


def check_round_trip(tmp_path_factory, trace, header):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    write_trace_csv(path, trace)
    assert path.read_text().split("\n", 1)[0] == header
    back = read_trace_csv(path)
    assert back.mode == trace.mode
    assert back.ts == trace.ts
    for name in ("x", "y_clean", "y", "r"):
        if getattr(trace, name) is None:
            assert getattr(back, name) is None
        else:
            assert same_bits(getattr(back, name), getattr(trace, name)), name


@settings(max_examples=40, deadline=None)
@given(traces("free"))
def test_free_trace_round_trip(tmp_path_factory, trace):
    check_round_trip(tmp_path_factory, trace, TRACE_HEADER_FREE)


@settings(max_examples=40, deadline=None)
@given(traces("current"))
def test_current_trace_round_trip(tmp_path_factory, trace):
    check_round_trip(tmp_path_factory, trace, TRACE_HEADER_CURRENT)
