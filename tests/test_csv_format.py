"""The CSV writer against Python's own ``%``, which it must match byte for
byte: the row formatter of the compiled library, which the library's cases
skip without (``test_kernel_builds_when_cc_present`` fails instead when
there is a compiler), and ``write_columns`` with and without it."""
import sys
import threading

import numpy as np
import pytest

from mmcsim import csvtext, kernel
from mmcsim.csvtext import BLOCK_ROWS, G9_EDGES, StepTimes, _library_blocks, _python_blocks, write_columns

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.fixture(scope="module")
def library():
    lib = kernel.library()
    if lib is None:
        pytest.skip(f"no library: {kernel.engine()[1]}")
    return lib


def _assert_matches_python(values, lib):
    """Each value's text, by the library's row formatter as a one-column
    table, against Python's ``'%.9g'``."""
    x = np.array(values, dtype=np.float64)
    got = b"".join(bytes(block) for block in _library_blocks(lib, [x], x.size)).split(b"\r\n")[:-1]
    want = [b"%.9g" % v for v in x.tolist()]
    assert got == want, [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w][:5]


def _sampled_values():
    rng = np.random.default_rng(15)
    ties = (rng.integers(10**9, 10**10, 20_000) * 10 + 5) / 1e10 * 10.0 ** rng.integers(-20, 21, 20_000)
    return np.concatenate([
        rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64),  # every exponent
        10.0 ** rng.uniform(-20, 21, 50_000) * rng.choice([-1.0, 1.0], 50_000),
        ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf),
        10.0 ** np.arange(-25, 26), np.nextafter(10.0 ** np.arange(-25, 26), 0),
    ])


# ten significant digits ending in 5: the float nearest a decimal tie at the 9th
_near_ties = st.builds(lambda d, k: float(f"{d}5e{k}"), st.integers(10**8, 10**9 - 1), st.integers(-30, 30))
_value_lists = st.lists(st.one_of(st.floats(), _near_ties), min_size=1, max_size=64)


def test_library_format_edge_cases(library):
    _assert_matches_python(G9_EDGES, library)


def test_library_format_sampled_bit_patterns_and_near_ties(library):
    _assert_matches_python(_sampled_values(), library)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_value_lists)
def test_library_format_matches_python(library, values):
    _assert_matches_python(values, library)


# ------------------------------------------- write_columns on both paths

def _python_csv(header, columns):
    """The table as Python's ``%`` and ``csv.writer`` write it, row by row."""
    rows = len(next(col for col in columns if not isinstance(col, str)))
    lines = [",".join(header)]
    for r in range(rows):
        fields = []
        for col in columns:
            if isinstance(col, str):
                fields.append(col)
                continue
            for v in np.atleast_1d(col[r]).tolist():
                fields.append("%.9g" % v if isinstance(v, float) else "%d" % v)
        lines.append(",".join(fields))
    return ("\r\n".join(lines) + "\r\n").encode()


def _columns(rows):
    """A column of every kind ``write_columns`` takes, ``rows`` long."""
    rng = np.random.default_rng(rows)
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e22, 999999999.5])
    return [
        "tag",
        "5%d%%",
        rng.integers(-128, 128, rows).astype(np.int8),
        rng.integers(-(2**15), 2**15, rows).astype(np.int16),
        rng.integers(-(2**63), 2**63 - 1, rows, dtype=np.int64, endpoint=True),
        rng.normal(1e4, 1e2, size=(rows, 3)),
        np.resize(special, rows),
        "",
        rng.integers(0, 2, size=(rows, 2)).astype(np.int8),
    ]


_HEADER = ["tag", "pct", "i8", "i16", "i64", "v1", "v2", "v3", "special", "empty", "u1", "u2"]


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS + 1])
def test_write_columns_same_bytes_on_both_paths(tmp_path, monkeypatch, library, rows):
    columns = _columns(rows)
    want = _python_csv(_HEADER, columns)
    path = tmp_path / "table.csv"
    with monkeypatch.context() as patch:
        # the library writes every row: each dtype goes through _library_blocks
        patch.setattr(csvtext, "_python_blocks", None)
        assert write_columns(path, _HEADER, columns) == rows
    assert path.read_bytes() == want
    # Python's %, as a process without the library writes
    monkeypatch.setattr(kernel, "_loaded", (None, "no library"))
    assert write_columns(path, _HEADER, columns) == rows
    assert path.read_bytes() == want


def _trace_block(rows, n=6):
    """A (rows, 3, 2n) float64 block, an int8 block of that shape and an
    int16 column, every value different, as a trace records them."""
    rng = np.random.default_rng(rows)
    shape = (rows, 3, 2 * n)
    v_c = rng.normal(1e4, 1e2, size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    u = rng.integers(-128, 128, size=shape).astype(np.int8)
    n_sw_max = rng.integers(-(2**15), 2**15, rows).astype(np.int16)[::-1]
    return v_c, u, n_sw_max


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS + 1])
def test_library_reads_strided_trace_columns(library, rows):
    # v_c[:, p] and u[:, p] of the (steps, 3, 2n) blocks, read through the
    # blocks' strides, the budgets reversed (a negative stride), and t from
    # the row index; every block of the table, each copied before the next
    # overwrites it
    v_c, u, n_sw_max = _trace_block(rows)
    for p in range(3):
        pieces = [StepTimes(rows, 25e-6), b"a", v_c[:, p], n_sw_max, u[:, p], v_c[:, p, 3]]
        assert not (v_c[:, p].flags.c_contiguous and rows > 1)
        got = [bytes(block) for block in _library_blocks(library, pieces, rows)]
        assert got == list(_python_blocks(pieces, rows)), p
    # t from the row index has SimTrace.t's bits
    t = StepTimes(rows, 25e-6)
    assert np.array_equal(t[0:rows], np.arange(1, rows + 1) * 25e-6)


def test_write_columns_from_more_threads_than_cores(tmp_path, library):
    # mmcsim run writes from two threads at once; each call has its own
    # buffer and the library holds no state, so every file gets its own
    # table's bytes, with the lock handed over as often as it can be
    tables, want = [], []
    for k in range(6):
        rng = np.random.default_rng(k)
        rows = 3 * BLOCK_ROWS + 7 * k
        v_c, u, n_sw_max = _trace_block(rows)
        columns = [f"p{k}", v_c[:, k % 3], n_sw_max, u[:, k % 3], rng.normal(size=rows)]
        header = ["t", "phase", *(f"v{j}" for j in range(12)), "nsw", *(f"u{j}" for j in range(12)), "f64"]
        tables.append((tmp_path / f"table_{k}.csv", header, [StepTimes(rows, 25e-6 * (k + 1)), *columns]))
        want.append(_python_csv(header, [np.arange(1, rows + 1) * (25e-6 * (k + 1)), *columns]))
    errors = []

    def write(path, header, columns):
        try:
            write_columns(path, header, columns)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=table) for table in tables]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors, errors
    for (path, _, _), text in zip(tables, want):
        assert path.read_bytes() == text, path.name
