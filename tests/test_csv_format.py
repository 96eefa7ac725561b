"""The CSV writer against Python's own ``%``, which it must match byte for
byte: the file writer of the compiled library, which the library's cases
skip without (``test_kernel_builds_when_cc_present`` fails instead when
there is a compiler), and ``write_columns`` with and without it."""
import errno
import os
import sys
import tempfile
import threading

import numpy as np
import pytest

from mmcsim import csvtext, kernel
from mmcsim.csvtext import BLOCK_ROWS, G9_EDGES, RUN_VALUES, _library_write, _python_blocks, write_columns

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.fixture(scope="module")
def library():
    lib = kernel.library()
    if lib is None:
        pytest.skip(f"no library: {kernel.engine()[1]}")
    return lib


def _library_text(lib, pieces, rows):
    """The table's text as the library's writer writes it to a file, in
    the one call of ``write_columns``."""
    with tempfile.TemporaryFile() as fh:
        code = _library_write(lib, fh.fileno(), b"", pieces, rows)
        assert code == 0, code
        fh.seek(0)
        return fh.read()


def _assert_matches_python(values, lib):
    """Each value's text, by the library's writer as a one-column table,
    against Python's ``'%.9g'``."""
    x = np.array(values, dtype=np.float64)
    got = _library_text(lib, [x], x.size).split(b"\r\n")[:-1]
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
        # the library writes every row: each dtype goes through _library_write
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
    # blocks' strides and the budgets reversed (a negative stride); every
    # block of the table, each written before the next overwrites it
    v_c, u, n_sw_max = _trace_block(rows)
    t = np.arange(1, rows + 1) * 25e-6
    for p in range(3):
        pieces = [t, b"a", v_c[:, p], n_sw_max, u[:, p], v_c[:, p, 3]]
        assert not (v_c[:, p].flags.c_contiguous and rows > 1)
        assert _library_text(library, pieces, rows) == b"".join(_python_blocks(pieces, rows)), p


def test_write_columns_from_more_threads_than_cores(tmp_path, library):
    # mmcsim run writes from two threads at once; each call has its own
    # buffer and memo of each float field's text and the library holds no
    # state, so every file gets its own table's bytes, with the lock
    # handed over as often as it can be
    tables, want = [], []
    for k in range(6):
        rng = np.random.default_rng(k)
        rows = 3 * BLOCK_ROWS + 7 * k
        v_c, u, n_sw_max = _trace_block(rows)
        runs = np.repeat(rng.normal(size=rows // (k + 2) + 1), k + 2)[:rows]  # values the memo reuses
        columns = [f"p{k}", v_c[:, k % 3], n_sw_max, u[:, k % 3], runs]
        header = ["t", "phase", *(f"v{j}" for j in range(12)), "nsw", *(f"u{j}" for j in range(12)), "runs"]
        columns.insert(0, np.arange(1, rows + 1) * (25e-6 * (k + 1)))
        tables.append((tmp_path / f"table_{k}.csv", header, columns))
        want.append(_python_csv(header, columns))
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


# ------------------------------------------- the library's reuse of a float's text

def _reuse_pieces(rows):
    """Float fields that repeat their own bits of the row before, or only
    another field's: runs of ``RUN_VALUES`` (signed zeros, NaNs of other
    payloads and signs) inside a block and across its edges, 0.0 and -0.0
    alternating row by row, a NaN of another payload or sign each row, and
    two fields that each row hold another field's value of the row before
    and never their own."""
    lengths = [1, 2, 3, BLOCK_ROWS - 7, 5, BLOCK_ROWS + 1, 7, 1, 2]
    runs = np.resize(np.repeat(RUN_VALUES, lengths), rows)
    alternating = np.resize(np.array([0.0, -0.0]), rows)
    nans = np.resize(RUN_VALUES[3:6], rows)
    counting = np.arange(rows) * 0.5
    return [
        runs, b"a", np.stack([alternating, nans], axis=1), np.resize(np.int8([0, 1]), rows),
        np.roll(runs, 1), counting, np.roll(counting, 1),
    ]


@pytest.mark.parametrize("rows", [1, 2, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
def test_library_reuses_text_only_for_equal_bits(library, rows):
    pieces = _reuse_pieces(rows)
    assert _library_text(library, pieces, rows) == b"".join(_python_blocks(pieces, rows))


def test_library_reuse_table_holds_every_case():
    # the table above does hold what its cases name, at 3 blocks and a part
    rows = 3 * BLOCK_ROWS + 5
    runs, _, pair, _, rolled, counting, counting_rolled = _reuse_pieces(rows)
    bits = runs.view(np.uint64)
    same = np.flatnonzero(bits[1:] == bits[:-1]) + 1
    assert np.any(same % BLOCK_ROWS == 0)  # a run across a block edge
    assert np.any((same % BLOCK_ROWS != 0) & (runs[same] == 0.0))
    assert np.all(pair[1:, 0] == pair[:-1, 0]) and np.any(np.signbit(pair[:, 0]))
    nan_bits = pair[:, 1].view(np.uint64)
    assert np.isnan(pair[:, 1]).all() and np.all(nan_bits[1:] != nan_bits[:-1])
    assert {b >> 63 for b in nan_bits.tolist()} == {0, 1}
    assert np.array_equal(rolled[1:], runs[:-1], equal_nan=True)
    assert np.all(counting_rolled[1:] == counting[:-1]) and np.all(counting_rolled[1:] != counting_rolled[:-1])


# ------------------------------------------- a write that fails

@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("engine", ["c", "python"])
def test_failed_write_raises_oserror_naming_the_file(tmp_path, monkeypatch, request, engine):
    # every write to /dev/full fails with ENOSPC: with the library, inside
    # its one call, header included
    if engine == "c":
        request.getfixturevalue("library")
    else:
        monkeypatch.setattr(kernel, "_loaded", (None, "no library"))
    path = tmp_path / "table.csv"
    path.symlink_to("/dev/full")
    with pytest.raises(OSError) as raised:
        write_columns(path, _HEADER, _columns(3 * BLOCK_ROWS))
    assert (raised.value.errno, raised.value.filename) == (errno.ENOSPC, str(path))
    assert str(path) in str(raised.value)
