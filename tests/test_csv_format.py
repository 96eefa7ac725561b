"""The CSV writer against Python's own ``%``, which it must match byte for
byte: the row formatter of the compiled library, which the library's cases
skip without (``test_kernel_builds_when_cc_present`` fails instead when
there is a compiler), and ``write_columns`` with and without it."""
import numpy as np
import pytest

from mmcsim import kernel
from mmcsim.csvtext import BLOCK_ROWS, G9_EDGES, _c_writer, write_columns

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
    got = bytes(_c_writer(lib, [("f", 0, 1)], 1, 0, x.size)(x[:, None], None)).split(b"\r\n")[:-1]
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


def _columns(rows, uint64_top):
    """A column of every kind ``write_columns`` takes, ``rows`` long; the
    uint64 column goes beyond int64 when ``uint64_top`` is set."""
    rng = np.random.default_rng(rows)
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e22, 999999999.5])
    top = 2**64 - 1 if uint64_top else 2**63 - 1
    return [
        rng.normal(scale=1e3, size=rows).astype(np.float32),
        "tag",
        "5%d%%",
        rng.integers(-128, 128, rows).astype(np.int8),
        rng.integers(-(2**15), 2**15, rows).astype(np.int16),
        rng.integers(-(2**63), 2**63 - 1, rows, dtype=np.int64, endpoint=True),
        rng.integers(0, 2, rows).astype(bool),
        np.resize(np.array([0, 9, 10, 2**63, top], np.uint64), rows),
        rng.normal(1e4, 1e2, size=(rows, 3)),
        np.resize(special, rows),
        "",
        rng.integers(0, 2, size=(rows, 2)).astype(np.int8),
    ]


_HEADER = ["f32", "tag", "pct", "i8", "i16", "i64", "bool", "u64", "v1", "v2", "v3", "special", "empty", "u1", "u2"]


@pytest.mark.parametrize("uint64_top", [False, True], ids=["uint64-fits-int64", "uint64-above-int64"])
@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS + 1])
def test_write_columns_same_bytes_on_both_paths(tmp_path, monkeypatch, library, rows, uint64_top):
    columns = _columns(rows, uint64_top)
    want = _python_csv(_HEADER, columns)
    path = tmp_path / "table.csv"
    assert write_columns(path, _HEADER, columns) == rows
    assert path.read_bytes() == want
    # Python's %, as a process without the library writes
    monkeypatch.setattr(kernel, "_loaded", (None, "no library"))
    assert write_columns(path, _HEADER, columns) == rows
    assert path.read_bytes() == want


def test_library_writer_refuses_blocks_of_another_layout(library):
    # the library reads and writes through the blocks' pointers, so a block
    # that is not the one its writer was made for never reaches it
    write = _c_writer(library, [("f", 0, 2)], 2, 0, 4)
    for block in (np.zeros((4, 3)), np.zeros((4, 2), np.float32), np.zeros((2, 4)).T):
        with pytest.raises(ValueError, match=r"^expected a C-contiguous float64 block of shape \(4, 2\)$"):
            write(block, None)
    with pytest.raises(ValueError, match="^5 rows, the buffer holds 4$"):
        write(np.zeros((5, 2)), None)
    assert bytes(write(np.ones((4, 2)), None)) == b"1,1\r\n" * 4
