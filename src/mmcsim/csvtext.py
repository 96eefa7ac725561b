"""CSV text, written a block of rows at a time.

Every CSV of ``mmcsim run`` is written by ``write_columns``, from columns
of native float64 (as ``%.9g``) and int8, int16 or int64 (as ``%d``), fixed
text and the step times, byte-identical to Python's ``%`` applied to each
row.

- With the compiled library of ``mmcsim.kernel`` (``_library_blocks``),
  each block is one call of its formatter, which reads every column in
  place through its strides (a 2-D column one field per array column,
  ``StepTimes`` from the row index) and writes the block's text into a
  buffer reused for the whole file.  For ``%.9g`` it takes a 9-digit
  mantissa from one correctly rounded scaling by an exact power of ten,
  and leaves the values that rule cannot settle to the C library's
  ``snprintf``.
- Without it (``_python_blocks``), each row is Python's ``%`` itself,
  which is also what ``check_text`` holds the library's text to.

``mmcsim run`` calls it from two threads at once (``cli._write_outputs``):
each call has its own buffer, and the library's call releases the GIL.
"""
from __future__ import annotations

import itertools
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

# rows per block: peak memory is the columns plus one block, whatever the
# row count
BLOCK_ROWS = 512
# the bytes a number field takes at most in the library's text, its ","
# included (a %d field of int64 21, a %.9g field 17), and the bytes its
# float formatter may write beyond the end of a field
_FIELD_MAX = 21
_FIELD_SLACK = 16
# values on every edge of the library's %.9g fast path
G9_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-5, 1e-4, 9.99999999e-5, 9.999999995e-5,  # the fixed/exponent boundary
    999999999.5, 9.9999999995, 99999999.95, 1e9, 1e8,  # carries into the exponent
    1000000.125, 1000000.375, 100000000.5, 100000001.5, 1.0000000045, 1.0000000055,  # 9th-digit ties
    1e22, 1e23, 1e100, 1e-100, -1e100, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-14, 9.999999999999e-15, 1e31, 9.99999999e30,  # the fast path's exponent range
    float("nan"), -float("nan"), float("inf"), float("-inf"), 1.0, -1.0, 0.1, 25e-6, 60e3,
]


class StepTimes:
    """The column ``(r+1) * t_s`` of rows ``r < rows``: ``SimTrace.t``'s
    values, never held whole.  The library computes each value from its row
    index; Python's ``%`` path takes a block's values as a slice."""

    dtype = np.dtype(np.float64)
    ndim = 1

    def __init__(self, rows: int, t_s: float) -> None:
        self.rows, self.t_s = rows, t_s

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, block: slice) -> np.ndarray:
        start, stop, _ = block.indices(self.rows)
        # SimTrace.t's expression, so the same bits
        return np.arange(start + 1, stop + 1) * self.t_s


def check_text(lib: Any) -> str | None:
    """What of the library's CSV text differs from Python's ``%``, or None.

    The floats are ``G9_EDGES``, powers of ten, near ties at the 10th digit,
    the neighbours of both, and seeded bit patterns of every exponent; the
    integers are -12..12 and values of every width, both int64 ends
    included.  Every kind of column the library reads is in the table, each
    number column through a row stride wider than its value.
    """
    rng = np.random.default_rng(18)
    ties = np.array([float(f"{d}5e{k}") for d, k in zip(
        rng.integers(10**8, 10**9, 2000).tolist(), rng.integers(-30, 31, 2000).tolist()
    )])
    powers = 10.0 ** np.arange(-25, 33)
    floats = np.concatenate([
        G9_EDGES, powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf),
        rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64),
    ])
    rows = floats.size
    ints = np.concatenate([np.arange(-12, 13), [2**63 - 1, -(2**63)], 10 ** np.arange(19), -(10 ** np.arange(19))])
    # int16 and int8 columns inside wider rows, both ends of each included
    int16s, int8s = np.zeros((rows, 2), np.int16), np.zeros((rows, 3), np.int8)
    int16s[:, 1] = np.resize(np.r_[-(2**15), 2**15 - 1, np.arange(-(2**15), 2**15, 127)], rows)
    int8s[:, 1] = np.resize(np.arange(-128, 128), rows)
    pieces = [
        StepTimes(rows, 25e-6), np.stack([floats, floats[::-1]], axis=1), b"x%",
        np.resize(ints, (rows, 2)), int16s[:, 1], int8s[:, 1],
    ]
    got = b"".join(bytes(block) for block in _library_blocks(lib, pieces, rows))
    return None if got == b"".join(_python_blocks(pieces, rows)) else "the library's CSV text differs from Python's %"


# the kind of mmcsim_format_columns that reads a column of each dtype in
# place: the only dtypes write_columns takes
_KINDS = {np.dtype(t): kind for t, kind in ((np.float64, 1), (np.int8, 2), (np.int16, 3), (np.int64, 4))}
_TEXT, _TIME = 0, 5


def _library_blocks(lib: Any, pieces: list[Any], rows: int) -> Iterator[memoryview]:
    """The table's text a block of ``BLOCK_ROWS`` rows at a time, by the
    library's formatter.  Each block is a view of one buffer, which the
    next block overwrites: take its bytes before the next block.

    ``pieces`` are the row's fixed texts as bytes and its number columns,
    each 1-D or 2-D of a dtype of ``_KINDS`` and ``rows`` long, which the
    library reads in place through their strides: one field per array
    column."""
    # (kind, base address, row stride) per field, as mmcsim_format_columns
    # reads them; keep holds what they point into
    fields: list[tuple[int, int, int]] = []
    keep: list[np.ndarray] = []
    for p in pieces:
        if isinstance(p, bytes):
            keep.append(np.frombuffer(p, np.uint8))
            fields.append((_TEXT, keep[-1].ctypes.data, len(p)))
            continue
        if isinstance(p, StepTimes):
            keep.append(np.array([p.t_s]))
            fields.append((_TIME, keep[-1].ctypes.data, 0))
            continue
        block = p if p.ndim == 2 else p[:, None]
        keep.append(block)
        row_bytes, field_bytes = block.strides
        kind = _KINDS[block.dtype]
        fields += [(kind, block.ctypes.data + j * field_bytes, row_bytes) for j in range(block.shape[1])]
    layout = np.array(fields, np.int64).reshape(-1, 3)
    row_max = _FIELD_MAX * len(fields) + sum(len(p) for p in pieces if isinstance(p, bytes)) + 2
    out = np.empty(min(rows, BLOCK_ROWS) * row_max + _FIELD_SLACK, np.uint8)
    view = memoryview(out)
    for start in range(0, rows, BLOCK_ROWS):
        size = lib.mmcsim_format_columns(
            start, min(BLOCK_ROWS, rows - start), layout.ctypes.data, len(layout), out.ctypes.data
        )
        yield view[:size]


def _python_blocks(pieces: list[Any], rows: int) -> Iterator[bytes]:
    """The table's text a block of ``BLOCK_ROWS`` rows at a time, as
    Python's ``%`` writes it, one row at a time: ``pieces`` as
    ``_library_blocks`` takes them."""
    fields: list[bytes] = []
    for p in pieces:
        if isinstance(p, bytes):
            fields.append(p.replace(b"%", b"%%"))
        else:
            fields += [b"%.9g" if p.dtype.kind == "f" else b"%d"] * (p.shape[1] if p.ndim == 2 else 1)
    fmt = b",".join(fields) + b"\r\n"
    columns = [p for p in pieces if not isinstance(p, bytes)]
    for start in range(0, rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, rows)
        # one list of Python numbers per CSV column
        values = [v for col in columns for v in np.reshape(col[start:stop], (stop - start, -1)).T.tolist()]
        yield b"".join(fmt % row for row in zip(*values))


def write_columns(path: Path, header: Sequence[str], columns: Sequence[Any]) -> int:
    """Write equal-length columns side by side as CSV with ``\\r\\n`` line
    ends, as ``csv.writer`` does.  A number column, any sequence as
    ``np.asarray`` reads it, is written as ``%.9g`` when its dtype is native
    float64 and as ``%d`` when it is native int8, int16 or int64, and a 2-D
    array adds one CSV column per array column.  A ``str`` is fixed text on
    every row, and a ``StepTimes`` is the times of the rows.

    Columns of unequal length, a header that does not name every CSV
    column, a header name or ``str`` holding a ``,``, a line break or a NUL
    (which would split the field or be dropped) and a column of any other
    dtype (float32, bool, uint64, int32, ``>f8``, text, ...) or of more
    than two dimensions raise ``ValueError`` naming the file before it is
    opened.  Each block of ``BLOCK_ROWS`` rows is formatted at once and
    written with one call, so the table is never held as text or Python
    objects: by the library of ``mmcsim.kernel`` when there is one, which
    reads each column in place, else by Python's ``%`` row by row, which
    gives the same bytes.  Returns the row count."""
    columns = [col if isinstance(col, (str, StepTimes)) else np.asarray(col) for col in columns]
    lengths = {len(col) for col in columns if not isinstance(col, str)}
    if len(lengths) != 1:
        raise ValueError(f"{path.name}: columns differ in length: {sorted(lengths)}")
    rows = lengths.pop()
    for name in header:
        if any(c in name for c in ",\r\n\0"):
            raise ValueError(f"{path.name}: header name {name!r} holds a ',', line break or NUL")
    widths = [col.shape[1] if not isinstance(col, str) and col.ndim == 2 else 1 for col in columns]
    if sum(widths) != len(header):
        raise ValueError(f"{path.name}: the header names {len(header)} columns, the table has {sum(widths)}")
    # the row as pieces: fixed text as bytes, or a number column
    pieces: list[Any] = []
    for col, first in zip(columns, itertools.accumulate(widths, initial=0)):
        if isinstance(col, str):
            if any(c in col for c in ",\r\n\0"):
                raise ValueError(
                    f"{path.name}: column {header[first]!r} holds {col!r}: a ',', line break or NUL"
                )
            pieces.append(col.encode())
            continue
        if col.dtype not in _KINDS:
            raise ValueError(
                f"{path.name}: column {header[first]!r} holds {col.dtype}, expected float64, int8, int16 or int64"
            )
        if col.ndim > 2:
            raise ValueError(f"{path.name}: column {header[first]!r} has {col.ndim} dimensions, expected 1 or 2")
        pieces.append(col)

    from . import kernel  # on first use, as this module is

    lib = kernel.library()
    blocks = _python_blocks(pieces, rows) if lib is None else _library_blocks(lib, pieces, rows)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        fh.writelines(blocks)
    return rows
