"""CSV text, written a block of rows at a time.

Every CSV of ``mmcsim run`` is written by ``write_columns``, from columns
of native float64 (as ``%.9g``) and int8, int16 or int64 (as ``%d``) and
fixed text, byte-identical to Python's ``%`` applied to each row.

- With the compiled library of ``mmcsim.kernel`` (``_library_write``), the
  whole file, header included, is one call of its writer, which reads
  every column in place through its strides (a 2-D column one field per
  array column), formats each block of rows into one buffer that it
  allocates and writes it to the file's descriptor.  For ``%.9g`` it
  takes a 9-digit mantissa from one correctly rounded scaling by an exact
  power of ten, and leaves the values that rule cannot settle to the C
  library's ``snprintf``; a float with the bits of its field's value on
  the row before gets that row's text again, unformatted.
- Without it (``_python_blocks``), each row is Python's ``%`` itself,
  which is also what ``check_text`` holds the library's text to.

``mmcsim run`` calls it from two threads at once (``cli._write_outputs``)
when there is a library: each call has its own buffer and memo, and the
library's call holds no GIL for the whole file.
"""
from __future__ import annotations

import itertools
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

# rows per block: peak memory is the columns plus one block, whatever the
# row count
BLOCK_ROWS = 512
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
# values whose runs test the library's reuse of a float's text: 0.0 and
# -0.0, equal under == but written "0" and "-0", and NaNs of other
# payloads and signs, never equal under == and all written "nan"
RUN_VALUES = np.array([
    0x0, 0x8000000000000000, 0x0, 0x7FF8000000000000, 0xFFF8000000000000,
    0x7FF0000000000001, 0x7FF8000000000000, 0x3FF0000000000000, 0x8000000000000000,
], np.uint64).view(np.float64)


def check_text(lib: Any) -> str | None:
    """What of the library's CSV text differs from Python's ``%``, or None.

    The floats are ``G9_EDGES``, powers of ten, near ties at the 10th digit,
    the neighbours of both, and seeded bit patterns of every exponent; the
    integers are -12..12 and values of every width, both int64 ends
    included.  Every kind of column the library reads is in the table, each
    number column through a row stride wider than its value, and two float
    columns of runs of one value (signed zeros, NaNs of several payloads
    and signs), one run crossing a block edge, the second column each row
    holding the first's value of the row before.  The library writes the
    table to a temporary file as ``write_columns`` has it write a file.
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
    runs = np.resize(np.repeat(RUN_VALUES, np.arange(1, len(RUN_VALUES) + 1) * (BLOCK_ROWS // 8 + 1)), rows)
    pieces = [
        np.stack([floats, floats[::-1]], axis=1), b"x%",
        np.resize(ints, (rows, 2)), int16s[:, 1], int8s[:, 1], np.stack([runs, np.roll(runs, 1)], axis=1),
    ]
    head = b"head\r\n"
    with tempfile.TemporaryFile() as fh:
        code = _library_write(lib, fh.fileno(), head, pieces, rows)
        if code:
            return f"the library's CSV writer failed: {os.strerror(-code)}"
        fh.seek(0)
        got = fh.read()
    if got != b"".join([head, *_python_blocks(pieces, rows)]):
        return "the library's CSV text differs from Python's %"
    return None


# the kind of mmcsim_write_columns that reads a column of each dtype in
# place: the only dtypes write_columns takes
_KINDS = {np.dtype(t): kind for t, kind in ((np.float64, 1), (np.int8, 2), (np.int16, 3), (np.int64, 4))}
_TEXT = 0


def _library_write(lib: Any, fd: int, head: bytes, pieces: list[Any], rows: int) -> int:
    """Write ``head`` and then the table's text to the file descriptor
    ``fd`` by one call of the library's writer, which formats a block of
    ``BLOCK_ROWS`` rows at a time into one buffer and holds no GIL.
    Returns 0, or -errno of the write or allocation that failed.

    ``pieces`` are the row's fixed texts as bytes and its number columns,
    each 1-D or 2-D of a dtype of ``_KINDS`` and ``rows`` long, which the
    library reads in place through their strides: one field per array
    column."""
    # (kind, base address, row stride) per field, as mmcsim_write_columns
    # reads them; keep holds what they point into
    fields: list[tuple[int, int, int]] = []
    keep: list[np.ndarray] = []
    for p in pieces:
        if isinstance(p, bytes):
            keep.append(np.frombuffer(p, np.uint8))
            fields.append((_TEXT, keep[-1].ctypes.data, len(p)))
            continue
        block = p if p.ndim == 2 else p[:, None]
        keep.append(block)
        row_bytes, field_bytes = block.strides
        kind, address = _KINDS[block.dtype], block.ctypes.data
        fields += [(kind, address + j * field_bytes, row_bytes) for j in range(block.shape[1])]
    layout = np.array(fields, np.int64).reshape(-1, 3)
    return lib.mmcsim_write_columns(fd, head, len(head), rows, BLOCK_ROWS, layout.ctypes.data, len(layout))


def _python_blocks(pieces: list[Any], rows: int) -> Iterator[bytes]:
    """The table's text a block of ``BLOCK_ROWS`` rows at a time, as
    Python's ``%`` writes it, one row at a time: ``pieces`` as
    ``_library_write`` takes them."""
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
    every row.

    Columns of unequal length, a header that does not name every CSV
    column, a header name or ``str`` holding a ``,``, a line break or a NUL
    (which would split the field or be dropped) and a column of any other
    dtype (float32, bool, uint64, int32, ``>f8``, text, ...) or of more
    than two dimensions raise ``ValueError`` naming the file before it is
    opened.  Each block of ``BLOCK_ROWS`` rows is formatted at once and
    written with one call, so the table is never held as text or Python
    objects: by the library of ``mmcsim.kernel`` when there is one, which
    reads each column in place and writes the whole file in one call,
    else by Python's ``%`` row by row, which gives the same bytes.  A
    write that fails raises ``OSError`` naming the file, on either path.
    Returns the row count."""
    columns = [col if isinstance(col, str) else np.asarray(col) for col in columns]
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
    head = (",".join(header) + "\r\n").encode()
    with _naming(path), path.open("wb") as fh:
        if lib is None:
            fh.write(head)
            fh.writelines(_python_blocks(pieces, rows))
        elif code := _library_write(lib, fh.fileno(), head, pieces, rows):
            raise OSError(-code, os.strerror(-code), str(path))
    return rows


@contextmanager
def _naming(path: Path) -> Iterator[None]:
    """An ``OSError`` raised inside with no file name, from a write or close
    of an open file, raised again naming ``path``."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise
