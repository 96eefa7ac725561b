"""CSV text, written a block of rows at a time.

Every CSV of ``mmcsim run`` is written by ``write_columns``, its floats as
``%.9g`` and its integers as ``%d``, byte-identical to Python's ``%``
applied to each row.

- With the compiled library of ``mmcsim.kernel``, each block is one call of
  its row formatter, which writes the block's text into a buffer reused for
  the whole file.  For ``%.9g`` it takes a 9-digit mantissa from one
  correctly rounded scaling by an exact power of ten, and leaves the values
  that rule cannot settle to the C library's ``snprintf``.
- Without it, each row is Python's ``%`` itself (``_python_writer``), which
  is also what ``check_text`` holds the library's text to.
"""
from __future__ import annotations

import itertools
from pathlib import Path
from typing import Any, Callable, Sequence

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


def check_text(lib: Any) -> str | None:
    """What of the library's CSV text differs from Python's ``%``, or None.

    The floats are ``G9_EDGES``, powers of ten, near ties at the 10th digit,
    the neighbours of both, and seeded bit patterns of every exponent; the
    integers are -12..12 and values of every width, both int64 ends
    included.
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
    ints = np.concatenate([np.arange(-12, 13), [2**63 - 1, -(2**63)], 10 ** np.arange(19), -(10 ** np.arange(19))])
    ints = np.resize(ints, floats.size)
    pieces = [("f", 0, 1), b"x", ("d", 0, 1)]
    want = _python_writer(pieces, [floats, ints])(0, floats.size)
    got = _c_writer(lib, pieces, 1, 1, floats.size)(floats[:, None], ints[:, None])
    return None if got == want else "the library's CSV text differs from Python's %"


def _c_writer(lib: Any, pieces: list[Any], nf: int, nd: int, rows: int) -> Callable[..., memoryview]:
    """A block's text by the library's row formatter, from its float and
    integer blocks: a view of one buffer sized for ``rows`` rows and reused
    by every call."""
    # the pieces as mmcsim_format_rows reads them, the fixed texts end to end
    layout, text = [], b""
    for p in pieces:
        if isinstance(p, bytes):
            layout.append((0, len(text), len(p)))
            text += p
        else:
            layout.append(("fd".index(p[0]) + 1, p[1], p[2]))
    layout = np.array(layout, np.int32)
    row_max = _FIELD_MAX * (nf + nd) + len(text) + len(pieces) + 2
    out = np.empty(rows * row_max + _FIELD_SLACK, np.uint8)
    view = memoryview(out)

    def write(floats: np.ndarray | None, ints: np.ndarray | None) -> memoryview:
        n = len(floats if floats is not None else ints)
        # the library reads n rows of each block and writes n rows into out
        for block, width, dtype in ((floats, nf, np.float64), (ints, nd, np.int64)):
            if width and not (isinstance(block, np.ndarray) and block.dtype == dtype
                              and block.shape == (n, width) and block.flags.c_contiguous):
                raise ValueError(f"expected a C-contiguous {dtype.__name__} block of shape {(n, width)}")
        if n > rows:
            raise ValueError(f"{n} rows, the buffer holds {rows}")
        size = lib.mmcsim_format_rows(
            n, None if floats is None else floats.ctypes.data, nf,
            None if ints is None else ints.ctypes.data, nd,
            layout.ctypes.data, len(layout), text, out.ctypes.data,
        )
        return view[:size]

    return write


def _python_writer(pieces: list[Any], columns: list[Any]) -> Callable[[int, int], bytes]:
    """Rows ``start..stop-1`` as Python's ``%`` writes them, one row at a
    time: ``columns`` are the number columns of ``pieces``, in order."""
    fields: list[bytes] = []
    for p in pieces:
        if isinstance(p, bytes):
            fields.append(p.replace(b"%", b"%%"))
        else:
            fields += [b"%.9g" if p[0] == "f" else b"%d"] * (p[2] - p[1])
    fmt = b",".join(fields) + b"\r\n"

    def write(start: int, stop: int) -> bytes:
        # one list of Python numbers per CSV column
        values = [v for col in columns for v in np.reshape(col[start:stop], (stop - start, -1)).T.tolist()]
        return b"".join(fmt % row for row in zip(*values))

    return write


def write_columns(path: Path, header: Sequence[str], columns: Sequence[Any]) -> int:
    """Write equal-length columns side by side as CSV with ``\\r\\n`` line
    ends, as ``csv.writer`` does.  A float column is written as ``%.9g``, an
    integer or bool one as ``%d``, a list as ``np.asarray`` reads it, and a
    2-D array adds one CSV column per array column.  A ``str`` is fixed
    text on every row.

    Columns of unequal length, a header that does not name every CSV
    column, a header name or ``str`` holding a ``,``, a line break or a NUL
    (which would split the field or be dropped) and a column of any other
    dtype raise ``ValueError`` naming the file before it is opened.  Each
    block of ``BLOCK_ROWS`` rows is formatted at once and written with one
    call, so the table is never held as text or Python objects: by the
    library of ``mmcsim.kernel`` when there is one, else by Python's ``%``
    row by row, which gives the same bytes.  Returns the row count."""
    columns = [np.asarray(col) if isinstance(col, list) else col for col in columns]
    lengths = {len(col) for col in columns if not isinstance(col, str)}
    if len(lengths) != 1:
        raise ValueError(f"{path.name}: columns differ in length: {sorted(lengths)}")
    rows = lengths.pop()
    for name in header:
        if any(c in name for c in ",\r\n\0"):
            raise ValueError(f"{path.name}: header name {name!r} holds a ',', line break or NUL")
    heads = [col if isinstance(col, str) else np.asarray(col[:1]) for col in columns]
    widths = [np.shape(head)[1] if np.ndim(head) == 2 else 1 for head in heads]
    if sum(widths) != len(header):
        raise ValueError(f"{path.name}: the header names {len(header)} columns, the table has {sum(widths)}")
    # the columns of the float block ("f") and of the integer block ("d"),
    # in order, and the row as pieces: fixed text as bytes, or (kind, i, j)
    # for columns i..j-1 of the kind's block
    blocks: dict[str, list[int]] = {"f": [], "d": []}
    pieces: list[Any] = []
    for k, (head, first) in enumerate(zip(heads, itertools.accumulate(widths, initial=0))):
        if isinstance(head, str):
            if any(c in head for c in ",\r\n\0"):
                raise ValueError(
                    f"{path.name}: column {header[first]!r} holds {head!r}: a ',', line break or NUL"
                )
            pieces.append(head.encode())
            continue
        if head.dtype.kind not in "fbiu":
            raise ValueError(
                f"{path.name}: column {header[first]!r} holds {head.dtype}, expected floats, integers or bools"
            )
        kind = "f" if head.dtype.kind == "f" else "d"
        i = sum(widths[c] for c in blocks[kind])
        blocks[kind].append(k)
        pieces.append((kind, i, i + widths[k]))

    from . import kernel  # on first use, as this module is

    lib = kernel.library()
    # int64 holds every integer column unless a uint64 one goes beyond it
    if lib is not None and not any(
        heads[k].dtype == np.uint64 and rows and np.max(columns[k]) > np.iinfo(np.int64).max
        for k in blocks["d"]
    ):
        nf, nd = (sum(widths[k] for k in blocks[kind]) for kind in "fd")
        c_write = _c_writer(lib, pieces, nf, nd, min(rows, BLOCK_ROWS))

        def write(start: int, stop: int) -> memoryview:
            return c_write(*(
                np.concatenate(
                    [np.reshape(columns[k][start:stop], (stop - start, -1)) for k in blocks[kind]],
                    axis=1, dtype=dtype,
                ) if blocks[kind] else None
                for kind, dtype in (("f", np.float64), ("d", np.int64))
            ))
    else:
        write = _python_writer(pieces, [col for col in columns if not isinstance(col, str)])
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, rows, BLOCK_ROWS):
            fh.write(write(start, min(start + BLOCK_ROWS, rows)))
    return rows
