"""CSV text, formatted a block of rows at a time.

Every CSV of ``mmcsim run`` is written by ``write_columns``, its floats as
``%.9g`` and its integers as ``%d``, byte-identical to Python's ``%``
applied to each row.  Both writers below keep the same exactness rule for
``%.9g`` (see ``format_g9``): a 9-digit mantissa from one correctly rounded
scaling by an exact power of ten, and Python's or the C library's own
formatting for the values that rule cannot settle.

- With the compiled library of ``mmcsim.kernel``, each block is one call of
  its row formatter, which writes the block's text into a buffer reused for
  the whole file.
- Without it, each block becomes one uint8 matrix: each field is a
  fixed-width slot holding a leading "," and its text, the bytes a slot
  does not use are NUL, and deleting the NULs leaves the block's text.
"""
from __future__ import annotations

import functools
import itertools
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

# rows per block: peak memory is the columns plus one block, whatever the
# row count
BLOCK_ROWS = 512
# the exponents e with a fast path: |8 - e| <= 22, so 10**(8 - e) is exact
# in binary64
_G9_EXP = (-14, 30)
# a scaled value whose fraction lies this close to 0.5 may be a decimal
# tie, which Python's own '%.9g' decides
_G9_TIE = 2.5e-7
# tables indexed by exponent hold e in [-16, 32]: log10 and one correction
# step reach no further from the fast path's range
_G9_E0 = -16
# the bytes a number field takes at most in the library's text, its ","
# included (a %d field of int64 21, a %.9g field 17), and the bytes its
# float formatter may write beyond the end of a field
_FIELD_MAX = 21
_FIELD_SLACK = 16
# values on every edge of format_g9's fast path
G9_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-5, 1e-4, 9.99999999e-5, 9.999999995e-5,  # the fixed/exponent boundary
    999999999.5, 9.9999999995, 99999999.95, 1e9, 1e8,  # carries into the exponent
    1000000.125, 1000000.375, 100000000.5, 100000001.5, 1.0000000045, 1.0000000055,  # 9th-digit ties
    1e22, 1e23, 1e100, 1e-100, -1e100, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-14, 9.999999999999e-15, 1e31, 9.99999999e30,  # the fast path's exponent range
    float("nan"), -float("nan"), float("inf"), float("-inf"), 1.0, -1.0, 0.1, 25e-6, 60e3,
]


@functools.cache
def _g9_tables() -> dict[str, np.ndarray]:
    """The lookup tables of ``format_g9``, built on first use.

    A ``%.9g`` slot is uint64 words: ``",-0.000"`` and the leading digit,
    then the other eight digits each behind a ``"."`` (``".d.d.d.d"``
    twice), then the exponent (``"e+dd"``).  A value keeps the bytes its
    text needs and zeroes the rest, by masks that depend on its sign,
    ``cls`` and ``nd``: ``cls`` is ``e + 4`` for the fixed notation of
    -4 <= e <= 8 and 13 for the exponent notation, and ``nd`` in 1..9
    counts the mantissa digits left when trailing zeros are dropped.
    """
    exps = np.arange(_G9_E0, 33)
    cls_of = np.where((exps >= -4) & (exps <= 8), exps + 4, 13)
    v = np.arange(10_000)
    # ".d.d.d.d" for each 4-digit group
    dotted = np.full((10_000, 8), ord("."), np.uint8)
    dotted[:, 1::2] = v[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    # a 4-digit group's trailing zeros, 4 for 0000
    tz = (v % 10 == 0).astype(np.int32) + (v % 100 == 0) + (v % 1000 == 0) + (v == 0)

    cls = np.arange(14)[:, None]
    nd = np.arange(1, 10)[None, :]
    fixed, e = cls < 13, cls - 4
    # word 0 by d0 + 10 * (neg + 2 * cls): ",", "-" when negative, "0." and
    # -e-1 zeros in fixed notation below 1, then the leading digit d0
    head = np.zeros((14, 2, 10, 8), np.uint8)
    head[..., 0] = ord(",")
    head[:, 1, :, 1] = ord("-")
    small = (fixed & (e < 0))[:, 0, None, None]
    head[..., 2:4] = np.where(small[..., None], np.frombuffer(b"0.", np.uint8), 0)
    for z in range(3):
        head[..., 4 + z] = np.where(small & (z < -e[:, 0, None, None] - 1), ord("0"), 0)
    head[..., 7] = ord("0") + np.arange(10)
    # words 1 and 2 by cls * 9 + nd - 1: digit j (j >= 1) is byte 2j - 1 of
    # the pair and the "." after digit j byte 2j
    keep = np.zeros((14, 9, 16), bool)
    for j in range(9):
        if j:
            keep[..., 2 * j - 1] = (nd > j) | (fixed & (e >= j))
        if j < 8:
            keep[..., 2 * j] = (fixed & (e == j) & (nd > j + 1)) | ((j == 0) & ~fixed & (nd > 1))
    keep = np.where(keep, 0xFF, 0).astype(np.uint8)
    # word 3 by exponent: "e", its sign and two digits, or nothing in fixed notation
    tail = np.zeros((len(exps), 8), np.uint8)
    sci = cls_of == 13
    tail[sci, 0] = ord("e")
    tail[sci, 1] = np.where(exps[sci] < 0, ord("-"), ord("+"))
    tail[sci, 2] = ord("0") + abs(exps[sci]) // 10
    tail[sci, 3] = ord("0") + abs(exps[sci]) % 10

    def words(a: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(a).view(np.uint64).ravel()

    return {
        "dotted": words(dotted),
        "tz": tz,
        "head": words(head),
        "keep1": words(keep[..., :8]),
        "keep2": words(keep[..., 8:]),
        # by exponent
        "tail": words(tail),
        "head_at": (20 * cls_of).astype(np.int32),
        "keep_at": (9 * cls_of + 8).astype(np.int32),
        # s = |x| * mul / div, one exact power of ten each (10**k, k <= 22,
        # is exact in binary64; the powers beyond serve no fast-path value)
        "mul": np.array([float(10 ** max(8 - k, 0)) for k in exps.tolist()]),
        "div": np.array([float(10 ** max(k - 8, 0)) for k in exps.tolist()]),
    }


def format_g9(x: np.ndarray) -> np.ndarray:
    """``'%.9g' % v`` for each float64 ``v`` of ``x`` as ``(x.size, 32)``
    uint8 slots, ``(x.size, 24)`` when no value needs exponent notation:
    ``","`` and the text, with NULs between and after.  Byte-identical to
    Python.

    With ``e`` the decimal exponent of ``|v|``, the scaled value
    ``s = |v|·10**(8-e)`` is one correctly rounded multiply or divide by a
    power of ten exact in binary64 (``|8 - e| <= 22``).  So it is within
    half an ulp (< 6e-8) of the exact product, and ``rint(s)`` is Python's
    correctly rounded 9-digit mantissa unless ``frac(s)`` lies within
    ``_G9_TIE`` of 0.5.  Those possible ties, exponents outside
    ``_G9_EXP``, zeros, subnormals and non-finite values are formatted by
    Python's ``%``, one at a time.
    """
    tab = _g9_tables()
    x = np.ravel(x)
    a = np.abs(x)
    ok = (a >= 10.0 ** _G9_EXP[0]) & (a < 10.0 ** (_G9_EXP[1] + 1))  # NaN fails both
    if not ok.all():
        a = np.where(ok, a, 1.0)
    # e - _G9_E0, the index of the exponent tables
    ei = np.floor(np.log10(a)).astype(np.int32) - _G9_E0
    s = a * tab["mul"].take(ei) / tab["div"].take(ei)
    # log10 may miss by one next to a power of ten
    if s.min() < 1e8 or s.max() >= 1e9:
        ei += (s >= 1e9).astype(np.int32) - (s < 1e8)
        s = a * tab["mul"].take(ei) / tab["div"].take(ei)
        # s just under 1e8 after a step up is a mantissa rounding up to 1e8
        ok &= (s >= 1e8 - 1e-6) & (s < 1e9)
    ok &= (ei >= _G9_EXP[0] - _G9_E0) & (ei <= _G9_EXP[1] - _G9_E0)
    if not ok.all():
        s = np.where(ok, s, 1e8)
    r = np.rint(s)
    ok &= np.abs(s - r) < 0.5 - _G9_TIE
    m = r.astype(np.int32)
    carry = m == 1_000_000_000  # 9.9999999995 -> 10
    m[carry] = 100_000_000
    ei += carry
    hi = m // 10_000
    lo = m - hi * 10_000
    d0 = hi // 10_000
    mid = hi - d0 * 10_000
    tz = tab["tz"]
    kept = tab["keep_at"].take(ei) - tz.take(lo) - (lo == 0) * tz.take(mid)
    tail = tab["tail"].take(ei)
    # a block without exponent notation leaves the last word out
    slots = np.empty((x.size, 4 if tail.any() else 3), np.uint64)
    slots[:, 0] = tab["head"].take(tab["head_at"].take(ei) + 10 * np.signbit(x) + d0)
    slots[:, 1] = tab["dotted"].take(mid) & tab["keep1"].take(kept)
    slots[:, 2] = tab["dotted"].take(lo) & tab["keep2"].take(kept)
    if slots.shape[1] == 4:
        slots[:, 3] = tail
    text = slots.view(np.uint8)
    for i in np.flatnonzero(~ok).tolist():
        text[i] = np.frombuffer((b",%.9g" % x[i]).ljust(text.shape[1], b"\0"), np.uint8)
    return text


def format_d(v: np.ndarray) -> np.ndarray:
    """``'%d' % k`` for each value of ``v`` as ``(v.size, w)`` uint8 slots:
    ``","``, the text, then NULs.  Each distinct value is formatted once: an
    integer array spanning fewer values than it holds through a table over
    its range, anything else through ``np.unique``."""
    v = np.ravel(v)
    if v.size and np.can_cast(v.dtype, np.intp) and int(v.max()) - int(v.min()) < v.size:
        lo = int(v.min())
        values, index = range(lo, int(v.max()) + 1), v.astype(np.intp) - lo
    else:
        values, index = np.unique(v, return_inverse=True)
        values = values.tolist()
    texts = [b",%d" % k for k in values]
    width = max(map(len, texts), default=1)
    table = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint8)
    return table.reshape(-1, width).take(index, axis=0)


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
    want = b"".join(b"%.9g,x,%d\r\n" % row for row in zip(floats.tolist(), ints.tolist()))
    got = _c_writer(lib, [("f", 0, 1), b"x", ("d", 0, 1)], 1, 1, floats.size)(floats[:, None], ints[:, None])
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


def _numpy_writer(pieces: list[Any]) -> Callable[..., bytes]:
    """A block's text by ``format_g9`` and ``format_d``, from its float and
    integer blocks."""
    # the pieces, each text with the "," before it, and the row end
    parts = [b"," + p if isinstance(p, bytes) else p for p in pieces] + [b"\r\n"]

    def write(floats: np.ndarray | None, ints: np.ndarray | None) -> bytes:
        rows = len(floats if floats is not None else ints)
        slots = {
            kind: format_(block).reshape(rows, block.shape[1], -1)
            for kind, format_, block in (("f", format_g9, floats), ("d", format_d, ints))
            if block is not None
        }
        matrix = np.concatenate(
            [
                np.broadcast_to(np.frombuffer(p, np.uint8), (rows, len(p)))
                if isinstance(p, bytes)
                else slots[p[0]][:, p[1] : p[2]].reshape(rows, -1)
                for p in parts
            ],
            axis=1,
        )
        matrix[:, 0] = 0  # the first field's ","
        return matrix.tobytes().translate(None, b"\0")

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
    library of ``mmcsim.kernel`` when there is one, else by ``format_g9``
    and ``format_d``, which give the same bytes.  Returns the row count."""
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
        write, int_dtype = _c_writer(lib, pieces, nf, nd, min(rows, BLOCK_ROWS)), np.int64
    else:
        # the integer columns' common dtype, or objects where none holds
        # them all: numpy promotes uint64 beside a signed dtype to float64
        int_dtype = np.result_type(np.int8, *(heads[k] for k in blocks["d"]))
        if int_dtype.kind == "f":
            int_dtype = np.dtype(object)
        write = _numpy_writer(pieces)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, rows)
            floats, ints = (
                np.concatenate(
                    [np.reshape(columns[k][start:stop], (stop - start, -1)) for k in blocks[kind]],
                    axis=1, dtype=dtype,
                ) if blocks[kind] else None
                for kind, dtype in (("f", np.float64), ("d", int_dtype))
            )
            fh.write(write(floats, ints))
    return rows
