"""CSV and JSON emission with full precision and a config provenance line.

Every file starts with (CSV) or embeds (JSON) the exact configuration that
produced it, so outputs are self-describing and reruns are comparable.
Floats are written with 17 significant digits, enough to round-trip a
double exactly: each CSV cell holds the bytes of "%.17g" % float(x), as
fmt(x) does. CSV rows are encoded in blocks of about BLOCK_CELLS values by
a vectorised encoder. For finite x with 1e-280 <= |x| < 1e281 it scales |x|
into [1e16, 1e17) by a power of ten as a double-double (Dekker's exact
product against a two-double table of 10**k), which is within 1e-13 of the
exact value, rounds that half to even to 17 digits and lays out %g's fixed
or exponent notation with numpy byte operations. Zeros, infinities, nans,
values outside that range and values whose scaled fraction lies within
1e-6 of a half, where the rounding is not certain, are formatted by "%"
itself. Where at least half of a block's values repeat the value before
them, only the head of each run of bit-identical values is encoded, and
its bytes are repeated over the run; the bits decide, as 0.0 and -0.0
print apart. The classical P_ab and P_bb sit on their stationary value to
the bit over the later half of their grid. write_csvs, the one block writer, writes
one or more files together, and encodes a column that several of them
share, such as the time column of simulate's P_ab, P_bb and F series, once
per block, and lays its bytes out row by row once for all of them. A
column is anything that slices to an array; a grid.LazyRow is evaluated
only block by block, where it is sliced. The three per-vertex writers own
their file formats and write the rows of a walk's all-vertex grid.ModeSum
as LazyRows, so no --full-series holds an (n_times, n) array. The blocks
are encoded by parallel.in_turns, on every CPU in the affinity mask: the
files are opened unbuffered and get their headers before any process
forks, so every process shares their offsets, and each process writes
the blocks it encodes in its turn. The bytes do not depend on the worker
count, and no encoded byte crosses a process boundary.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from functools import cache
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .grid import ModeSum, TimeGrid
from .parallel import in_turns

# Cells per encoding block: bounds the transient arrays and bytes of a
# block whatever the column count.
BLOCK_CELLS = 1 << 17
# Values per call of the encoder. On a 2-vCPU x86-64 host, against calls of
# 2**16 values, calls of 2**18 (four 65,536-row columns at once) took 1.4
# times as long per value, their temporaries leaving the cache, and calls of
# 2,849 (one column of a 46-column block) 1.3 times, numpy's per-call cost
# adding up
ENCODE_CELLS = 1 << 16


def fmt(x: float) -> str:
    return f"{x:.17g}"


def config_line(config: Mapping[str, Any]) -> str:
    parts = " ".join(f"{k}={config[k]}" for k in sorted(config))
    return f"# config: {parts}"


# The "%.17g" encoder. _cells lays each value out in _CELL byte slots, with
# a 0 in every slot that prints nothing:
#   0      "-" of a negative value
#   1-5    "0." and up to three zeros, in fixed notation below 1
#   6-23   the 17 digits, trailing zeros dropped, with "." inserted
#   24-28  "e", the exponent's sign and its two or three digits
_CELL = 29
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
# The fast path's range; the powers 10**k it scales by, with one step of
# exponent correction either way.
_FAST_MIN, _FAST_MAX = 1e-280, 1e281
_POW_MIN, _POW_MAX = -266, 298
# Half-way cases closer than this are handed to "%": the scaled value's
# error is below 1e-13.
_TIE_MARGIN = 1e-6


@cache
def _pow10() -> np.ndarray:
    """Rows hi, hi_head, hi_tail, lo over k = _POW_MIN.._POW_MAX.

    hi + lo is 10**k to about 2**-106 relative; hi_head + hi_tail is Dekker's
    split of hi. Built from exact ints, whose true division rounds correctly.
    """
    table = np.empty((4, _POW_MAX - _POW_MIN + 1))
    for i, k in enumerate(range(_POW_MIN, _POW_MAX + 1)):
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            den = 10**-k
            hi = 1 / den
            num, scale = hi.as_integer_ratio()
            lo = (scale - num * den) / (scale * den)
        head = _SPLIT * hi - (_SPLIT * hi - hi)
        table[:, i] = hi, head, hi - head, lo
    return table


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ax * 10**(16 - e) as a double-double s + s_lo (Dekker's TwoProduct)."""
    hi, head, tail, lo = np.take(_pow10(), 16 - _POW_MIN - e, axis=1)
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    p = ax * hi
    t = ((((ah * head - p) + ah * tail) + al * head) + al * tail) + ax * lo
    s = p + t
    return s, t - (s - p)


def _outside(s: np.ndarray, s_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether s + s_lo is below 1e16, and whether it is 1e17 or more."""
    return ((s < 1e16) | ((s == 1e16) & (s_lo < 0)),
            (s > 1e17) | ((s == 1e17) & (s_lo >= 0)))


def _round17(s: np.ndarray, s_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round s + s_lo in [1e16, 1e17) half to even: the 17-digit integers D,
    whether D carried into 1e17 (then D is 1e16 and the exponent rises by
    one), and whether the rounding is certain (not within _TIE_MARGIN of a
    half). s is an integer there, so only s_lo has a fraction."""
    whole = np.floor(s_lo)
    frac = s_lo - whole
    d = s.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d -= carry * (9 * 10**16)
    return d, carry, np.abs(frac - 0.5) >= _TIE_MARGIN


def _fallback(values: np.ndarray) -> np.ndarray:
    """Rows of _CELL bytes of "%.17g" % x for the values the fast path skips."""
    text = b"".join(("%.17g" % x).encode().ljust(_CELL, b"\0") for x in values.tolist())
    return np.frombuffer(text, np.uint8).reshape(len(values), _CELL)


def _cells(values: np.ndarray) -> np.ndarray:
    """The (_CELL, n) slot bytes of "%.17g" % float(x) for each value x.

    Finite x with _FAST_MIN <= |x| < _FAST_MAX take the fast path: with
    e = floor(log10|x|), S = |x| * 10**(16 - e) lies in [1e16, 1e17), and
    rounding S half to even gives the 17 digits D. S is a double-double
    within 1e-13 of exact, so D is certain unless S is within _TIE_MARGIN
    of a half. The other values, and those near a half, go to _fallback.
    """
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    u8 = np.uint8
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax < _FAST_MAX)
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    s, s_lo = _scaled(ax, e)
    # log10 can be one off next to a power of ten
    low, high = _outside(s, s_lo)
    off = np.flatnonzero(low | high)
    if len(off):
        e[off] += high[off].astype(np.int64) - low[off]
        s[off], s_lo[off] = _scaled(ax[off], e[off])
        fast[off] &= ~np.logical_or(*_outside(s[off], s_lo[off]))
    d, carry, certain = _round17(s, s_lo)
    e += carry
    fast &= certain

    # digits[1 + j] is digit j; rows 0 and 18 pad the shifted views below
    digits = np.empty((19, n), u8)
    hi = (d // 10**8).astype(np.uint32)
    halves = np.stack([hi % 10**8, (d - hi.astype(np.int64) * 10**8).astype(np.uint32)])
    digits[1] = hi // 10**8
    by_half = digits[2:18].reshape(2, 8, n)
    for j in range(7, -1, -1):
        rest = halves // 10
        by_half[:, j] = halves - rest * 10
        halves = rest
    significant = np.full(n, 17, u8)
    tail = np.ones(n, bool)
    for row in digits[17:1:-1]:
        tail &= row == 0
        significant -= tail.view(u8)
    digits[1:18] += 48
    digits[0] = digits[18] = 48

    e = e.astype(np.int16)
    expo = (e < -4) | (e >= 17)
    small = ~expo & (e < 0)
    fixed = ~expo & (e >= 0)
    out = np.empty((_CELL, n), u8)
    out[0] = np.signbit(x).view(u8) * 45
    out[1] = small.view(u8) * 48
    out[2] = small.view(u8) * 46
    lead = (small * (-1 - e)).astype(u8)
    out[3:6] = (np.arange(3, dtype=u8)[:, None] < lead).view(u8) * 48
    # digit k before the point, "." at k == point, digit k - 1 after it
    width = np.maximum(significant, (fixed * (e + 1)).astype(u8))
    point = (1 + fixed * e + small * 17).astype(u8)
    width += point < width
    k = np.arange(18, dtype=u8)[:, None]
    mant = out[6:24]
    np.subtract(digits[1:], digits[:-1], out=mant)
    mant *= (k < point).view(u8)
    mant += digits[:-1]
    mant += (k == point).view(u8) * (46 - mant)
    mant *= (k < width).view(u8)
    ae = np.abs(e)
    ev = expo.view(u8)
    out[24] = ev * 101
    out[25] = ev * (43 + 2 * (e < 0).view(u8))
    out[26] = (expo & (ae >= 100)).view(u8) * (48 + ae // 100)
    out[27] = ev * (48 + ae // 10 % 10)
    out[28] = ev * (48 + ae % 10)

    slow = np.flatnonzero(~fast)
    if len(slow):
        out[:, slow] = _fallback(x[slow]).T
    return out


def _encoded(values: np.ndarray) -> np.ndarray:
    """The (n, width) bytes of each value's _cells, less the slots none prints.

    Where at least half the values repeat the one before them, only the
    head of each run of bit-identical values is encoded, and its bytes are
    repeated over the run, row-major. The bits decide, since 0.0 and -0.0
    compare equal but print apart. Other blocks are encoded whole: there
    the run path saves little, and its temporaries, a little short of a
    whole block's, fit none of the holes whole blocks leave in the heap.
    """
    bits = values.view(np.int64)
    head = np.concatenate([[True], bits[1:] != bits[:-1]])
    if 2 * np.count_nonzero(head) > len(values):
        cells = _cells(values)
        return cells[cells.any(axis=1)].T
    heads = np.flatnonzero(head)
    cells = _cells(values[heads])
    run = np.diff(heads, append=len(values))
    return np.repeat(cells[cells.any(axis=1)].T, run, axis=0)


def _rows(columns: Sequence[np.ndarray]) -> bytes:
    """CSV rows from _encoded columns: "," between cells, "\n" after a row."""
    widths = [c.shape[1] + 1 for c in columns]
    out = np.empty((len(columns[0]), sum(widths)), np.uint8)
    end = 0
    for cells, width in zip(columns, widths):
        out[:, end:end + width - 1] = cells
        end += width
        out[:, end - 1] = 44
    out[:, -1] = 10
    return out.tobytes().translate(None, b"\0")


def _block(columns: Sequence[np.ndarray], layout: Sequence[Sequence[int]], step: int,
           lo: int) -> list[bytes]:
    """Rows lo to lo + step of each file, encoded.

    Each distinct column is encoded once, in calls of about ENCODE_CELLS
    values; layout[i] lists the indices into columns of file i's columns.
    """
    per_call = max(1, ENCODE_CELLS // step)
    cells: list[np.ndarray] = []
    for first in range(0, len(columns), per_call):
        group = columns[first:first + per_call]
        block = np.concatenate([np.asarray(c[lo:lo + step], dtype=np.float64) for c in group])
        cells += np.split(_encoded(block), len(group))
    # _rows copies each column into every file that lists it: lay a shared
    # one out row-major once, not read it across the grain each time
    uses = np.bincount([j for file in layout for j in file], minlength=len(columns))
    cells = [np.ascontiguousarray(c) if n > 1 else c for c, n in zip(cells, uses)]
    return [_rows([cells[j] for j in file]) for file in layout]


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def write_csvs(
    files: Sequence[tuple[str | Path, Sequence[str], Sequence[np.ndarray]]],
    config: Mapping[str, Any],
) -> None:
    """Write one CSV per (path, header, columns): equal-length columns under the header names.

    A column array named in several files, the same object, is encoded once
    per block for all of them. Every column of every file must have the
    same length; nothing is written otherwise.
    """
    lengths = {len(c) for _, _, cols in files for c in cols}
    if len(lengths) != 1:
        raise ValueError(f"columns have unequal lengths {sorted(lengths)}")
    columns = list({id(c): c for _, _, cols in files for c in cols}.values())
    index = {id(c): j for j, c in enumerate(columns)}
    layout = [[index[id(c)] for c in cols] for _, _, cols in files]
    step = max(1, BLOCK_CELLS // max(len(cols) for _, _, cols in files))
    blocks = range(0, lengths.pop(), step)
    with ExitStack() as stack:
        fds = [stack.enter_context(open(path, "wb", buffering=0)).fileno() for path, _, _ in files]
        for fd, (_, header, _) in zip(fds, files):
            _write_all(fd, f"{config_line(config)}\n{','.join(header)}\n".encode())

        def emit(chunks: list[bytes]) -> None:
            for fd, chunk in zip(fds, chunks):
                _write_all(fd, chunk)

        in_turns(lambda lo: _block(columns, layout, step, lo), blocks, emit)


def write_columns_csv(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[np.ndarray],
    config: Mapping[str, Any],
) -> None:
    """Write equal-length columns under the given header names."""
    write_csvs([(path, header, columns)], config)


def write_probability_series_csv(
    path: str | Path, series: ModeSum, grid: TimeGrid, config: Mapping[str, Any]
) -> None:
    """Header t,p1,...,pn: row v - 1 of series as column pv, one row per grid point."""
    n = series.coefs.shape[0]
    header = ["t"] + [f"p{v}" for v in range(1, n + 1)]
    cols = [grid.lazy_times()] + [series.row(i) for i in range(n)]
    write_columns_csv(path, header, cols, config)


def write_amplitude_series_csv(
    path: str | Path, series: ModeSum, grid: TimeGrid, config: Mapping[str, Any]
) -> None:
    """Header t,re_psi1,im_psi1,...: the amplitude rows of series, one row per grid point."""
    header = ["t"]
    cols = [grid.lazy_times()]
    for i in range(series.coefs.shape[0]):
        header += [f"re_psi{i + 1}", f"im_psi{i + 1}"]
        cols += [series.row(i, np.real), series.row(i, np.imag)]
    write_columns_csv(path, header, cols, config)


def write_occupation_csv(
    path: str | Path, series: ModeSum, grid: TimeGrid, config: Mapping[str, Any]
) -> None:
    """Header t,P1,...,Pn: the occupation probabilities |psi|^2 of the amplitude rows of series."""
    n = series.coefs.shape[0]
    header = ["t"] + [f"P{v}" for v in range(1, n + 1)]
    cols = [grid.lazy_times()] + [series.row(i, lambda z: np.abs(z) ** 2) for i in range(n)]
    write_columns_csv(path, header, cols, config)


def write_json(path: str | Path, payload: Mapping[str, Any], config: Mapping[str, Any]) -> None:
    doc = {"config": dict(config)}
    doc.update(payload)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_jsonl(path: str | Path, rows: Sequence[Mapping[str, Any]]) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
