"""CSV and JSON emission with full precision and a config provenance line.

Every file starts with (CSV) or embeds (JSON) the exact configuration that
produced it, so outputs are self-describing and reruns are comparable.
Floats are written with 17 significant digits, enough to round-trip a
double exactly. CSV rows are formatted in blocks of about BLOCK_CELLS
values, one %-format per block; the bytes are the same as formatting each
cell on its own with fmt. Files that share a time column, such as
simulate's P_ab, P_bb and F series, are written together by
write_series_csvs, which formats each block of times once for all of them;
their bytes are unchanged.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .classical import ProbabilitySeries
from .quantum import AmplitudeSeries

# Cells per formatting block: bounds the transient lists and strings of a
# block whatever the column count.
BLOCK_CELLS = 1 << 17


def fmt(x: float) -> str:
    return f"{x:.17g}"


def config_line(config: Mapping[str, Any]) -> str:
    parts = " ".join(f"{k}={config[k]}" for k in sorted(config))
    return f"# config: {parts}"


def write_columns_csv(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[np.ndarray],
    config: Mapping[str, Any],
) -> None:
    """Write equal-length columns under the given header names."""
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns have unequal lengths {sorted(lengths)}")
    rows = len(columns[0])
    step = max(1, BLOCK_CELLS // len(columns))
    # "%.17g" % x and fmt(x) give the same digits for every double
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(config_line(config) + "\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows, step):
            block = np.column_stack(
                [np.asarray(c[lo:lo + step], dtype=np.float64) for c in columns]
            )
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_series_csvs(
    times: np.ndarray,
    files: Sequence[tuple[str | Path, str, np.ndarray]],
    config: Mapping[str, Any],
) -> None:
    """Write one t,<name> file per (path, name, values), all on the same times.

    The bytes of each file are those of write_columns_csv(path, ["t", name],
    [times, values], config). Each block's t values are formatted once, as
    "%.17g," row prefixes that every file's block then reuses.
    """
    rows = len(times)
    for path, _, values in files:
        if len(values) != rows:
            raise ValueError(f"{path}: {len(values)} values for {rows} times")
    step = max(1, BLOCK_CELLS // 2)
    with ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w")) for path, _, _ in files]
        for fh, (_, name, _) in zip(handles, files):
            fh.write(f"{config_line(config)}\nt,{name}\n")
        for lo in range(0, rows, step):
            t = np.asarray(times[lo:lo + step], dtype=np.float64).tolist()
            n = len(t)
            # "%.17g" prints no line break, so the split gives n prefixes
            cells: list[Any] = [None] * (2 * n)
            cells[0::2] = (("%.17g,\n" * n) % tuple(t)).splitlines()
            row = "%s%.17g\n" * n
            for fh, (_, _, values) in zip(handles, files):
                cells[1::2] = np.asarray(values[lo:lo + step], dtype=np.float64).tolist()
                fh.write(row % tuple(cells))


def write_probability_series_csv(
    path: str | Path, series: ProbabilitySeries, config: Mapping[str, Any]
) -> None:
    """Header t,p1,...,pn; one row per grid point."""
    n = series.values.shape[1]
    header = ["t"] + [f"p{v}" for v in range(1, n + 1)]
    cols = [series.grid.times] + [series.values[:, v] for v in range(n)]
    write_columns_csv(path, header, cols, config)


def write_amplitude_series_csv(
    path: str | Path, series: AmplitudeSeries, config: Mapping[str, Any]
) -> None:
    """Header t,re_psi1,im_psi1,...; one row per grid point."""
    n = series.values.shape[1]
    header = ["t"]
    cols: list[np.ndarray] = [series.grid.times]
    for v in range(n):
        header += [f"re_psi{v + 1}", f"im_psi{v + 1}"]
        cols += [series.values[:, v].real, series.values[:, v].imag]
    write_columns_csv(path, header, cols, config)


def write_occupation_csv(
    path: str | Path, series: AmplitudeSeries, config: Mapping[str, Any]
) -> None:
    """Header t,P1,...,Pn with occupation probabilities."""
    n = series.values.shape[1]
    header = ["t"] + [f"P{v}" for v in range(1, n + 1)]
    probs = np.abs(series.values) ** 2
    cols = [series.grid.times] + [probs[:, v] for v in range(n)]
    write_columns_csv(path, header, cols, config)


def write_json(path: str | Path, payload: Mapping[str, Any], config: Mapping[str, Any]) -> None:
    doc = {"config": dict(config)}
    doc.update(payload)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_jsonl(path: str | Path, rows: Sequence[Mapping[str, Any]]) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
