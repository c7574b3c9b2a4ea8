import errno
import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctwalk import TimeGrid, build_rate_matrix, evolve_master, io, parallel, path_graph
from ctwalk.io import (
    config_line,
    fmt,
    write_columns_csv,
    write_json,
    write_jsonl,
    write_csvs,
    write_probability_series_csv,
)


def test_floats_round_trip_exactly():
    for x in (1 / 3, np.pi, 1e-300, -2.5, 0.1 + 0.2):
        assert float(fmt(x)) == x


def _encode(values):
    """Each value's string from the vectorised encoder."""
    cells = io._cells(np.asarray(values))
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in cells.T]


def _percent(values):
    return ["%.17g" % float(x) for x in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=50))
def test_encoder_matches_percent_on_any_bit_pattern(bits):
    # uniform over the bits: subnormals, +-0, +-inf and nans included
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _encode(values) == _percent(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(width=64), max_size=50),
       st.lists(st.floats(width=32), max_size=20),
       st.lists(st.integers(-2**63, 2**63 - 1), max_size=20))
def test_encoder_matches_percent_on_any_dtype(doubles, singles, ints):
    for values in (np.array(doubles, dtype=np.float64), np.array(singles, dtype=np.float32),
                   np.array(ints, dtype=np.int64)):
        assert _encode(values) == _percent(values), values.dtype


def test_encoder_matches_percent_at_powers_of_ten():
    powers = np.array([10.0**k for k in range(-300, 301)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert _encode(values) == _percent(values)
    assert _encode(-values) == _percent(-values)


def test_encoder_switches_notation_where_percent_does():
    edges = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    assert _encode(values) == _percent(values)
    assert _encode([1e-4, 1e-5, 1e16, 1e17]) == [
        "0.0001", "1.0000000000000001e-05", "10000000000000000", "1e+17"]


def test_encoder_corrects_the_exponent_below_a_power_of_ten():
    # log10 rounds these up to the next power's exponent
    values = [1e23, 1e-280, 1e-14]
    assert list(np.floor(np.log10(values))) == [23, -280, -14]
    assert _encode(values) == ["9.9999999999999992e+22", "9.9999999999999996e-281", "1e-14"]


def test_rounding_carries_into_the_next_decade():
    # 1e17 - 0.25 rounds to 1e17: the digits become 1e16 and the exponent rises
    s = np.array([1e17, 1e17 - 16, 1e16, 1e16])
    s_lo = np.array([-0.25, 8.0, 0.75, 0.5])
    d, carry, certain = io._round17(s, s_lo)
    assert d.tolist() == [10**16, 10**17 - 8, 10**16 + 1, 10**16]
    assert carry.tolist() == [True, False, False, False]
    assert certain.tolist() == [True, True, True, False]


@pytest.fixture
def fallback_values(monkeypatch):
    """Every value the encoder hands to its "%" fallback, in order."""
    seen = []
    fallback = io._fallback

    def counting(values):
        seen.extend(values.tolist())
        return fallback(values)

    monkeypatch.setattr(io, "_fallback", counting)
    return seen


def test_exact_ties_go_to_the_fallback(fallback_values):
    # n / 4 with n odd in [4e15, 9e15) has 18 significant digits, the last a 5
    ties = np.array([1000000000000000.25, 1000000000000000.75, -2000000000000001.25])
    assert _encode(ties) == _percent(ties) == [
        "1000000000000000.2", "1000000000000000.8", "-2000000000000001.2"]
    assert fallback_values == ties.tolist()


def _distance_from_half(x):
    """|frac(S) - 1/2| for S = |x| * 10**(16 - e), in exact rational arithmetic."""
    num, den = abs(x).as_integer_ratio()
    k = 16 - int(("%.16e" % x).split("e")[1])
    num, den = (num * 10**k, den) if k >= 0 else (num, den * 10**-k)
    return abs(Fraction(num % den, den) - Fraction(1, 2))


def test_random_values_reach_the_fallback_only_as_zeros_or_near_ties(fallback_values):
    rng = np.random.default_rng(14)
    values = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    values = values[(np.abs(values) >= 1e-280) & (np.abs(values) < 1e281)]
    values[::1000] = 0.0
    assert _encode(values) == _percent(values)
    # apart from the zeros, only values whose rounding is a tie or within
    # the margin of one reach the fallback: exact ties are common among
    # doubles between 1e14 and 1e17, whose scaled values have few fraction bits
    zeros = [x for x in fallback_values if x == 0]
    assert len(zeros) == len(values[::1000])
    assert all(_distance_from_half(x) < Fraction(1, 10**6) for x in fallback_values if x != 0)


def test_config_line_is_sorted_and_prefixed():
    line = config_line({"b": 2, "a": 1})
    assert line == "# config: a=1 b=2"


def test_columns_csv_layout(tmp_path):
    path = tmp_path / "series.csv"
    write_columns_csv(path, ["t", "x"], [np.array([0.0, 0.5]), np.array([1.0, 2.0])],
                      {"N": 9})
    lines = path.read_text().splitlines()
    assert lines[0] == "# config: N=9"
    assert lines[1] == "t,x"
    assert lines[2].split(",") == ["0", "1"]
    assert len(lines) == 4


def test_columns_csv_rejects_ragged(tmp_path):
    with pytest.raises(ValueError):
        write_columns_csv(tmp_path / "bad.csv", ["a", "b"],
                          [np.zeros(3), np.zeros(2)], {})
    assert not (tmp_path / "bad.csv").exists()


def _per_cell_reference(header, columns, config):
    """The writer's output formatted one cell at a time with fmt."""
    lines = [config_line(config), ",".join(header)]
    lines += [",".join(fmt(float(c[i])) for c in columns) for i in range(len(columns[0]))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("blocks,extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 1)],
                         ids=["header-only", "1", "block-1", "block", "block+1", "3block+1"])
@pytest.mark.parametrize("width", [2, 7, 11])
def test_columns_csv_matches_per_cell_format(tmp_path, monkeypatch, blocks, extra, width):
    monkeypatch.setattr(io, "BLOCK_CELLS", 32)
    rows = blocks * (32 // width) + extra  # 16, 4 and 2 rows per block
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308,
                        -1.7976931348623157e308, 2.2250738585072014e-308, 3.0, -12.0,
                        1e16, 1e17, 0.01, 0.03, 0.1 + 0.2, 1 / 3])
    rng = np.random.default_rng([rows, width])
    bits = rng.integers(0, 2**64, size=rows, dtype=np.uint64).view(np.float64)
    cplx = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    pool = [
        np.resize(special, rows),
        bits,
        np.arange(rows),  # int column
        rng.normal(size=rows).astype(np.float32),
        cplx.real,  # strided views
        cplx.imag,
        np.arange(rows) * 0.01,
    ]
    columns = [pool[j % len(pool)] for j in range(width)]
    header = [f"c{j}" for j in range(width)]
    config = {"N": 9, "walk": "quantum"}
    path = tmp_path / "block.csv"
    write_columns_csv(path, header, columns, config)
    assert path.read_text() == _per_cell_reference(header, columns, config)


@pytest.mark.parametrize("rows", [0, 1, 15, 16, 17, 49],
                         ids=["header-only", "1", "block-1", "block", "block+1", "3block+1"])
def test_series_csvs_match_columns_writer(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(io, "BLOCK_CELLS", 32)  # 16 rows per block
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308,
                        -1e308, 2.2250738585072014e-308, -2.225073858507201e-308,
                        1.7976931348623157e308, 3.0, 0.1 + 0.2, 1 / 3])
    rng = np.random.default_rng(rows)
    times = np.arange(rows) * 0.01
    bits = rng.integers(0, 2**64, size=rows, dtype=np.uint64).view(np.float64)
    cplx = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    files = [
        (tmp_path / "special.csv", ["t", "P"], [times, np.resize(special, rows)]),
        (tmp_path / "bits.csv", ["t", "P"], [times, bits]),
        (tmp_path / "F.csv", ["t", "F"], [times, cplx.imag]),  # strided view
        # the widest file sets the block length for all of them
        (tmp_path / "wide.csv", ["t", "P", "F"], [times, bits, cplx.imag]),
    ]
    config = {"N": 9, "walk": "classical"}
    write_csvs(files, config)
    for path, header, columns in files:
        expected = _per_cell_reference(header, columns, config)
        assert path.read_text() == expected, path.name
        ref = tmp_path / "ref.csv"
        write_columns_csv(ref, header, columns, config)
        assert path.read_bytes() == ref.read_bytes(), path.name


# nans whose payloads and signs differ: "%" prints every one as "nan"
NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                 0x7FF0000000000001], dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize("column", [
    np.repeat([0.1, 0.2, 1 / 3, 7.0], [10, 20, 33, 1]),  # runs over rows 16, 32 and 48
    np.repeat([1.5, 2.5, 3.5], [16, 16, 5]),  # runs that start a block
    np.repeat(np.resize([0.0, -0.0], 10), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
    np.repeat([np.inf, -np.inf, np.inf, 1.0, -np.inf], [5, 17, 2, 3, 20]),
    np.repeat(NANS, [4, 9, 20, 6]),
    np.full(50, 1 / 88),
], ids=["across-blocks", "starts-block", "signed-zeros", "infinities", "nan-payloads",
        "constant"])
@pytest.mark.parametrize("encode_cells", [16, io.ENCODE_CELLS], ids=["apart", "together"])
def test_runs_of_one_value_match_per_cell_format(tmp_path, monkeypatch, column, encode_cells):
    monkeypatch.setattr(io, "BLOCK_CELLS", 32)  # 16 rows per block
    # one column per encoder call, or both distinct columns in one
    monkeypatch.setattr(io, "ENCODE_CELLS", encode_cells)
    times = np.arange(len(column)) * 0.01
    # every file lists the column with the runs; two list the time column too
    files = [(tmp_path / "a.csv", ["t", "x"], [times, column]),
             (tmp_path / "b.csv", ["x", "t"], [column, times]),
             (tmp_path / "c.csv", ["x"], [column])]
    config = {"N": 9, "walk": "classical"}
    write_csvs(files, config)
    for path, header, columns in files:
        assert path.read_text() == _per_cell_reference(header, columns, config), path.name


def test_only_the_head_of_each_run_is_encoded(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "BLOCK_CELLS", 32)  # 32 rows per block
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # _cells runs in this process
    seen = []
    cells = io._cells

    def counting(values):
        seen.extend(values.tolist())
        return cells(values)

    monkeypatch.setattr(io, "_cells", counting)
    values = np.random.default_rng(5).normal(size=20)
    column = np.repeat(values, 5)
    write_columns_csv(tmp_path / "runs.csv", ["x"], [column], {})
    # a run's head, and the first row of each block of 32
    heads = [i for i in range(len(column)) if i % 32 == 0 or i % 5 == 0]
    assert len(heads) == 23
    assert seen == column[heads].tolist()
    assert (tmp_path / "runs.csv").read_text() == _per_cell_reference(["x"], [column], {})
    # a block in which fewer than half the values repeat is encoded whole
    seen.clear()
    column = np.repeat(values, [2] * 12 + [1] * 8)  # 20 runs in one block of 32
    write_columns_csv(tmp_path / "few.csv", ["x"], [column], {})
    assert len(column) == 32 and seen == column.tolist()


@pytest.mark.parametrize("rows", [0, 1, 16, 49], ids=["header-only", "1", "block", "3block+1"])
def test_writers_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(io, "BLOCK_CELLS", 32)  # 16 rows per block in both writers
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        2.225073858507201e-308, 1e-310, 1.7976931348623157e308, 0.1 + 0.2])
    rng = np.random.default_rng(rows)
    times = np.arange(rows) * 0.01
    series = {"P": np.resize(special, rows),
              "F": rng.integers(0, 2**64, size=rows, dtype=np.uint64).view(np.float64)}
    config = {"N": 9, "walk": "classical"}
    expected = {name: _per_cell_reference(["t", name], [times, values], config).encode()
                for name, values in series.items()}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        out.mkdir()
        write_csvs([(out / f"{name}.csv", ["t", name], [times, values])
                    for name, values in series.items()], config)
        for name, values in series.items():
            write_columns_csv(out / f"{name}_columns.csv", ["t", name], [times, values], config)
            assert (out / f"{name}.csv").read_bytes() == expected[name], (cpus, name)
            assert (out / f"{name}_columns.csv").read_bytes() == expected[name], (cpus, name)
    with pytest.raises(ChildProcessError):  # every writer process was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_failed_write_leaves_no_child(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(io, "BLOCK_CELLS", 32)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    parent, write_all, calls = os.getpid(), io._write_all, []

    def disk_fills_in_caller(fd, data):
        calls.append(fd)
        if os.getpid() == parent and len(calls) == 3:  # after the two headers
            raise OSError(errno.ENOSPC, "No space left on device")
        write_all(fd, data)

    monkeypatch.setattr(io, "_write_all", disk_fills_in_caller)
    t = np.arange(100.0)
    files = [(tmp_path / "a.csv", ["t", "P"], [t, t * 2]), (tmp_path / "b.csv", ["t", "F"], [t, t / 3])]
    with pytest.raises(OSError, match="No space left"):
        write_csvs(files, {})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_series_csvs_reject_ragged_before_writing(tmp_path):
    t = np.arange(3.0)
    files = [(tmp_path / "a.csv", ["t", "P"], [t, np.zeros(3)]),
             (tmp_path / "b.csv", ["t", "F"], [t, np.zeros(2)])]
    with pytest.raises(ValueError, match=r"unequal lengths \[2, 3\]"):
        write_csvs(files, {})
    assert list(tmp_path.iterdir()) == []


def test_probability_series_header(tmp_path):
    rm = build_rate_matrix(path_graph(3))
    grid = TimeGrid(0.5, 3)
    path = tmp_path / "p.csv"
    write_probability_series_csv(path, evolve_master(rm, 1, grid), grid, {"walk": "classical"})
    lines = path.read_text().splitlines()
    assert lines[1] == "t,p1,p2,p3"
    first = [float(x) for x in lines[2].split(",")]
    assert first == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-12)


def test_json_embeds_config(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"tau": 1.5}, {"N": 9})
    doc = json.loads(path.read_text())
    assert doc["config"] == {"N": 9}
    assert doc["tau"] == 1.5


def test_jsonl_one_record_per_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"a": 1}, {"b": 2}])
    lines = path.read_text().splitlines()
    assert [json.loads(ln) for ln in lines] == [{"a": 1}, {"b": 2}]
