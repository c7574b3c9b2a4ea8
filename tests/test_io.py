import json
import multiprocessing

import numpy as np
import pytest

from ctwalk import TimeGrid, build_rate_matrix, evolve_master, io, parallel, path_graph
from ctwalk.io import (
    config_line,
    fmt,
    write_columns_csv,
    write_json,
    write_jsonl,
    write_probability_series_csv,
    write_series_csvs,
)


def test_floats_round_trip_exactly():
    for x in (1 / 3, np.pi, 1e-300, -2.5, 0.1 + 0.2):
        assert float(fmt(x)) == x


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
        (tmp_path / "special.csv", "P", np.resize(special, rows)),
        (tmp_path / "bits.csv", "P", bits),
        (tmp_path / "F.csv", "F", cplx.imag),  # strided view
    ]
    config = {"N": 9, "walk": "classical"}
    write_series_csvs(times, files, config)
    for path, name, values in files:
        expected = _per_cell_reference(["t", name], [times, values], config)
        assert path.read_text() == expected, path.name
        ref = tmp_path / "ref.csv"
        write_columns_csv(ref, ["t", name], [times, values], config)
        assert path.read_bytes() == ref.read_bytes(), path.name


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
        write_series_csvs(times, [(out / f"{name}.csv", name, values)
                                  for name, values in series.items()], config)
        for name, values in series.items():
            write_columns_csv(out / f"{name}_columns.csv", ["t", name], [times, values], config)
            assert (out / f"{name}.csv").read_bytes() == expected[name], (cpus, name)
            assert (out / f"{name}_columns.csv").read_bytes() == expected[name], (cpus, name)
    assert multiprocessing.active_children() == []


def test_series_csvs_reject_ragged_before_writing(tmp_path):
    files = [(tmp_path / "a.csv", "P", np.zeros(3)), (tmp_path / "b.csv", "F", np.zeros(2))]
    with pytest.raises(ValueError, match="2 values for 3 times"):
        write_series_csvs(np.arange(3.0), files, {})
    assert list(tmp_path.iterdir()) == []


def test_probability_series_header(tmp_path):
    rm = build_rate_matrix(path_graph(3))
    series = evolve_master(rm, 1, TimeGrid(0.5, 3))
    path = tmp_path / "p.csv"
    write_probability_series_csv(path, series, {"walk": "classical"})
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
