import json
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ctwalk
from ctwalk import (
    SideChainConfig,
    build_side_chain_graph,
    cli,
    experiments,
    first_passage,
    gillespie,
    io,
    mfpt_linear_solve,
    open_quantum,
    parallel,
    path_graph,
)
from ctwalk.cli import main
from ctwalk.experiments import MAX_CLASSICAL_POINTS
from ctwalk.first_passage import MAX_SOLVE_POINTS
from ctwalk.grid import ModeSum
from ctwalk.io import config_line, fmt


def run(args):
    return main([str(a) for a in args])


def test_simulate_writes_contracted_files(tmp_path):
    code = run(["simulate", "--N", 9, "--S", 1, "--walk", "quantum",
                "--out-dir", tmp_path])
    assert code == 0
    for name in ("P19.csv", "P99.csv", "F.csv", "result.json"):
        assert (tmp_path / name).exists(), name
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["N"] == 9 and doc["S"] == 1 and doc["walk"] == "quantum"
    assert doc["tau0"] > doc["tau"] > 0
    first = (tmp_path / "F.csv").read_text().splitlines()
    assert first[0].startswith("# config:")
    assert first[1] == "t,F"
    g = build_side_chain_graph(SideChainConfig(N=9, S=1))
    result, grid = experiments.run_pipeline(experiments.walk_model(g, "quantum"), 9, 0.01, 1e-6)
    for name, series in (("P19.csv", result.p_ab), ("P99.csv", result.p_bb),
                         ("F.csv", result.F)):
        t, values = np.loadtxt(tmp_path / name, delimiter=",", skiprows=2, unpack=True)
        np.testing.assert_array_equal(t, grid.times, err_msg=name)
        np.testing.assert_array_equal(values, series, err_msg=name)


@pytest.mark.parametrize("walk", ["classical", "quantum"])
def test_simulate_series_files_match_per_cell_format(tmp_path, walk):
    assert run(["simulate", "--N", 5, "--walk", walk, "--out-dir", tmp_path]) == 0
    g = build_side_chain_graph(SideChainConfig(N=5))
    result, grid = experiments.run_pipeline(experiments.walk_model(g, walk), 5, 0.01, 1e-6)
    config = json.loads((tmp_path / "result.json").read_text())["config"]
    for name, header, series in (("P15.csv", "t,P", result.p_ab),
                                 ("P55.csv", "t,P", result.p_bb),
                                 ("F.csv", "t,F", result.F)):
        rows = [f"{fmt(t)},{fmt(x)}" for t, x in zip(grid.times, np.asarray(series))]
        expected = "\n".join([config_line(config), header] + rows) + "\n"
        assert (tmp_path / name).read_text() == expected, name


@pytest.mark.parametrize("walk", ["classical", "quantum"])
@pytest.mark.parametrize("residual", [16.8, float("nan")])
def test_simulate_bad_residual_exits_1(tmp_path, capsys, monkeypatch, walk, residual):
    # the classical walk bounds its residual from the modes, the quantum walk
    # measures it by reconstruct
    check = {"classical": "modal_residual", "quantum": "reconstruct"}[walk]
    solved = getattr(first_passage, check)

    def planted(*args):
        return solved(*args) + residual

    monkeypatch.setattr(first_passage, check, planted)
    code = run(["simulate", "--N", 5, "--walk", walk, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: numerical failure: residual ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_short_chain(tmp_path, capsys):
    code = run(["simulate", "--N", 1, "--out-dir", tmp_path])
    assert code == 2
    assert "N must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("walk,kind", [("classical", "modal_bound"), ("quantum", "round_trip")])
def test_result_names_its_residual(tmp_path, walk, kind):
    assert run(["simulate", "--N", 5, "--walk", walk, "--out-dir", tmp_path]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["residual_kind"] == kind
    assert 0.0 < doc["reconstruction_error"] < 1e-10


def test_classical_simulate_holds_no_grid_length_array(tmp_path, monkeypatch):
    """Halving dt at N = 21 doubles the grid of a classical simulate, not its peak memory.

    An array of a quarter of the grid's length or more would raise the
    tracemalloc peak by at least 2 bytes per added grid point.
    """
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # every CSV block in this process
    monkeypatch.setattr(io, "BLOCK_CELLS", 1 << 14)  # small blocks, so the peak is mostly not theirs
    peaks, points = [], []
    for dt in (0.02, 0.01):
        out = tmp_path / f"dt{dt}"
        tracemalloc.start()
        try:
            assert run(["simulate", "--walk", "classical", "--N", 21, "--S", 2,
                        "--dt", dt, "--out-dir", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        points.append(sum(1 for _ in open(out / "F.csv")) - 2)
    assert points[1] > 1.9 * points[0]
    assert peaks[1] - peaks[0] < 2 * (points[1] - points[0])


def test_simulate_two_path_classical_mean(tmp_path):
    code = run(["simulate", "--N", 2, "--S", 0, "--walk", "classical",
                "--out-dir", tmp_path])
    assert code == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["tau"] == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("argv", [
    ["simulate", "--walk", "classical", "--N", "3", "--dt", "1e20"],
    ["montecarlo", "--N", "3", "--n-traj", "10", "--dt", "1e300"],
    ["sweep", "--walk", "classical", "--N-range", "3:3", "--S-set", "0", "--dt", "1e300"],
    # dt * dt overflows in the modal moments of a 2-point grid
    ["simulate", "--walk", "classical", "--N", "9", "--dt", "1e155"],
], ids=["simulate", "montecarlo", "sweep", "simulate-dt-squared-overflows"])
def test_classical_grid_under_3_points_exits_2_where_it_is_sized(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv + ["--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: the classical grid of 2 points needs at least 3")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dt", [3, 5, 10])
def test_mean_outside_its_horizon_exits_1(tmp_path, capsys, dt):
    # a two-vertex graph, whose exact mean is 1: these coarse grids gave -0.61,
    # -7.50 and -6.67. At dt = 0.01 the same graph gives 1.0000 (--N 2, in
    # test_simulate_two_path_classical_mean)
    (tmp_path / "two.txt").write_text("n=2\n1 2\n")
    code = run(["simulate", "--graph-file", tmp_path / "two.txt", "--walk", "classical",
                "--dt", dt, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: numerical failure: mean first-passage time -")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_simulate_custom_graph(tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("n=4\n1 2\n2 3\n3 4\n")
    code = run(["simulate", "--graph-file", graph_file, "--walk", "classical",
                "--out-dir", tmp_path])
    assert code == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["tau"] == pytest.approx(9.0, rel=1e-3)  # (4-1)^2 for a bare chain
    assert doc["config"]["dt"] == 0.01 and doc["config"]["epsilon"] == 1e-6
    assert (tmp_path / "P14.csv").exists()


def test_simulate_custom_graph_honours_start(tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("n=5\n1 2\n2 3\n3 4\n4 5\n")
    code = run(["simulate", "--graph-file", graph_file, "--walk", "classical",
                "--start", 2, "--out-dir", tmp_path])
    assert code == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["tau"] == pytest.approx(15.0, rel=1e-3)  # (5-1)^2 - (2-1)^2
    assert (tmp_path / "P25.csv").exists()


def test_simulate_chain_honours_start_and_target(tmp_path):
    code = run(["simulate", "--N", 5, "--walk", "classical", "--start", 3,
                "--target", 4, "--out-dir", tmp_path])
    assert code == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    oracle = mfpt_linear_solve(path_graph(5), 3, 4)
    assert oracle == pytest.approx(5.0, rel=1e-12)  # (4-1)^2 - (3-1)^2
    assert doc["tau"] == pytest.approx(oracle, rel=1e-3)
    assert doc["config"]["start"] == 3 and doc["config"]["target"] == 4
    for name in ("P34.csv", "P44.csv"):
        assert "start=3 target=4" in (tmp_path / name).read_text().splitlines()[0]


@pytest.mark.parametrize("walk", ["classical", "quantum"])
def test_simulate_rejects_start_equal_to_target(tmp_path, capsys, walk):
    code = run(["simulate", "--N", 5, "--walk", walk, "--start", 4, "--target", 4,
                "--out-dir", tmp_path])
    assert code == 2
    assert "must differ" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--graph-file", "{tmp}/missing.txt"],
    ["simulate", "--graph-file", "{tmp}/bad_edge.txt"],
    ["simulate", "--config", "{tmp}"],
    ["sweep", "--N-range", "a:b"],
    ["sweep", "--S-set", "x,y"],
    ["sweep", "--S-set", ","],
    ["simulate", "--dt", "0"],
    ["simulate", "--dt", "nan"],
    ["montecarlo", "--n-traj", "0"],
    ["ancillary", "--method", "sticky", "--lambda", "-1"],
    ["ancillary", "--method", "sticky", "--lambda", "nan"],
    ["ancillary", "--method", "sticky", "--V", "inf"],
    ["montecarlo", "--bin-width", "nan"],
    ["montecarlo", "--t-cap", "-1"],
    ["montecarlo", "--N", "3", "--n-traj", "10", "--bin-width", "1e-300"],
    ["simulate", "--walk", "classical", "--epsilon", "nan"],
    ["simulate", "--epsilon", "1"],
    ["simulate", "--walk", "quantum", "--N", "3", "--dt", "5"],
    ["ancillary", "--method", "ring", "--lambda", "5"],
    ["ancillary", "--method", "ring", "--V", "-2.5"],
    ["ancillary", "--method", "ring", "--jump-direction", "as-printed"],
    ["ancillary", "--method", "ring", "--config", "{tmp}/sticky.conf"],
    ["ancillary", "--method", "sticky", "--M", "12"],
    ["simulate", "--graph-file", "{tmp}/chain.txt", "--N", "4"],
    ["simulate", "--graph-file", "{tmp}/chain.txt", "--S", "0"],
    ["simulate", "--graph-file", "{tmp}/chain.txt", "--offset", "0"],
    ["montecarlo", "--seed", "-1"],
    ["ancillary", "--method", "sticky", "--lambda", "1e6"],
    # 7,896,511 grid points pass the classical grid's bound; 201 columns of them do not
    ["simulate", "--walk", "classical", "--N", "200", "--dt", "0.06", "--full-series"],
    # a subnormal dt: t_end / dt overflows to inf
    ["simulate", "--walk", "classical", "--N", "9", "--dt", "5e-324"],
    ["simulate", "--walk", "quantum", "--N", "9", "--dt", "5e-324"],
    ["montecarlo", "--N", "9", "--dt", "5e-324"],
    ["entropy", "--N", "9", "--dt", "5e-324"],
], ids=["missing-graph-file", "bad-edge-line", "config-is-directory", "N-range-not-int",
        "S-set-not-int", "S-set-empty", "dt-zero", "dt-nan", "n-traj-zero", "lambda-negative",
        "lambda-nan", "V-inf", "bin-width-nan", "t-cap-negative", "bin-width-tiny",
        "epsilon-nan", "epsilon-one", "dt-aliases-quantum", "ring-lambda", "ring-V",
        "ring-jump-direction", "ring-lambda-from-config", "sticky-M", "graph-file-N",
        "graph-file-S", "graph-file-offset", "seed-negative", "sticky-lambda-huge",
        "full-series-huge", "dt-subnormal-classical", "dt-subnormal-quantum",
        "dt-subnormal-montecarlo", "dt-subnormal-entropy"])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv):
    (tmp_path / "bad_edge.txt").write_text("n=3\n1 x\n")
    (tmp_path / "chain.txt").write_text("n=4\n1 2\n2 3\n3 4\n")
    (tmp_path / "sticky.conf").write_text("lambda=5\n")
    code = run([a.format(tmp=tmp_path) for a in argv] + ["--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("walk", ["classical", "quantum"])
def test_tiny_dt_refusal_prints_a_short_count(tmp_path, capsys, walk):
    # the point count is printed to three digits, not as an integer of some
    # 300 digits
    code = run(["simulate", "--walk", walk, "--N", "9", "--dt", "1e-300",
                "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "e+30" in err and len(err) < 200, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, refused", [
    (["ancillary", "--method", "ring", "--lambda", "1", "--V", "0", "--jump-direction",
      "reversed"], "--lambda, --V, --jump-direction cannot be used with --method ring"),
    (["ancillary", "--method", "ring", "--config", "{tmp}/sticky.conf"],
     "--lambda cannot be used with --method ring"),
    (["ancillary", "--method", "sticky", "--M", "10"], "--M cannot be used with --method sticky"),
    (["simulate", "--graph-file", "{tmp}/chain.txt", "--N", "4", "--S", "0", "--offset", "0"],
     "--N, --S, --offset cannot be used with --graph-file"),
], ids=["ring", "ring-config", "sticky", "graph-file"])
def test_refusal_names_every_unread_flag(tmp_path, capsys, argv, refused):
    (tmp_path / "chain.txt").write_text("n=4\n1 2\n2 3\n3 4\n")
    (tmp_path / "sticky.conf").write_text("lambda=5\n")
    code = run([a.format(tmp=tmp_path) for a in argv] + ["--out-dir", tmp_path / "out"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {refused}\n"


def test_omitted_flags_take_their_defaults(tmp_path):
    common = ["ancillary", "--N", 9]
    for name, argv in (
        ("sticky", ["--method", "sticky"]),
        ("sticky-explicit", ["--method", "sticky", "--lambda", 5, "--V", -2.5,
                             "--jump-direction", "as-printed"]),
        ("ring", ["--method", "ring"]),
        ("ring-explicit", ["--method", "ring", "--M", 10]),
    ):
        assert run(common + argv + ["--out-dir", tmp_path / name]) == 0
    for name in ("sticky", "ring"):
        default = (tmp_path / name / "overlay.json").read_text()
        assert default == (tmp_path / f"{name}-explicit" / "overlay.json").read_text()


def test_oversized_quantum_grid_exits_2_before_any_series(tmp_path, capsys, monkeypatch):
    # dt = 1e-5 puts the first horizon, 12.3, on 1,230,001 points
    def unreachable(*args):
        raise AssertionError("series evaluated on an over-budget grid")

    monkeypatch.setattr(experiments.quantum, "transition_probabilities", unreachable)
    code = run(["simulate", "--walk", "quantum", "--N", 9, "--dt", "1e-5",
                "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: the quantum solve on 1230001 grid points")
    assert f"budget of {MAX_SOLVE_POINTS}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--walk", "quantum", "--N", "2000"],
    ["entropy", "--N", "2000"],
    ["ancillary", "--method", "ring", "--N", "2000"],
    ["sweep", "--N-range", "2000:2000", "--S-set", "0", "--cache-dir", "{tmp}/cache"],
    # the default cache, <out-dir>/cache, is made only once an entry is written
    ["sweep", "--N-range", "2000:2000", "--S-set", "0"],
    # the largest case is checked before N = 43 is solved or cached
    ["sweep", "--walk", "quantum", "--N-range", "43:2000:1957"],
], ids=["simulate", "entropy", "ancillary", "sweep", "sweep-default-cache", "sweep-largest-last"])
def test_oversized_quantum_grid_exits_2_before_the_eigh(tmp_path, capsys, monkeypatch, argv):
    # the first horizon at N = 2000, 1,406, is 140,601 points at dt = 0.01
    def unreachable(*args):
        raise AssertionError("eigh of a graph whose first grid is over budget")

    monkeypatch.setattr(experiments.quantum, "spectrum", unreachable)
    code = run([a.format(tmp=tmp_path) for a in argv] + ["--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: the quantum solve on 140601 grid points")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n, m", [(9, 2), (301, 2000)], ids=["too-small", "too-many-vertices"])
def test_ring_size_is_refused_before_the_reference_run(tmp_path, capsys, monkeypatch, n, m):
    def boom(*a, **k):
        raise AssertionError("reference run before the ring size was checked")

    monkeypatch.setattr(experiments, "run_pipeline", boom)
    code = run(["ancillary", "--method", "ring", "--N", n, "--M", m,
                "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert ("ring size must be >= 3" if m < 3 else "2300 vertices exceeds the budget") in err
    assert not (tmp_path / "out").exists()


def test_oversized_classical_grid_exits_2_before_any_series(tmp_path, capsys, monkeypatch):
    # dt = 1e-3 puts the N = 43 horizon, about 2.1e4, on over 2.1e7 points
    def unreachable(*args):
        raise AssertionError("series solved or evaluated on an over-budget grid")

    monkeypatch.setattr(first_passage, "solve_exp_sum", unreachable)
    monkeypatch.setattr(ModeSum, "span", unreachable)
    code = run(["simulate", "--walk", "classical", "--N", 43, "--dt", "1e-3",
                "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: the classical grid of ")
    assert f"budget of {MAX_CLASSICAL_POINTS}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("walk", ["classical", "quantum"])
def test_full_series_cells_are_bounded(tmp_path, capsys, monkeypatch, walk):
    """The budget counts exactly the cells the series files hold: one fewer is refused."""
    argv = ["simulate", "--walk", walk, "--N", 5, "--S", 1, "--full-series", "--out-dir"]
    assert run(argv + [tmp_path / "free"]) == 0
    cells = 0
    for name in ["occupations.csv"] + (["amplitudes.csv"] if walk == "quantum" else []):
        rows = (tmp_path / "free" / name).read_text().splitlines()[2:]  # config, header
        cells += len(rows) * len(rows[0].split(","))
    monkeypatch.setattr(cli, "MAX_SERIES_CELLS", cells)
    assert run(argv + [tmp_path / "exact"]) == 0
    monkeypatch.setattr(cli, "MAX_SERIES_CELLS", cells - 1)
    capsys.readouterr()
    assert run(argv + [tmp_path / "over"]) == 2
    assert capsys.readouterr().err.startswith(f"error: --full-series would write {cells:,}")
    assert not (tmp_path / "over").exists()


def test_disconnected_graph_exits_2_before_any_series(tmp_path, capsys, monkeypatch):
    """Two 3-chains: no walk reaches vertex 6 from 1, so no grid is ever solved."""
    def unreachable(*args):
        raise AssertionError("series evaluated on a disconnected graph")

    monkeypatch.setattr(experiments.quantum, "transition_probabilities", unreachable)
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("n=6\n1 2\n2 3\n4 5\n5 6\n")
    code = run(["simulate", "--graph-file", graph_file, "--walk", "quantum",
                "--target", 6, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: first passage needs a connected graph\n"
    assert not (tmp_path / "out").exists()


def test_simulate_full_series_flag(tmp_path):
    code = run(["simulate", "--N", 3, "--walk", "quantum", "--full-series",
                "--out-dir", tmp_path])
    assert code == 0
    occ = (tmp_path / "occupations.csv").read_text().splitlines()
    assert occ[1] == "t,P1,P2,P3"
    amp = (tmp_path / "amplitudes.csv").read_text().splitlines()
    assert amp[1].startswith("t,re_psi1,im_psi1")


@pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]],
                         ids=["config-FILE", "config=FILE", "conf-FILE"])
def test_config_file_supplies_defaults_flags_win(tmp_path, spelling):
    cfg = tmp_path / "run.conf"
    cfg.write_text("N=5\nwalk=classical\nS=1\nfull_series=true\n")
    given = [a.format(cfg) for a in spelling]
    out1 = tmp_path / "a"
    assert run(["simulate", *given, "--out-dir", out1]) == 0
    doc = json.loads((out1 / "result.json").read_text())
    assert doc["N"] == 5 and doc["walk"] == "classical" and doc["S"] == 1
    assert (out1 / "occupations.csv").exists()
    out2 = tmp_path / "b"
    assert run(["simulate", *given, "--S", 0, "--out-dir", out2]) == 0
    doc2 = json.loads((out2 / "result.json").read_text())
    assert doc2["S"] == 0 and doc2["N"] == 5


@pytest.mark.parametrize("value", ["True", "false"])
def test_config_file_sets_a_flag_that_takes_no_value(tmp_path, value):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"method=ring\nN=9\nM=10\nsigma_includes_target={value}\n")
    assert run(["ancillary", "--config", cfg, "--out-dir", tmp_path / "cfg"]) == 0
    flag = ["--sigma-includes-target"] if value == "True" else []
    assert run(["ancillary", "--method", "ring", "--N", 9, "--M", 10, *flag,
                "--out-dir", tmp_path / "flag"]) == 0
    overlay = [(tmp_path / d / "overlay.json").read_bytes() for d in ("cfg", "flag")]
    assert overlay[0] == overlay[1]


def test_sweep_outputs_and_cache_determinism(tmp_path):
    out1 = tmp_path / "one"
    args = ["sweep", "--walk", "quantum", "--N-range", "3:7:2",
            "--S-set", "0,1", "--cache-dir", tmp_path / "cache"]
    assert run(args + ["--out-dir", out1]) == 0
    records = [json.loads(ln) for ln in (out1 / "records.jsonl").read_text().splitlines()]
    assert [(r["N"], r["S"]) for r in records] == [(3, 0), (3, 1), (5, 0), (5, 1), (7, 0), (7, 1)]
    fit = json.loads((out1 / "fit.json").read_text())
    assert fit["exponent"] < 0 and fit["prefactor"] < 0
    summary = (out1 / "summary.csv").read_text().splitlines()
    assert summary[1] == "N,tau_S0,tau_S1"
    # rerun from the warm cache: byte-identical outputs
    out2 = tmp_path / "two"
    assert run(args + ["--out-dir", out2]) == 0
    for name in ("records.jsonl", "summary.csv", "fit.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("corrupt", ["truncated", "wrong-keys", "not-a-record",
                                     "no-solver-id", "other-solver-id"])
def test_sweep_recomputes_corrupt_cache_entry(tmp_path, corrupt):
    args = ["sweep", "--walk", "quantum", "--N-range", "3:5:2", "--S-set", "0,1",
            "--cache-dir", tmp_path / "cache"]
    assert run(args + ["--out-dir", tmp_path / "cold"]) == 0
    entry = tmp_path / "cache" / "N3_S0_off0_quantum_dt0.01.json"
    text = entry.read_text()
    # a well-formed record from another solver, with a tau this one never gives
    stale = {**json.loads(text), "tau": 1.0}
    del stale["solver"]
    entry.write_text({"truncated": text[: len(text) // 2],
                      "wrong-keys": '{"N": 3, "S": 0, "eps": 1e-06, "tau": 1.0}',
                      "not-a-record": "[1, 2]",
                      "no-solver-id": json.dumps(stale),
                      "other-solver-id": json.dumps({**stale, "solver": "old"})}[corrupt])
    assert run(args + ["--out-dir", tmp_path / "warm"]) == 0
    cold = (tmp_path / "cold" / "records.jsonl").read_bytes()
    assert (tmp_path / "warm" / "records.jsonl").read_bytes() == cold
    assert entry.read_text() == text  # rewritten with the recomputed record


@pytest.mark.parametrize("jobs", [0, -3, 2])
def test_sweep_accepts_only_jobs_1(tmp_path, capsys, jobs):
    code = run(["sweep", "--N-range", "3:5:2", "--jobs", jobs, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: argument --jobs: invalid choice: {jobs} (choose from 1)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--N", "300000"],
    ["simulate", "--N", "9", "--S", "10000000"],
    ["montecarlo", "--N", "300000"],
    ["entropy", "--N", "2049"],
    ["ancillary", "--method", "ring", "--N", "9", "--M", "10000000"],
    ["simulate", "--graph-file", "{tmp}/huge.txt"],
    ["ancillary", "--method", "sticky", "--N", "128"],
    # the largest case, 2,049 vertices, is checked before N = 43 is run or cached
    ["sweep", "--walk", "classical", "--N-range", "43:2047:2004", "--S-set", "2"],
    # refused before the range's list is built
    ["sweep", "--N-range", "3:1000000000000000000000000000000:2"],
], ids=["N", "S", "montecarlo-N", "entropy-N", "ring-M", "graph-file-n", "sticky-N",
        "sweep-largest-last", "N-range-huge"])
def test_oversized_graphs_exit_2_before_any_matrix(tmp_path, capsys, monkeypatch, argv):
    adjacency = ctwalk.Graph.adjacency

    def small_only(g):
        # the ring run's reference chain has 9 vertices; nothing here may build more
        assert g.n <= 9, f"a {g.n} x {g.n} adjacency was built"
        return adjacency(g)

    monkeypatch.setattr(ctwalk.Graph, "adjacency", small_only)
    (tmp_path / "huge.txt").write_text("n=10000000\n1 2\n")
    code = run([a.format(tmp=tmp_path) for a in argv] + ["--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: a ") and "exceeds the budget of" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["1:5", "-1000000000000000000:3", "5:3", "3:9:0"])
def test_n_range_outside_the_chain_model_is_refused(tmp_path, capsys, text):
    # N starts at 2, so a range holds at most the vertex budget's count of values
    assert run(["sweep", f"--N-range={text}", "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad --N-range {text!r}")
    assert not (tmp_path / "out").exists()


def test_sweep_classical_summary_orders_taus(tmp_path):
    assert run(["sweep", "--walk", "classical", "--N-range", "3:5:2",
                "--S-set", "0,1,2", "--out-dir", tmp_path]) == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()[2:]
    for row in rows:
        fields = row.split(",")
        tau0, tau1, tau2 = float(fields[1]), float(fields[2]), float(fields[3])
        assert tau2 > tau1 > tau0
    assert not (tmp_path / "fit.json").exists()


def test_ancillary_ring_overlay(tmp_path):
    assert run(["ancillary", "--method", "ring", "--N", 9, "--M", 10,
                "--sigma-includes-target", "--out-dir", tmp_path]) == 0
    doc = json.loads((tmp_path / "overlay.json").read_text())
    assert doc["overlay_L2_error"] <= 0.10
    assert doc["M"] == 10 and doc["lambda"] is None
    header = (tmp_path / "sigma_F.csv").read_text().splitlines()[1]
    assert header == "t,sigma,F"


def test_ancillary_sticky_reversed(tmp_path):
    assert run(["ancillary", "--method", "sticky", "--N", 9, "--lambda", 5,
                "--V", -2.5, "--jump-direction", "reversed",
                "--sigma-includes-target", "--out-dir", tmp_path]) == 0
    doc = json.loads((tmp_path / "overlay.json").read_text())
    assert doc["overlay_L2_error"] <= 0.10
    assert doc["V"] == -2.5
    assert doc["solver"] == open_quantum.SOLVER
    assert 1.0 <= doc["cond_R"] <= open_quantum.COND_MAX
    assert 1 <= doc["taylor_degree"] <= len(open_quantum.THETA)
    assert doc["trace_drift"] <= 1e-12


@pytest.mark.parametrize("name, value", [("COND_MAX", 1.0), ("TRACE_TOL", 0.0)])
def test_untrusted_propagator_exits_1_without_traceback(tmp_path, capsys, monkeypatch,
                                                       name, value):
    """An ill-conditioned eigenbasis or a drifting trace is an error, not a result."""
    monkeypatch.setattr(open_quantum, name, value)
    code = run(["ancillary", "--method", "sticky", "--N", 9, "--lambda", 5,
                "--V", -2.5, "--jump-direction", "reversed",
                "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_ancillary_notes_recurrence_inside_reference_horizon(tmp_path, capsys):
    assert run(["ancillary", "--method", "ring", "--N", 9, "--M", 4,
                "--out-dir", tmp_path / "small"]) == 0
    out = capsys.readouterr().out
    doc = json.loads((tmp_path / "small" / "overlay.json").read_text())
    assert doc["recurrence_time"] < doc["tau0_reference"]
    assert (f"note: sigma rises again at t = {doc['recurrence_time']:.3f}, inside the "
            f"reference horizon {doc['tau0_reference']:.3f}") in out
    assert run(["ancillary", "--method", "ring", "--N", 9, "--M", 10,
                "--out-dir", tmp_path / "big"]) == 0
    assert "note:" not in capsys.readouterr().out
    doc = json.loads((tmp_path / "big" / "overlay.json").read_text())
    assert doc["sigma_vertices"] == list(range(1, 9))  # the chain short of the target


@pytest.mark.parametrize("argv, flag", [
    (["entropy", "--S", "1"], "--S"),
    (["ancillary", "--method", "ring", "--S", "0"], "--S"),
    (["ancillary", "--method", "ring", "--offset", "1"], "--offset"),
], ids=["entropy", "ancillary", "ancillary-offset"])
def test_commands_without_side_chain_reject_S(tmp_path, capsys, argv, flag):
    code = run(argv + ["--out-dir", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(f"error: unrecognized arguments: {flag}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, first_line", [
    (["simulate", "--walk", "bogus"], "error: argument --walk: invalid choice: 'bogus'"),
    (["simulate", "--N", "nine"], "error: argument --N: invalid int value: 'nine'"),
    (["ancillary", "--N", "9"], "error: the following arguments are required: --method"),
    (["frobnicate"], "error: argument command: invalid choice: 'frobnicate'"),
], ids=["choice", "type", "required", "command"])
def test_parser_rejections_take_the_error_path(tmp_path, capsys, argv, first_line):
    assert run(argv + ["--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.splitlines()[0].startswith(first_line)
    assert not (tmp_path / "out").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ctwalk simulate")


def test_ancillary_rejects_negative_rate(tmp_path, capsys):
    code = run(["ancillary", "--method", "sticky", "--N", 9, "--lambda", -1,
                "--out-dir", tmp_path])
    assert code == 2
    assert "lambda" in capsys.readouterr().err


def test_montecarlo_outputs_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "one"
    args = ["montecarlo", "--N", 5, "--n-traj", 20000, "--seed", 7,
            "--bin-width", 1.0]
    assert run(args + ["--out-dir", out1]) == 0
    assert "finite hitting times" not in capsys.readouterr().out
    doc = json.loads((out1 / "comparison.json").read_text())
    assert doc["n_capped"] == 0 and doc["capped_fraction"] == 0.0
    assert doc["l1_distance"] < 0.1
    assert doc["mfpt_linear_solve"] == pytest.approx(16.0, abs=1e-9)
    assert doc["config"]["t_cap"] == 1e4
    out2 = tmp_path / "two"
    assert run(args + ["--out-dir", out2]) == 0
    assert (out1 / "histogram.csv").read_bytes() == (out2 / "histogram.csv").read_bytes()


def test_montecarlo_flags_capped_mean(tmp_path, capsys):
    code = run(["montecarlo", "--N", 5, "--n-traj", 2000, "--seed", 7, "--t-cap", 5,
                "--out-dir", tmp_path])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads((tmp_path / "comparison.json").read_text())
    assert 0 < doc["n_capped"] < 2000
    assert doc["capped_fraction"] == doc["n_capped"] / 2000
    assert doc["empirical_mean"] < 5.0 < doc["mfpt_linear_solve"]
    assert f"{doc['n_capped']} of 2000 trajectories" in out
    assert "the mean is over finite hitting times only" in out


def test_montecarlo_rejects_zero_trajectories(tmp_path):
    assert run(["montecarlo", "--N", 5, "--n-traj", 0, "--out-dir", tmp_path]) == 2


def test_montecarlo_rejects_bins_before_reference_solve(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("reference solve ran before the input was checked")

    monkeypatch.setattr(experiments, "run_pipeline", boom)
    code = run(["montecarlo", "--N", 43, "--S", 2, "--n-traj", 10,
                "--bin-width", "1e-300", "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert "histogram bins" in err and "Traceback" not in err


def test_montecarlo_rejects_too_many_trajectories_before_reference_solve(
    tmp_path, capsys, monkeypatch
):
    def boom(*a, **k):
        raise AssertionError("reference solve ran before the input was checked")

    monkeypatch.setattr(experiments, "run_pipeline", boom)
    code = run(["montecarlo", "--N", 9, "--n-traj", gillespie.MAX_TRAJ + 1,
                "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert "trajectories" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_montecarlo_rejects_an_oversized_table_before_reference_solve(
    tmp_path, capsys, monkeypatch
):
    def boom(*a, **k):
        raise AssertionError("reference solve ran before the input was checked")

    monkeypatch.setattr(experiments, "run_pipeline", boom)
    # 2.9M entries over 301 vertices: the build would take about 11 s
    code = run(["montecarlo", "--N", 301, "--n-traj", 10, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: the jump-count table to vertex 301 would hold about 2.8")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_entropy_outputs(tmp_path):
    assert run(["entropy", "--N", 5, "--out-dir", tmp_path]) == 0
    for s in (0, 1, 2):
        doc = json.loads((tmp_path / f"entropy_S{s}.json").read_text())
        assert doc["S"] == s and 0.0 <= doc["avg_entropy"] <= 1.0
        lines = (tmp_path / f"entropy_S{s}.csv").read_text().splitlines()
        assert lines[1] == "t,E"


def test_montecarlo_all_capped_writes_strict_json(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["montecarlo", "--N", 9, "--n-traj", 1000, "--t-cap", 0.5,
                    "--out-dir", tmp_path])
    assert code == 0
    assert [str(w.message) for w in caught] == []

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads((tmp_path / "comparison.json").read_text(), parse_constant=reject)
    assert doc["n_capped"] == 1000
    assert doc["empirical_mean"] is None and doc["empirical_stderr"] is None
    assert "the mean is over finite hitting times only" in capsys.readouterr().out


def count_forks(monkeypatch):
    """Record the pid of each child forked, keeping the real fork."""
    forked = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_commands_leave_no_worker_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(io, "BLOCK_CELLS", 1 << 10)
    forked = count_forks(monkeypatch)
    assert run(["simulate", "--walk", "classical", "--N", 9, "--out-dir", tmp_path / "s"]) == 0
    assert len(forked) == 1  # the series files' writer; the one-block files fork none
    assert_no_child_left()


def test_serial_commands_start_no_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run(["sweep", "--N-range", "3:7:2", "--S-set", "0,1", "--jobs", 1,
                "--out-dir", tmp_path / "sweep"]) == 0
    assert run(["entropy", "--N", 9, "--out-dir", tmp_path / "entropy"]) == 0
    monkeypatch.setattr(gillespie, "BATCH_SIZE", 1000)
    assert run(["montecarlo", "--N", 5, "--n-traj", 5000, "--out-dir", tmp_path / "m"]) == 0


def test_dead_worker_exits_1_without_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(io, "BLOCK_CELLS", 1 << 10)
    parent = os.getpid()
    block = io._block

    def dies_in_worker(*args):
        if os.getpid() != parent:
            os._exit(3)
        return block(*args)

    monkeypatch.setattr(io, "_block", dies_in_worker)
    code = run(["simulate", "--walk", "classical", "--N", 9, "--out-dir", tmp_path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: worker process died: ")
    assert "Traceback" not in err
    assert_no_child_left()


def fresh_python(code, *args, timeout=60):
    """Run code in a fresh interpreter that imports this checkout's ctwalk.

    The interpreter leads its own process group, which is killed whole on a
    timeout, so a hung child of it does not outlive the test.
    """
    src = str(Path(ctwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen([sys.executable, "-c", code, *map(str, args)], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def test_a_writer_killed_before_its_turn_exits_1_within_seconds(tmp_path):
    # the process of CSV block 1, of three, is killed before its turn; the
    # others must see it and end. A hang would time the interpreter out, and
    # exit code 3 means a child outlived main
    code = """
import os, signal, sys
from ctwalk import cli, io, parallel
parallel.usable_cpus = lambda: 3
io.BLOCK_CELLS = 1 << 10
block = io._block

def killed_at_block_1(columns, layout, step, lo):
    if lo == step:
        os.kill(os.getpid(), signal.SIGKILL)
    return block(columns, layout, step, lo)

io._block = killed_at_block_1
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(3)
"""
    out = fresh_python(code, "simulate", "--walk", "classical", "--N", 9, "--out-dir", tmp_path,
                       timeout=30)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith(
        f"error: worker process died: process 1 of 3 was killed by signal {int(signal.SIGKILL)}")
    assert "Traceback" not in out.stderr


def test_importing_the_cli_stays_light():
    # a fresh interpreter: nothing imports concurrent.futures or
    # multiprocessing, and the CSV encoder's power-of-ten table is built on
    # its first use
    code = ("import sys, ctwalk.cli, ctwalk.io\n"
            "heavy = ('fractions', 'decimal', 'concurrent.futures', 'multiprocessing')\n"
            "print([m for m in heavy if m in sys.modules], ctwalk.io._pow10.cache_info().currsize)")
    out = fresh_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "0"]
