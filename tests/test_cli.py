import json
import multiprocessing
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ctwalk import (
    SideChainConfig,
    build_side_chain_graph,
    experiments,
    gillespie,
    io,
    mfpt_linear_solve,
    open_quantum,
    parallel,
    path_graph,
)
from ctwalk.cli import main
from ctwalk.first_passage import MAX_SOLVE_POINTS
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
        rows = [f"{fmt(t)},{fmt(x)}" for t, x in zip(grid.times, series)]
        expected = "\n".join([config_line(config), header] + rows) + "\n"
        assert (tmp_path / name).read_text() == expected, name


@pytest.mark.parametrize("walk", ["classical", "quantum"])
@pytest.mark.parametrize("residual", [16.8, float("nan")])
def test_simulate_bad_residual_exits_1(tmp_path, capsys, monkeypatch, walk, residual):
    solved = experiments.first_passage_result

    def planted(*args):
        return replace(solved(*args), reconstruction_error=residual)

    monkeypatch.setattr(experiments, "first_passage_result", planted)
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


def test_simulate_two_path_classical_mean(tmp_path):
    code = run(["simulate", "--N", 2, "--S", 0, "--walk", "classical",
                "--out-dir", tmp_path])
    assert code == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["tau"] == pytest.approx(1.0, abs=1e-4)


def test_simulate_custom_graph(tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("n=4\n1 2\n2 3\n3 4\n")
    code = run(["simulate", "--graph-file", graph_file, "--walk", "classical",
                "--out-dir", tmp_path])
    assert code == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["tau"] == pytest.approx(9.0, rel=1e-3)  # (4-1)^2 for a bare chain
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
], ids=["missing-graph-file", "bad-edge-line", "config-is-directory", "N-range-not-int",
        "S-set-not-int", "dt-zero", "dt-nan", "n-traj-zero", "lambda-negative",
        "lambda-nan", "V-inf", "bin-width-nan", "t-cap-negative", "bin-width-tiny",
        "epsilon-nan", "epsilon-one", "dt-aliases-quantum"])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv):
    (tmp_path / "bad_edge.txt").write_text("n=3\n1 x\n")
    code = run([a.format(tmp=tmp_path) for a in argv] + ["--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_simulate_full_series_flag(tmp_path):
    code = run(["simulate", "--N", 3, "--walk", "quantum", "--full-series",
                "--out-dir", tmp_path])
    assert code == 0
    occ = (tmp_path / "occupations.csv").read_text().splitlines()
    assert occ[1] == "t,P1,P2,P3"
    amp = (tmp_path / "amplitudes.csv").read_text().splitlines()
    assert amp[1].startswith("t,re_psi1,im_psi1")


def test_config_file_supplies_defaults_flags_win(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("N=5\nwalk=classical\nS=1\n")
    out1 = tmp_path / "a"
    assert run(["simulate", "--config", cfg, "--out-dir", out1]) == 0
    doc = json.loads((out1 / "result.json").read_text())
    assert doc["N"] == 5 and doc["walk"] == "classical" and doc["S"] == 1
    out2 = tmp_path / "b"
    assert run(["simulate", "--config", cfg, "--S", 0, "--out-dir", out2]) == 0
    doc2 = json.loads((out2 / "result.json").read_text())
    assert doc2["S"] == 0 and doc2["N"] == 5


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


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_nonpositive_jobs(tmp_path, capsys, jobs):
    code = run(["sweep", "--N-range", "3:5:2", "--jobs", jobs, "--out-dir", tmp_path])
    assert code == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


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


def count_pools(monkeypatch):
    """Record each pool started, keeping the real one."""
    started = []
    make_pool = parallel._make_pool

    def recording(workers, fn):
        started.append(workers)
        return make_pool(workers, fn)

    monkeypatch.setattr(parallel, "_make_pool", recording)
    return started


def test_parallel_commands_leave_no_worker_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(io, "BLOCK_CELLS", 1 << 10)
    monkeypatch.setattr(gillespie, "BATCH_SIZE", 1000)
    started = count_pools(monkeypatch)
    assert run(["simulate", "--walk", "classical", "--N", 9, "--out-dir", tmp_path / "s"]) == 0
    assert run(["montecarlo", "--N", 5, "--n-traj", 5000, "--out-dir", tmp_path / "m"]) == 0
    assert started == [1, 1]
    assert multiprocessing.active_children() == []


def test_serial_commands_start_no_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

    def no_pool(workers, fn):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(parallel, "_make_pool", no_pool)
    assert run(["sweep", "--N-range", "3:7:2", "--S-set", "0,1", "--jobs", 1,
                "--out-dir", tmp_path / "sweep"]) == 0
    assert run(["entropy", "--N", 9, "--out-dir", tmp_path / "entropy"]) == 0


def test_dead_worker_exits_1_without_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(io, "BLOCK_CELLS", 1 << 10)
    parent = os.getpid()
    series_block = io._series_block

    def dies_in_worker(*args):
        if os.getpid() != parent:
            os._exit(3)
        return series_block(*args)

    monkeypatch.setattr(io, "_series_block", dies_in_worker)
    code = run(["simulate", "--walk", "classical", "--N", 9, "--out-dir", tmp_path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: worker process died: ")
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []
