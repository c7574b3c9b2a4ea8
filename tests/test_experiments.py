import json

import numpy as np
import pytest

from ctwalk import (
    ValidationError,
    build_rate_matrix,
    cached_run_case,
    delta_table,
    entropy_study,
    fit_power_law,
    from_edge_list_text,
    mfpt_linear_solve,
    run_case,
    side_chain_deltas,
    speedup_fit,
    sweep,
    transition_probabilities,
    vertex_occupations,
)
import ctwalk.experiments as experiments
from ctwalk.cli import main
from ctwalk.quantum import spectrum


# ---------------------------------------------------------------------------
# single cases
# ---------------------------------------------------------------------------

def test_three_path_classical_case():
    rec = run_case(3, 0, 0, "classical")
    # linear-solve value for the 3-chain is exactly 4
    assert rec.tau == pytest.approx(4.0, abs=1e-3)
    assert rec.tau0 > rec.tau


def test_two_path_quantum_case():
    rec = run_case(2, 0, 0, "quantum")
    assert rec.tau == pytest.approx(np.pi * np.sqrt(2.0) / 4.0, abs=1e-4)
    assert rec.tau0 == pytest.approx(np.pi / np.sqrt(2.0), abs=1e-3)


def test_nine_path_quantum_case_regression():
    rec = run_case(9, 0, 0, "quantum")
    # frozen after the first verified run; guards the whole pipeline
    assert rec.tau == pytest.approx(4.9749, abs=2e-3)
    assert rec.tau0 == pytest.approx(6.3936, abs=2e-3)
    assert rec.norm == pytest.approx(1.8791, abs=2e-3)
    assert rec.reconstruction_error < 1e-4


# vertex 1 carries a leaf, so deg(1) = 2 while the target 4 has degree 1
UNEVEN = "n=5\n1 2\n2 3\n3 4\n1 5\n"


def test_classical_pipeline_series_use_detailed_balance():
    g = from_edge_list_text(UNEVEN)
    rm = build_rate_matrix(g)
    result, grid = experiments.run_pipeline(rm, 4, 0.01, 1e-6)
    assert np.allclose(result.p_ab, vertex_occupations(rm, 1, (4,), grid)[0],
                       rtol=0.0, atol=1e-13)
    assert np.array_equal(result.p_bb, vertex_occupations(rm, 4, (4,), grid)[0])
    assert result.tau == pytest.approx(mfpt_linear_solve(g, 1, 4), rel=1e-3)


def test_quantum_pipeline_series_match_direct_evaluation():
    g = from_edge_list_text(UNEVEN)
    h = spectrum(g)
    result, grid = experiments.run_pipeline(h, 4, 0.01, 1e-6, start=5)
    direct = transition_probabilities(h, 5, (4,), grid)[0]
    assert np.allclose(result.p_ab, direct, rtol=0.0, atol=1e-13)
    assert np.array_equal(result.p_bb, transition_probabilities(h, 4, (4,), grid)[0])


@pytest.fixture
def eigh_calls(monkeypatch):
    """Sizes of the matrices passed to np.linalg.eigh anywhere in the package."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_quantum_horizon_doubling_reuses_one_spectrum(eigh_calls):
    # target 2 sits 39 hops from the start, far beyond the first span of 12
    edges = "1 3\n" + "".join(f"{v} {v + 1}\n" for v in range(3, 40)) + "40 2\n"
    g = from_edge_list_text("n=40\n" + edges)
    _, grid = experiments.run_pipeline(experiments.walk_model(g, "quantum"), 2, 0.01, 1e-6)
    assert grid.t_end > 20.0
    assert eigh_calls == [40]


def test_entropy_study_diagonalizes_each_graph_once(eigh_calls):
    entropy_study(9)
    assert eigh_calls == [9, 10, 11]


@pytest.mark.parametrize("walk,sizes", [
    ("quantum", [9]),
    # the killed-walk block, the spectrum and the rank-one update of the solve
    ("classical", [8, 9, 9]),
])
def test_full_series_reuses_the_pipeline_spectrum(eigh_calls, tmp_path, walk, sizes):
    code = main(["simulate", "--N", "9", "--walk", walk, "--full-series",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert eigh_calls == sizes


def test_unknown_walk_rejected():
    with pytest.raises(ValidationError):
        run_case(5, 0, 0, "ballistic")


# ---------------------------------------------------------------------------
# deltas
# ---------------------------------------------------------------------------

def test_quantum_deltas_nine_chain():
    records = {s: run_case(9, s, 0, "quantum") for s in (0, 1, 2)}
    d = side_chain_deltas(records)
    assert d.d1 < 0.0
    assert d.d2_prime > 0.0
    assert d.d1_ratio == pytest.approx(d.d1 / records[0].tau)


def test_classical_deltas_are_retarding():
    records = {s: run_case(9, s, 0, "classical") for s in (0, 1, 2)}
    d = side_chain_deltas(records)
    assert d.d1 > 0.0
    assert d.d2 > d.d1
    assert d.d2_prime > 0.0


def test_missing_case_is_reported():
    records = {s: run_case(5, s, 0, "quantum") for s in (0, 1)}
    with pytest.raises(ValidationError, match="S=2"):
        side_chain_deltas(records)


# ---------------------------------------------------------------------------
# power-law fit
# ---------------------------------------------------------------------------

def test_exact_synthetic_power_law():
    ns = np.array([3, 5, 9, 17, 33])
    fit = fit_power_law(ns, 2.0 * ns**-0.5)
    assert fit.prefactor == pytest.approx(2.0, abs=1e-12)
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
    assert fit.residual < 1e-12


def test_negative_ratios_keep_their_sign():
    ns = np.array([4, 8, 16])
    fit = fit_power_law(ns, -3.0 * ns**-1.25)
    assert fit.prefactor == pytest.approx(-3.0, abs=1e-12)
    assert fit.exponent == pytest.approx(-1.25, abs=1e-12)


def test_two_points_interpolate_exactly():
    fit = fit_power_law(np.array([2, 8]), np.array([1.0, 0.25]))
    assert fit.residual < 1e-12


def test_mixed_signs_rejected():
    with pytest.raises(ValidationError):
        fit_power_law(np.array([2, 4, 8]), np.array([1.0, -0.5, 0.25]))


# ---------------------------------------------------------------------------
# sweeps, cache, studies
# ---------------------------------------------------------------------------

def test_sweep_order_is_deterministic(tmp_path):
    records = sweep([3, 5], [0, 1], 0, "quantum", cache_dir=tmp_path)
    assert [(r.N, r.S) for r in records] == [(3, 0), (3, 1), (5, 0), (5, 1)]


@pytest.mark.parametrize("ns, s_values, walk, refusal", [
    ([43, 2047], [0, 2], "classical", "a graph of 2049 vertices"),
    ([43, 1865], [0], "quantum", "the quantum solve on 131151 grid points"),
], ids=["vertices", "quantum-grid"])
def test_sweep_checks_its_largest_case_before_its_first(tmp_path, monkeypatch, ns, s_values,
                                                       walk, refusal):
    def boom(*a, **k):
        raise AssertionError("a case ran before the largest was checked")

    monkeypatch.setattr(experiments, "run_case", boom)
    with pytest.raises(ValidationError, match=f"^{refusal} exceeds the budget"):
        sweep(ns, s_values, 0, walk, cache_dir=tmp_path / "cache")
    assert not (tmp_path / "cache").exists()


def test_cache_round_trip(tmp_path, monkeypatch):
    rec = cached_run_case(5, 1, 0, "quantum", cache_dir=tmp_path)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    stored = json.loads(files[0].read_text())
    assert stored["tau"] == rec.tau

    def boom(*a, **k):
        raise AssertionError("cache miss on a cached case")

    monkeypatch.setattr(experiments, "run_case", boom)
    again = cached_run_case(5, 1, 0, "quantum", cache_dir=tmp_path)
    assert again == rec


def test_cache_ignores_stale_eps(tmp_path):
    rec = cached_run_case(3, 0, 0, "classical", eps=1e-6, cache_dir=tmp_path)
    other = cached_run_case(3, 0, 0, "classical", eps=1e-4, cache_dir=tmp_path)
    assert other.eps == 1e-4
    assert other.tau0 < rec.tau0


@pytest.mark.parametrize("field,value", [
    # dt = 0.010000001 names the same file as 0.01 (dt formatted with .6g)
    ("N", 5), ("S", 1), ("offset", 1), ("walk", "classical"), ("dt", 0.010000001),
])
def test_cache_recomputes_entry_for_another_request(tmp_path, field, value):
    """A planted entry that does not match the request is never served."""
    fresh = cached_run_case(3, 0, 0, "quantum", cache_dir=tmp_path)
    (entry,) = tmp_path.glob("*.json")
    text = entry.read_text()
    entry.write_text(json.dumps({**json.loads(text), field: value, "tau": 1.0}))
    assert cached_run_case(3, 0, 0, "quantum", cache_dir=tmp_path) == fresh
    assert entry.read_text() == text


def test_cache_recomputes_entry_of_another_solver(tmp_path):
    """A classical entry written by the solver before the modal bound is never served."""
    fresh = cached_run_case(3, 0, 0, "classical", cache_dir=tmp_path)
    assert fresh.residual_kind == "modal_bound"
    (entry,) = tmp_path.glob("*.json")
    text = entry.read_text()
    stale = {**json.loads(text), "solver": "exp-sum+blocked-64-all-lengths",
             "reconstruction_error": 1.6e-14, "residual_kind": "round_trip"}
    entry.write_text(json.dumps(stale))
    assert cached_run_case(3, 0, 0, "classical", cache_dir=tmp_path) == fresh
    assert entry.read_text() == text


def test_speedup_fit_on_small_sweep():
    records = sweep([5, 9, 13], [0, 1], 0, "quantum")
    fit = speedup_fit(records)
    assert fit.prefactor < 0.0
    assert -1.0 < fit.exponent < -0.4


def test_delta_table_groups_by_n():
    records = sweep([3, 5], [0, 1, 2], 0, "quantum")
    table = delta_table(records)
    assert set(table) == {3, 5}
    assert all(d.d1 < 0 for d in table.values())


def test_offset_study_keeps_speedup_off_center():
    table = {
        offset: side_chain_deltas({s: run_case(9, s, offset, "quantum") for s in (0, 1, 2)})
        for offset in (-1, 0, 1)
    }
    assert all(d.d1 < 0.0 for d in table.values())
    # mirrored offsets describe mirror graphs of each other; the 1 -> N values
    # they produce are close but not identical (the kernel end differs)
    assert table[-1].d1 == pytest.approx(table[1].d1, rel=0.01)


def test_entropy_study_nine_chain():
    cases = entropy_study(9)
    assert sorted(cases) == [0, 1, 2]
    for s, case in cases.items():
        assert case.S == s
        assert case.entropy[0] == pytest.approx(0.0, abs=1e-9)
        assert np.all((case.entropy >= 0.0) & (case.entropy <= 1.0))
        assert 0.0 <= case.average <= 1.0
    assert cases[2].average - cases[0].average > 0.0
