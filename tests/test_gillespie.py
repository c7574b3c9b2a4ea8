from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import ctwalk.gillespie as gillespie_mod
from ctwalk import (
    Graph,
    SideChainConfig,
    ValidationError,
    build_side_chain_graph,
    gillespie_first_passage,
    histogram_density_l1,
    mfpt_linear_solve,
    parallel,
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
    # regression pin: the determinism contract makes these exact values
    assert hist.hitting_times.tolist() == [
        4.0864874916483993, 3.2081156136109783, 0.67325702684145172,
        0.78308801856845256, 3.9248951032588195, 2.2563064940577999,
        0.20521752175706104, 3.8257408500090393, 7.7897729131054119,
        0.77124207324298311,
    ]
    other = gillespie_first_passage(path_graph(3), 1, 3, 10, seed=43, bin_width=0.5)
    assert not np.array_equal(hist.hitting_times, other.hitting_times)


def test_capped_run_is_frozen():
    hist = gillespie_first_passage(
        path_graph(9), 1, 9, 2000, seed=5, bin_width=1.0, t_cap=5.0
    )
    assert hist.n_capped == 1995
    hit = np.isfinite(hist.hitting_times)
    assert np.flatnonzero(hit).tolist() == [94, 535, 810, 1491, 1634]
    # three arrive on the step that passes t_cap and still count as hits
    assert hist.hitting_times[hit].tolist() == [
        7.1106723637739506, 6.1144051486269415, 4.9801696244948133,
        7.0544297579027191, 4.7056720354745565,
    ]


def test_batch_substreams_are_stable_under_total_count(monkeypatch):
    """The first k trajectories do not depend on how many batches follow."""
    monkeypatch.setattr(gillespie_mod, "BATCH_SIZE", 500)
    short = gillespie_first_passage(path_graph(3), 1, 3, 700, seed=9, bin_width=0.5)
    long = gillespie_first_passage(path_graph(3), 1, 3, 1400, seed=9, bin_width=0.5)
    assert np.array_equal(short.hitting_times[:500], long.hitting_times[:500])


@pytest.mark.parametrize("t_cap", [1e4, 5.0], ids=["uncapped", "capped"])
def test_sample_does_not_depend_on_the_worker_count(monkeypatch, t_cap):
    monkeypatch.setattr(gillespie_mod, "BATCH_SIZE", 300)  # 7 batches
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        runs.append(gillespie_first_passage(path_graph(9), 1, 9, 2000, seed=5,
                                            bin_width=1.0, t_cap=t_cap))
    assert (runs[0].n_capped > 0) == (t_cap == 5.0)
    for other in runs[1:]:
        assert np.array_equal(other.hitting_times, runs[0].hitting_times)
        assert other.n_capped == runs[0].n_capped
        assert np.array_equal(other.density, runs[0].density)


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


def run_batch_reference(table, deg, start, target, n, rng, t_cap):
    """The sampler's loop indexing every array through the live set: the
    reference for the compacted loop in gillespie._run_batch."""
    deg = deg.astype(np.int64)
    pos = np.full(n, start - 1, dtype=np.int64)
    t = np.zeros(n)
    hits = np.full(n, np.inf)
    alive = np.arange(n)
    capped = 0
    while len(alive):
        t[alive] += rng.exponential(1.0, size=len(alive))
        u = rng.random(len(alive))
        p = pos[alive]
        pos[alive] = table[p, (u * deg[p]).astype(np.int64)]
        arrived = pos[alive] == target - 1
        hit_idx = alive[arrived]
        hits[hit_idx] = t[hit_idx]
        over = (t[alive] > t_cap) & ~arrived
        capped += int(np.count_nonzero(over))
        alive = alive[~arrived & ~over]
    return hits, capped


@st.composite
def sampling_cases(draw):
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=8)))
    g = Graph(n=n, edges=frozenset(edges), labels=("chain",) * n)
    start = draw(st.integers(1, n))
    target = draw(st.integers(1, n).filter(lambda v: v != start))
    t_cap = draw(st.sampled_from([0.5, 2.0, 6.0, 1e4]))
    return g, start, target, t_cap, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(sampling_cases())
def test_compacted_batches_match_reference_loop(case):
    g, start, target, t_cap, seed = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gillespie_mod, "BATCH_SIZE", 97)
        # in-process: a pool per example costs a fork and a join, and
        # test_sample_does_not_depend_on_the_worker_count covers the pool
        mp.setattr(parallel, "usable_cpus", lambda: 1)
        hist = gillespie_first_passage(
            g, start, target, 300, seed=seed, bin_width=0.5, t_cap=t_cap
        )
    table, deg = gillespie_mod._neighbor_table(g)
    parts, capped = [], 0
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(4)):
        rng = np.random.default_rng(stream)
        hits, c = run_batch_reference(
            table, deg, start, target, min(97, 300 - 97 * i), rng, t_cap
        )
        parts.append(hits)
        capped += c
    assert np.array_equal(hist.hitting_times, np.concatenate(parts))
    assert hist.n_capped == capped
