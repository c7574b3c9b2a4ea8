import tracemalloc

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
        2.9893336409332933, 9.8679046144598, 6.032290769822684,
        2.0676210880631833, 8.000597610055927, 1.2131187216753834,
        13.452087979098135, 8.434832107885482, 0.368051620113128,
        3.9332681817821387,
    ]
    other = gillespie_first_passage(path_graph(3), 1, 3, 10, seed=43, bin_width=0.5)
    assert not np.array_equal(hist.hitting_times, other.hitting_times)


def test_capped_run_is_frozen():
    hist = gillespie_first_passage(
        path_graph(9), 1, 9, 2000, seed=5, bin_width=1.0, t_cap=5.0
    )
    assert hist.n_capped == 1993
    hit = np.isfinite(hist.hitting_times)
    assert np.flatnonzero(hit).tolist() == [3, 43, 446, 543, 1109, 1328, 1460]
    # four arrive on the step that passes t_cap and still count as hits
    assert hist.hitting_times[hit].tolist() == [
        4.641868051532189, 5.742073864363049, 7.8023752399819095,
        5.2247323054210275, 5.306393331130567, 2.5292714630111197,
        4.937356537955459,
    ]


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


def test_uncapped_sample_is_not_copied():
    # the peak is the sample and the deviations np.std forms, 2.1 samples; a
    # copy of the finite times in the histogram, the mean or the stderr adds
    # one (all three made it 3.1 samples, 24.7 MB for 10^6 hitting times)
    n = 1_000_000
    tracemalloc.start()
    try:
        hist = gillespie_first_passage(
            build_side_chain_graph(SideChainConfig(N=9)), 1, 9, n, seed=1, bin_width=1.0
        )
        mean, stderr = hist.empirical_mean, hist.empirical_stderr
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.n_capped == 0
    assert peak < 2.25 * hist.hitting_times.nbytes
    assert mean == float(np.mean(hist.hitting_times))
    assert stderr == float(np.std(hist.hitting_times) / np.sqrt(n))


def test_capped_mean_and_stderr_are_over_the_finite_times():
    hist = gillespie_first_passage(
        path_graph(9), 1, 9, 2000, seed=5, bin_width=1.0, t_cap=40.0
    )
    finite = hist.hitting_times[np.isfinite(hist.hitting_times)]
    assert 0 < hist.n_capped == 2000 - len(finite)
    assert hist.empirical_mean == float(np.mean(finite))
    assert hist.empirical_stderr == float(np.std(finite) / np.sqrt(len(finite)))


def test_disconnected_graph_rejected():
    # the jump-count table would never lose the mass of a walk that cannot arrive
    g = Graph(n=4, edges=frozenset({(1, 2), (3, 4)}))
    with pytest.raises(ValidationError):
        gillespie_first_passage(g, 1, 3, 10, seed=0, bin_width=0.5)


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
        # more trajectories than MAX_TRAJ, rejected before sampling
        dict(start=1, target=2, n_traj=gillespie_mod.MAX_TRAJ + 1, seed=0, bin_width=0.5),
        # SeedSequence takes no negative seed
        dict(start=1, target=2, n_traj=10, seed=-1, bin_width=0.5),
    ],
)
def test_bad_arguments_rejected(kwargs):
    with pytest.raises(ValidationError):
        gillespie_first_passage(path_graph(2), **kwargs)


def run_batch_reference(table, deg, start, target, n, rng, t_cap):
    """The walk simulated step by step, every array indexed through the live
    set: the reference the jump-count sampler must match in distribution."""
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
    g = Graph(n=n, edges=frozenset(edges))
    start = draw(st.integers(1, n))
    target = draw(st.integers(1, n).filter(lambda v: v != start))
    t_cap = draw(st.sampled_from([0.5, 2.0, 6.0, 1e4]))
    return g, start, target, t_cap, draw(st.integers(0, 2**32 - 1))


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance; capped (inf) times sort last."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, x, side="right") / len(a)
                        - np.searchsorted(b, x, side="right") / len(b)).max())


def ks_critical(n, m, alpha=1e-6):
    """Asymptotic two-sample critical distance, conservative for the atom at
    inf; alpha is small because hypothesis runs many examples."""
    return float(np.sqrt(-np.log(alpha / 2) * (n + m) / (2 * n * m)))


def neighbor_table(g):
    """Zero-padded neighbor rows (0-based) and the degrees."""
    deg = np.array([g.degree(v) for v in range(1, g.n + 1)])
    table = np.zeros((g.n, deg.max()), dtype=np.int64)
    for v in range(1, g.n + 1):
        table[v - 1, : deg[v - 1]] = np.array(g.neighbors(v)) - 1
    return table, deg


def reference_sample(g, start, target, n, seed, t_cap):
    table, deg = neighbor_table(g)
    return run_batch_reference(table, deg, start, target, n, np.random.default_rng(seed), t_cap)


@settings(max_examples=20, deadline=None)
@given(sampling_cases())
def test_jump_count_sample_matches_step_by_step_walk(case):
    g, start, target, t_cap, seed = case
    n = 100_000
    hist = gillespie_first_passage(g, start, target, n, seed=seed, bin_width=0.5, t_cap=t_cap)
    ref, _ = reference_sample(g, start, target, n, seed + 1, t_cap)
    assert ks_distance(hist.hitting_times, ref) < ks_critical(n, n)


@settings(max_examples=200, deadline=None)
@given(sampling_cases())
def test_jump_count_table_ends_at_one(case):
    # the mass left out is below half an ulp at 1, so no uniform lies beyond the table
    g, start, target, _, seed = case
    cdf = gillespie_mod._jump_count_table(g, start, target)
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], np.nextafter(cdf[:-1], 1.0),
                        np.random.default_rng(seed).random(1000)])
    u = u[u < 1.0]
    assert np.array_equal(gillespie_mod._guided_search(cdf, gillespie_mod._guide_table(cdf), u),
                          np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("n, s", [(9, 0), (43, 2)], ids=["side-chain-9", "side-chain-43-2"])
def test_guide_table_lookup_is_searchsorted(n, s):
    g = build_side_chain_graph(SideChainConfig(N=n, S=s))
    cdf = gillespie_mod._jump_count_table(g, 1, n)
    guide = gillespie_mod._guide_table(cdf)
    size = len(guide) - 1
    assert size & (size - 1) == 0 and len(cdf) <= size < 2 * len(cdf)
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)],
        np.arange(size) / size,  # every bucket boundary
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
        np.random.default_rng(0).random(100_000),
    ])
    u = u[u < 1.0]
    b = (u * size).astype(np.intp)
    width = guide[b + 1] - guide[b]
    assert (width <= 1).any() and (width > 1).any()  # both ways of the lookup are taken
    index = gillespie_mod._guided_search(cdf, guide, u)
    assert np.array_equal(index, np.searchsorted(cdf, u, side="right"))
    assert index.max() < len(cdf)


def jump_count_pmf(g, start, target, k_max):
    """P(K = k) for k = 1 .. k_max, one power of the jump matrix at a time."""
    adj = g.adjacency()
    jump = adj / adj.sum(axis=1)[:, None]
    x = np.eye(g.n)[start - 1]
    pmf = []
    for _ in range(k_max):
        x = x @ jump
        pmf.append(x[target - 1])
        x[target - 1] = 0.0
    return np.array(pmf)


@pytest.mark.parametrize("n, s", [(9, 0), (43, 2)])
def test_jump_count_table_mean_is_the_linear_solve_mfpt(n, s):
    # unit exit rates: the mean hitting time is the mean jump count
    g = build_side_chain_graph(SideChainConfig(N=n, S=s))
    cdf = gillespie_mod._jump_count_table(g, 1, n)
    assert cdf[-1] == 1.0
    pmf = np.diff(cdf, prepend=0.0)
    mean = float(np.arange(1, len(pmf) + 1) @ pmf)
    assert mean == pytest.approx(mfpt_linear_solve(g, 1, n), rel=1e-9)
    assert np.allclose(pmf[:500], jump_count_pmf(g, 1, n, 500), rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("g, target", [
    (build_side_chain_graph(SideChainConfig(N=9)), 9),
    (build_side_chain_graph(SideChainConfig(N=43, S=2)), 43),
    (build_side_chain_graph(SideChainConfig(N=101)), 101),
    (build_side_chain_graph(SideChainConfig(N=21, S=5, offset=-3)), 1),
    (Graph(n=6, edges=frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)})), 4),
], ids=["side-chain-9", "side-chain-43-2", "side-chain-101", "side-chain-21-5-to-1",
        "cycle-6-chord"])
def test_table_length_estimate_is_the_real_length(g, target):
    start = g.n if target == 1 else 1
    real = len(gillespie_mod._jump_count_table(g, start, target))
    assert gillespie_mod.table_length_estimate(g, target) == pytest.approx(real, rel=0.01)


def test_table_length_estimate_without_free_edges():
    # a star to its center: every jump arrives, so the table is the one entry K = 1
    g = Graph(n=4, edges=frozenset({(1, 2), (1, 3), (1, 4)}))
    assert len(gillespie_mod._jump_count_table(g, 2, 1)) == 1
    assert gillespie_mod.table_length_estimate(g, 1) == 1.0
    assert gillespie_mod.table_length_estimate(path_graph(2), 2) == 1.0


def test_oversized_table_is_refused_before_it_is_built(monkeypatch):
    def boom(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(gillespie_mod, "_jump_count_table", boom)
    g = build_side_chain_graph(SideChainConfig(N=251))  # 1.98M entries x 251^2 = 1.25e11
    with pytest.raises(ValidationError, match="jump-count table to vertex 251 would hold"):
        gillespie_first_passage(g, 1, 251, 10, seed=0, bin_width=1.0)
    monkeypatch.setattr(gillespie_mod, "MAX_TABLE_WORK", 1.3e11)
    with pytest.raises(AssertionError, match="the table was built"):
        gillespie_first_passage(g, 1, 251, 10, seed=0, bin_width=1.0)


def test_capped_fraction_is_the_phase_type_gamma_tail():
    # capped iff the clock after the K - 1 jumps that do not arrive passes
    # t_cap, and P(Gamma(k - 1, 1) > t) = P(Poisson(t) < k - 1)
    n, t_cap, k_max = 100_000, 5.0, 3000
    g = path_graph(9)
    hist = gillespie_first_passage(g, 1, 9, n, seed=8, bin_width=1.0, t_cap=t_cap)
    poisson = np.exp(-t_cap) * np.cumprod(np.concatenate([[1.0], t_cap / np.arange(1, k_max)]))
    below = np.concatenate([[0.0], np.cumsum(poisson)[:-1]])  # P(Poisson < j), j = 0 ..
    p = float(jump_count_pmf(g, 1, 9, k_max) @ below)  # entry k - 1 against j = k - 1
    se = np.sqrt(p * (1 - p) / n)
    assert abs(hist.n_capped / n - p) < 4 * se
