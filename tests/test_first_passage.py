from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from ctwalk import (
    Graph,
    NoZeroCrossingError,
    NumericsError,
    SideChainConfig,
    TimeGrid,
    ValidationError,
    build_rate_matrix,
    build_side_chain_graph,
    deconvolve,
    detect_tau0,
    mean_fpt,
    mfpt_linear_solve,
    path_graph,
    reconstruct,
    run_case,
    transition_probabilities,
    vertex_occupations,
)
import ctwalk.experiments as experiments
from ctwalk.first_passage import SOLVE_BLOCK, _fft_size, solve_exp_sum
from ctwalk.gillespie import _jump_count_table
from ctwalk.grid import exp_modes
from ctwalk.quantum import spectrum

DT = 0.01


def classical_pair(n, t_end, dt=DT, s=0, offset=0):
    g = build_side_chain_graph(SideChainConfig(N=n, S=s, offset=offset))
    rm = build_rate_matrix(g)
    grid = TimeGrid.from_span(t_end, dt)
    p_ab = vertex_occupations(rm, 1, (n,), grid)[0]
    p_bb = vertex_occupations(rm, n, (n,), grid)[0]
    return p_ab, p_bb, grid


def quantum_pair(n, t_end, dt=DT, s=0, offset=0):
    g = build_side_chain_graph(SideChainConfig(N=n, S=s, offset=offset))
    h = spectrum(g)
    grid = TimeGrid.from_span(t_end, dt)
    p_ab = transition_probabilities(h, 1, (n,), grid)[0]
    p_bb = transition_probabilities(h, n, (n,), grid)[0]
    return p_ab, p_bb, grid


def forward_substitution(b, p_bb, dt, f0):
    """Scalar product-trapezoid recurrence: the reference for every solver."""
    T = len(b)
    F = np.empty(T)
    F[0] = f0
    for n in range(1, T):
        acc = 0.5 * f0 * p_bb[n]
        if n > 1:
            acc += np.dot(F[1:n], p_bb[n - 1:0:-1])
        F[n] = 2.0 * (b[n] / dt - acc)
    return F


# ---------------------------------------------------------------------------
# deconvolution against analytic solutions
# ---------------------------------------------------------------------------

def test_classical_two_path_is_unit_exponential():
    """F = exp(-t): forward-convolving it with P_22 must return P_12."""
    p12, p22, grid = classical_pair(2, 6.0)
    t = grid.times
    f_exact = np.exp(-t)
    # independent check of the analytic solution itself (quadrature, no solver)
    forward = reconstruct(f_exact, p22, grid)
    assert np.max(np.abs(forward - p12)) < 1e-4
    f = deconvolve(p12, p22, grid, 1.0)
    assert np.max(np.abs(f - f_exact)) < 5e-4


def test_quantum_two_path_is_scaled_sine():
    """Laplace transform of the renewal relation gives F = sqrt(2) sin(sqrt(2) t)."""
    p12, p22, grid = quantum_pair(2, 5.0)
    t = grid.times
    f_exact = np.sqrt(2.0) * np.sin(np.sqrt(2.0) * t)
    forward = reconstruct(f_exact, p22, grid)
    assert np.max(np.abs(forward - p12)) < 1e-4
    f = deconvolve(p12, p22, grid, 0.0)
    assert np.max(np.abs(f - f_exact)) < 5e-4


def test_zero_input_gives_zero_density():
    _, p22, grid = quantum_pair(2, 3.0)
    f = deconvolve(np.zeros(grid.n), p22, grid, 0.0)
    assert np.array_equal(f, np.zeros(grid.n))
    assert np.array_equal(reconstruct(np.zeros(grid.n), p22, grid), np.zeros(grid.n))


def side_chain_pair(walk, start, target, n, s=0):
    """Series of a start -> target pair on an n-point grid: P_ab, P_bb, exact F(0), grid."""
    g = build_side_chain_graph(SideChainConfig(N=5, S=s, offset=0))
    grid = TimeGrid(dt=DT, n=n)
    if walk == "quantum":
        h = spectrum(g)
        p_ab = transition_probabilities(h, start, (target,), grid)[0]
        p_bb = transition_probabilities(h, target, (target,), grid)[0]
        f0 = 0.0
    else:
        rm = build_rate_matrix(g)
        p_ab = vertex_occupations(rm, start, (target,), grid)[0]
        p_bb = vertex_occupations(rm, target, (target,), grid)[0]
        f0 = rm.matrix[target - 1, start - 1]
    return p_ab, p_bb, f0, grid


@pytest.mark.parametrize("n", [3, 4, SOLVE_BLOCK, SOLVE_BLOCK + 1, SOLVE_BLOCK + 2,
                               2 * SOLVE_BLOCK + 7, 3611, 12301])
@pytest.mark.parametrize("walk, start, target, s", [
    ("quantum", 1, 5, 0), ("classical", 1, 5, 0), ("classical", 4, 5, 2),
], ids=["quantum", "classical", "classical-adjacent"])
def test_blocked_solve_matches_forward_substitution(n, walk, start, target, s):
    p_ab, p_bb, f0, grid = side_chain_pair(walk, start, target, n, s)
    assert (f0 != 0.0) == (walk == "classical" and target - start == 1)
    ref = forward_substitution(p_ab, p_bb, grid.dt, f0)
    f = deconvolve(p_ab, p_bb, grid, f0)
    assert np.max(np.abs(f - ref)) < 1e-9
    residual = np.max(np.abs(reconstruct(f, p_bb, grid) - p_ab))
    ref_residual = np.max(np.abs(reconstruct(ref, p_bb, grid) - p_ab))
    assert residual <= 2.0 * ref_residual


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_quantum_round_trip_nine_path():
    p19, p99, grid = quantum_pair(9, 14.0)
    f = deconvolve(p19, p99, grid, 0.0)
    assert np.max(np.abs(reconstruct(f, p99, grid) - p19)) < 1e-4


def test_classical_round_trip_nine_path():
    p19, p99, grid = classical_pair(9, 900.0)
    f = deconvolve(p19, p99, grid, 0.0)
    assert np.max(np.abs(reconstruct(f, p99, grid) - p19)) < 1e-5


# ---------------------------------------------------------------------------
# horizon detection
# ---------------------------------------------------------------------------

def test_quantum_two_path_horizon():
    p12, p22, grid = quantum_pair(2, 5.0)
    f = deconvolve(p12, p22, grid, 0.0)
    tau0 = detect_tau0(f, grid)
    assert tau0 == pytest.approx(np.pi / np.sqrt(2.0), abs=1e-3)


def test_classical_two_path_horizon_is_log_eps():
    result, _ = experiments.run_pipeline(build_rate_matrix(path_graph(2)), 2, DT, 1e-6)
    assert result.tau0 == pytest.approx(-np.log(1e-6), abs=0.02)


def test_classical_horizon_is_the_mass_crossing_on_the_grid():
    rm = build_rate_matrix(build_side_chain_graph(SideChainConfig(N=9, S=2, offset=0)))
    result, grid = experiments.run_pipeline(rm, 9, DT, 1e-6)
    f = np.asarray(result.F)
    mass = DT * (np.cumsum(f) - 0.5 * (f[0] + f))  # trapezoid, summed independently
    crossed = np.nonzero(1.0 - mass < 1e-6)[0]
    assert len(crossed) > 0
    assert result.tau0 == grid.times[crossed[0]]
    assert result.tau0 < grid.t_end


def test_classical_horizon_falls_back_to_the_survival_horizon(monkeypatch):
    """A grid that ends before the F mass reaches 1 - eps takes t_eps itself."""
    monkeypatch.setattr(experiments.classical, "survival_horizon", lambda *a, **k: 5.0)
    rm = build_rate_matrix(build_side_chain_graph(SideChainConfig(N=9, S=2, offset=0)))
    result, grid = experiments.run_pipeline(rm, 9, DT, 1e-6)
    assert grid.t_end == pytest.approx(5.0 * 1.05 + 4.0, abs=DT)
    f = np.asarray(result.F)
    assert 1.0 - DT * (np.sum(f) - 0.5 * (f[0] + f[-1])) > 1e-6
    assert result.tau0 == 5.0


def test_quantum_no_zero_crossing_raises():
    grid = TimeGrid.from_span(5.0, DT)
    f = np.exp(-grid.times)  # positive everywhere
    with pytest.raises(NoZeroCrossingError):
        detect_tau0(f, grid)


# ---------------------------------------------------------------------------
# mean first-passage time
# ---------------------------------------------------------------------------

def test_classical_two_path_mean_is_one():
    p12, p22, grid = classical_pair(2, 16.0)
    f = deconvolve(p12, p22, grid, 1.0)
    result = mean_fpt(f, grid, -np.log(1e-6))  # F = exp(-t) has mass 1 - 1e-6 there
    assert result.tau == pytest.approx(1.0, abs=1e-4)


def test_quantum_two_path_mean():
    p12, p22, grid = quantum_pair(2, 5.0)
    f = deconvolve(p12, p22, grid, 0.0)
    tau0 = detect_tau0(f, grid)
    result = mean_fpt(f, grid, tau0)
    # integrals of t sqrt(2) sin(sqrt(2) t) over [0, pi/sqrt(2)] give pi sqrt(2)/4
    assert result.tau == pytest.approx(np.pi * np.sqrt(2.0) / 4.0, abs=1e-4)
    assert result.norm == pytest.approx(2.0, abs=1e-3)


def test_classical_nine_path_matches_oracle_within_one_percent():
    record = run_case(9, 0, 0, "classical")
    oracle = mfpt_linear_solve(path_graph(9), 1, 9)
    assert abs(record.tau - oracle) / oracle < 0.01


def test_zero_norm_raises():
    grid = TimeGrid.from_span(1.0, DT)
    with pytest.raises(NumericsError, match="F integrates to 0.0; mean undefined"):
        mean_fpt(np.zeros(grid.n), grid, 0.5)


def test_tau0_outside_grid_rejected():
    grid = TimeGrid.from_span(1.0, DT)
    with pytest.raises(ValidationError):
        mean_fpt(np.ones(grid.n), grid, 2.0)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_classical_density_nonnegative_and_mass_monotone():
    for n, t_end in [(9, 900.0), (5, 260.0)]:
        p_ab, p_bb, grid = classical_pair(n, t_end)
        f = deconvolve(p_ab, p_bb, grid, 0.0)
        assert f.min() > -1e-9
        mass = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * grid.dt)])
        assert np.diff(mass).min() > -1e-9
        assert mass.max() < 1.0 + 1e-6


def test_halving_dt_moves_tau_less_than_permille():
    for walk in ("classical", "quantum"):
        coarse = run_case(9, 0, 0, walk, dt=0.01)
        fine = run_case(9, 0, 0, walk, dt=0.005)
        assert abs(fine.tau - coarse.tau) / coarse.tau < 1e-3


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_bad_kernel_rejected():
    grid = TimeGrid.from_span(1.0, DT)
    good = np.zeros(grid.n)
    bad_kernel = np.full(grid.n, 0.5)
    with pytest.raises(NumericsError):
        deconvolve(good, bad_kernel, grid, 0.0)


def test_nonzero_start_rejected():
    grid = TimeGrid.from_span(1.0, DT)
    kernel = np.ones(grid.n)
    with pytest.raises(ValidationError):
        deconvolve(np.ones(grid.n), kernel, grid, 0.0)


def test_grid_mismatch_rejected():
    grid = TimeGrid.from_span(1.0, DT)
    with pytest.raises(ValidationError, match="series must be 1-d and share a grid"):
        deconvolve(np.zeros(grid.n), np.ones(grid.n - 1), grid, 0.0)
    with pytest.raises(ValidationError, match="series length 100 != grid length 101"):
        reconstruct(np.zeros(grid.n - 1), np.ones(grid.n - 1), grid)


# ---------------------------------------------------------------------------
# exact exponential-sum solve of the classical system
# ---------------------------------------------------------------------------

def star_graph(n):
    return Graph(n=n, edges=frozenset((1, v) for v in range(2, n + 1)))


def exact_and_direct(g, start, target, grid):
    """Closed-form F next to forward substitution on the same series and F(0).

    Also returns sum |c_j| / dt, the size of the modal sums both solvers
    round at.
    """
    rm = build_rate_matrix(g)
    balance = rm.degrees[target - 1] / rm.degrees[start - 1]
    rates, coefs = rm.spectrum.rates, rm.spectrum.modes(target, (start, target))
    coefs[0] *= balance
    f0 = rm.matrix[target - 1, start - 1]
    p_ab, p_bb = exp_modes(rates, coefs, grid).span(0, grid.n)
    f_exact = solve_exp_sum(rates, coefs, grid, f0)
    f_direct = forward_substitution(p_ab, p_bb, grid.dt, f0)
    return f_exact, f_direct, np.abs(coefs[0]).sum() / grid.dt


def assert_same_solution(f_exact, f_direct, modal):
    err = np.max(np.abs(f_exact - f_direct))
    assert err <= 1e-13 * modal
    # before the density rises, max|F| is below the rounding of the modal sums
    if np.argmax(f_direct) < len(f_direct) - 1:
        assert err <= 1e-11 * np.max(np.abs(f_exact))


@st.composite
def connected_cases(draw):
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=8)))
    g = Graph(n=n, edges=frozenset(edges))
    start = draw(st.integers(1, n))
    target = draw(st.integers(1, n).filter(lambda v: v != start))
    grid = TimeGrid(dt=draw(st.sampled_from([0.05, 0.1])), n=draw(st.integers(3, 3000)))
    return g, start, target, grid


@settings(max_examples=100, deadline=None)
@given(connected_cases())
def test_exact_solve_matches_forward_substitution(case):
    assert_same_solution(*exact_and_direct(*case))


def test_exact_solve_adjacent_pair_keeps_hop_rate():
    g = build_side_chain_graph(SideChainConfig(N=5, S=2, offset=0))
    f_exact, f_direct, modal = exact_and_direct(g, 4, 5, TimeGrid(dt=0.01, n=3000))
    assert f_exact.at(0) == 0.5
    assert_same_solution(f_exact, f_direct, modal)


def test_exact_solve_star_leaf_to_leaf():
    """Five equal rates and modes with zero weight on the target."""
    f_exact, f_direct, modal = exact_and_direct(star_graph(7), 2, 7, TimeGrid(dt=0.05, n=3000))
    assert f_exact.at(0) == 0.0
    assert_same_solution(f_exact, f_direct, modal)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_classical_pipeline_matches_forward_substitution(n, s):
    """The modal horizon and mean equal grid quadrature of the forward-substitution F."""
    # dt = 0.02 keeps the O(T^2) reference under 9,000 points
    dt, eps = 0.02, 1e-6
    rm = build_rate_matrix(build_side_chain_graph(SideChainConfig(N=n, S=s, offset=0)))
    exact, grid = experiments.run_pipeline(rm, n, dt, eps)
    coefs = rm.spectrum.modes(n, (1, n))
    coefs[0] *= rm.degrees[n - 1] / rm.degrees[0]
    p_ab, p_bb = exp_modes(rm.spectrum.rates, coefs, grid).span(0, grid.n)
    f = forward_substitution(p_ab, p_bb, dt, rm.matrix[n - 1, 0])
    mass = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * dt)])
    crossed = np.nonzero(1.0 - mass < eps)[0]
    assert len(crossed) > 0
    ref = mean_fpt(f, grid, grid.times[crossed[0]])
    assert exact.tau == pytest.approx(ref.tau, rel=1e-10, abs=0.0)
    assert exact.norm == pytest.approx(ref.norm, rel=1e-10, abs=0.0)
    assert exact.tau0 == ref.tau0


@pytest.mark.parametrize("n", [3, 4])
def test_classical_fallback_mean_matches_grid_quadrature(monkeypatch, n):
    """A survival horizon short of the F-mass crossing, between grid points, is tau0 itself."""
    monkeypatch.setattr(experiments.classical, "survival_horizon", lambda *a, **k: 5.003)
    rm = build_rate_matrix(build_side_chain_graph(SideChainConfig(N=n, S=1, offset=0)))
    exact, grid = experiments.run_pipeline(rm, n, 0.02, 1e-6)
    assert exact.tau0 == 5.003
    ref = mean_fpt(np.asarray(exact.F), grid, 5.003)  # interpolates F at 5.003
    assert exact.tau == pytest.approx(ref.tau, rel=1e-12, abs=0.0)
    assert exact.norm == pytest.approx(ref.norm, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [3, 21, 43])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_modal_bound_covers_the_round_trip_residual(n, s):
    """The classical residual is a bound: at least what reconstruct measures on the grid.

    N = 3, S = 1, N = 21, S = 2 and N = 43, S = 1 have rates that must be
    deflated for the bound to be usable.
    """
    rm = build_rate_matrix(build_side_chain_graph(SideChainConfig(N=n, S=s, offset=0)))
    result, grid = experiments.run_pipeline(rm, n, DT, 1e-6)
    assert result.residual_kind == "modal_bound"
    p_ab, p_bb = np.asarray(result.p_ab), np.asarray(result.p_bb)
    measured = np.max(np.abs(reconstruct(np.asarray(result.F), p_bb, grid) - p_ab))
    assert measured <= result.reconstruction_error <= 1e-10


def test_classical_pipeline_uses_exact_hop_rate():
    """F(0) is the hop rate 1/6 from the model, even where dt = 0.2 is coarser than it."""
    g = star_graph(7)
    result, _ = experiments.run_pipeline(build_rate_matrix(g), 7, 0.2, 1e-6)
    oracle = mfpt_linear_solve(g, 1, 7)
    assert result.F.at(0) == 1.0 / 6.0
    assert abs(result.tau - oracle) / oracle < 0.003


def test_classical_hot_path_size():
    """N = 43, S = 2: the largest grid of the paper's classical sweep."""
    g = build_side_chain_graph(SideChainConfig(N=43, S=2, offset=0))
    result, grid = experiments.run_pipeline(build_rate_matrix(g), 43, DT, 1e-6)
    oracle = mfpt_linear_solve(g, 1, 43)
    assert grid.n == 2212786
    assert result.reconstruction_error <= 1e-11
    assert abs(result.tau - oracle) / oracle <= 2e-5


def test_fft_size_is_smallest_five_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    want = [next(m for m in range(n, 2 * n + 1) if smooth(m)) for n in range(1, 5001)]
    assert [_fft_size(n) for n in range(1, 5001)] == want


def uniformized_density(pmf, t):
    """F(t) = sum_k P(K = k) e^(-t) t^(k-1) / (k-1)!: the first arrival after K jumps,
    each after an Exp(1) holding time (Jensen 1953; Norris 1997, sec. 2.6), with the
    Poisson weights taken in log space."""
    j = np.arange(len(pmf))  # k - 1
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, len(pmf))))])
    return np.array([pmf @ np.exp(j * np.log(x) - x - log_fact) for x in t])


@pytest.mark.parametrize("n, s", [(9, 0), (43, 2)])
def test_classical_density_against_the_uniformization_oracle(n, s):
    """The pipeline's F against an exact F that shares nothing with its eigh: the
    gap, O(dt^2), falls 4x on halving dt."""
    g = build_side_chain_graph(SideChainConfig(N=n, S=s, offset=0))
    pmf = np.diff(_jump_count_table(g, 1, n), prepend=0.0)
    rm = build_rate_matrix(g)
    coarse, _ = experiments.run_pipeline(rm, n, 0.01, 1e-6)
    fine, _ = experiments.run_pipeline(rm, n, 0.005, 1e-6)
    k = np.unique(np.linspace(1, round(coarse.tau0 / 0.01), 400).astype(int))
    exact = uniformized_density(pmf, 0.01 * k)
    gaps = [max(abs(result.F.at(int(i)) - f) for i, f in zip(step * k, exact)) / exact.max()
            for result, step in ((coarse, 1), (fine, 2))]
    assert gaps[0] < 4e-6
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.1)
