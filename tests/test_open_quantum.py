import tracemalloc

import numpy as np
import pytest

from ctwalk import (
    LindbladConfig,
    NumericsError,
    SideChainConfig,
    TimeGrid,
    ValidationError,
    attach_sticky_vertex,
    build_hamiltonian,
    build_side_chain_graph,
    complement_flux,
    evolve_lindblad,
    evolve_schrodinger,
    overlay_l2_error,
    ring_first_passage,
    sticky_first_passage,
)
from ctwalk.experiments import run_pipeline
import ctwalk.open_quantum as open_quantum
from ctwalk.open_quantum import MAX_STICKY_VERTICES, POP_BLOCK, check_sticky
from ctwalk.quantum import spectrum


# the complement set the ancillary command passes by default on the 9-chain
CHAIN_SHORT_OF_TARGET = tuple(range(1, 9))


@pytest.fixture(scope="module")
def nine_chain():
    return build_side_chain_graph(SideChainConfig(N=9))


@pytest.fixture(scope="module")
def reference_nine(nine_chain):
    return run_pipeline(spectrum(nine_chain), 9, 0.01, 1e-6)


@pytest.fixture(scope="module")
def sticky_grid(reference_nine):
    result, _ = reference_nine
    return TimeGrid.from_span(result.tau0 + 6.0, 0.01)


def test_config_validation():
    with pytest.raises(ValidationError):
        LindbladConfig(rate=-1.0, potential=-2.5, direction="as-printed")
    with pytest.raises(ValidationError, match="as-printed or reversed, got 'sideways'"):
        LindbladConfig(rate=1.0, potential=-2.5, direction="sideways")
    with pytest.raises(ValidationError):
        LindbladConfig(rate=float("nan"), potential=-2.5, direction="as-printed")
    with pytest.raises(ValidationError):
        LindbladConfig(rate=1.0, potential=float("inf"), direction="as-printed")


def test_sticky_target_must_be_a_vertex(nine_chain):
    cfg = LindbladConfig(rate=1.0, potential=-1.0, direction="as-printed")
    with pytest.raises(ValidationError, match="vertex 10 not in graph with 9 vertices"):
        evolve_lindblad(nine_chain, 10, cfg, 1, TimeGrid.from_span(1.0, 0.01))


@pytest.mark.parametrize("v", [0, 11])
def test_sticky_sigma_vertices_must_be_vertices(nine_chain, v):
    """Vertex 0 would read the sticky vertex's population, as index -1."""
    cfg = LindbladConfig(rate=1.0, potential=-1.0, direction="reversed")
    with pytest.raises(ValidationError, match=f"vertex {v} out of range 1..10"):
        sticky_first_passage(nine_chain, 9, cfg, 1, TimeGrid.from_span(1.0, 0.01), (v, 1))


def test_sticky_vertex_count_is_bounded():
    def chain(n):  # the sticky vertex makes it n + 1
        return build_side_chain_graph(SideChainConfig(N=n))

    top = MAX_STICKY_VERTICES
    check_sticky(chain(top - 1), top - 1)
    cfg = LindbladConfig(rate=1.0, potential=-1.0, direction="as-printed")
    with pytest.raises(ValidationError, match=f"{top + 1} vertices exceeds the budget of {top}"):
        evolve_lindblad(chain(top), top, cfg, 1, TimeGrid.from_span(1.0, 0.01))


def test_sticky_work_is_bounded_in_lambda(nine_chain, sticky_grid, monkeypatch):
    def run(rate):
        cfg = LindbladConfig(rate=rate, potential=-2.5, direction="reversed")
        return evolve_lindblad(nine_chain, 9, cfg, 1, sticky_grid)

    # 6.7e4 substeps per grid step, about 100 s of propagation: refused before the first
    with pytest.raises(ValidationError, match=f"over {sticky_grid.n} grid steps of 10\\^2"):
        run(1e6)
    # one substep per grid step is the least a run takes: a budget of exactly that
    # admits lambda = 5 and refuses lambda = 100, which needs seven
    monkeypatch.setattr(open_quantum, "MAX_STICKY_WORK", sticky_grid.n * 10**2)
    assert run(5.0)[1]["trace_drift"] < 1e-8
    with pytest.raises(ValidationError, match="exceeds the budget"):
        run(100.0)


def test_closed_system_limit_matches_unitary(nine_chain):
    grid = TimeGrid.from_span(8.0, 0.02)
    cfg = LindbladConfig(rate=0.0, potential=0.0, direction="as-printed")
    pops, _ = evolve_lindblad(nine_chain, 9, cfg, 1, grid)
    sticky = attach_sticky_vertex(nine_chain, 9)
    amp = evolve_schrodinger(spectrum(sticky), 1, grid).span(0, grid.n).T
    assert np.max(np.abs(pops - np.abs(amp) ** 2)) < 1e-6


def test_dissipative_run_conserves_trace_and_positivity(nine_chain, sticky_grid):
    cfg = LindbladConfig(rate=5.0, potential=-2.5, direction="reversed")
    pops, diagnostics = evolve_lindblad(nine_chain, 9, cfg, 1, sticky_grid)
    assert diagnostics["trace_drift"] < 1e-8
    assert pops.min() > -1e-7 and pops.max() < 1 + 1e-7


def test_propagation_holds_one_block_of_rows():
    """perfbench's sticky op (N = 43) peaks near one (POP_BLOCK, n^2) buffer of rows."""
    g = build_side_chain_graph(SideChainConfig(N=43))
    cfg = LindbladConfig(rate=4.6, potential=-2.3, direction="reversed")
    tracemalloc.start()
    try:
        evolve_lindblad(g, 43, cfg, 1, TimeGrid.from_span(31.0, 0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * POP_BLOCK * (g.n + 1) ** 2 * 16  # complex128 rows


def _dense_populations(g, target, cfg, start, grid):
    """Populations of exp(t L) rho(0) for the n^2 x n^2 Liouvillian L.

    Built in the vertex basis with row-major vec(A X B) = kron(A, B^T) vec X
    and exponentiated through one eig of L: an exact reference that shares
    no step with the eigenbasis propagator.
    """
    g_sticky = attach_sticky_vertex(g, target)
    n = g_sticky.n
    h = build_hamiltonian(g_sticky, potential={n: cfg.potential})
    jump = np.zeros((n, n))
    if cfg.direction == "as-printed":  # L = |target><sticky|
        jump[target - 1, n - 1] = 1.0
    else:
        jump[n - 1, target - 1] = 1.0
    ldl = jump.T @ jump
    eye = np.eye(n)
    liou = -1j * (np.kron(h, eye) - np.kron(eye, h)) + cfg.rate * (
        np.kron(jump, jump) - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl)
    )
    lam, w = np.linalg.eig(liou)
    rho0 = np.zeros((n, n))
    rho0[start - 1, start - 1] = 1.0
    c = np.linalg.solve(w, rho0.ravel())
    diag = w[np.arange(n) * (n + 1)]
    return (diag @ (c[:, None] * np.exp(np.outer(lam, grid.times)))).real.T


@pytest.mark.parametrize("direction", ["reversed", "as-printed"])
@pytest.mark.parametrize("dt", [0.01, 0.3])  # 0.3 takes 11-12 Taylor substeps per step
def test_populations_match_dense_liouvillian(nine_chain, sticky_grid, direction, dt):
    cfg = LindbladConfig(rate=5.0, potential=-2.5, direction=direction)
    grid = TimeGrid.from_span(sticky_grid.t_end, dt)
    pops, _ = evolve_lindblad(nine_chain, 9, cfg, 1, grid)
    assert np.max(np.abs(pops - _dense_populations(nine_chain, 9, cfg, 1, grid))) <= 1e-12


@pytest.mark.parametrize("direction", ["reversed", "as-printed"])
def test_half_step_reproduces_populations(nine_chain, sticky_grid, direction):
    cfg = LindbladConfig(rate=5.0, potential=-2.5, direction=direction)
    half = TimeGrid(dt=sticky_grid.dt / 2, n=2 * sticky_grid.n - 1)
    coarse, _ = evolve_lindblad(nine_chain, 9, cfg, 1, sticky_grid)
    fine = evolve_lindblad(nine_chain, 9, cfg, 1, half)[0][::2]
    assert np.max(np.abs(coarse - fine)) <= 1e-12


def test_sticky_estimate_integrates_to_one(nine_chain, sticky_grid):
    cfg = LindbladConfig(rate=5.0, potential=-2.5, direction="reversed")
    est = sticky_first_passage(nine_chain, 9, cfg, 1, sticky_grid, tuple(range(1, 9)))
    assert est.diagnostics["solver"] == open_quantum.SOLVER
    t = sticky_grid.times
    mask = t <= est.tau0
    tt = np.append(t[mask], est.tau0)
    ff = np.append(est.F[mask], np.interp(est.tau0, t, est.F))
    assert np.trapezoid(ff, tt) == pytest.approx(1.0, abs=1e-6)


def test_sticky_overlay_reversed_direction(nine_chain, reference_nine, sticky_grid):
    """The drain-into-the-trap direction reproduces the convolution result."""
    result, ref_grid = reference_nine
    cfg = LindbladConfig(rate=5.0, potential=-2.5, direction="reversed")
    est_incl = sticky_first_passage(nine_chain, 9, cfg, 1, sticky_grid, tuple(range(1, 10)))
    err_incl = overlay_l2_error(est_incl, result.F, ref_grid, result.tau0)
    assert err_incl < 0.10
    # the printed direction pumps the trap back into the chain and fails badly
    cfg_printed = LindbladConfig(rate=5.0, potential=-2.5, direction="as-printed")
    est_p = sticky_first_passage(nine_chain, 9, cfg_printed, 1, sticky_grid, tuple(range(1, 10)))
    err_p = overlay_l2_error(est_p, result.F, ref_grid, result.tau0)
    assert err_p > err_incl


def test_ring_overlay_nine_path(nine_chain, reference_nine, sticky_grid):
    result, ref_grid = reference_nine
    est = ring_first_passage(
        nine_chain, 9, 10, 1, sticky_grid, sigma_vertices=tuple(range(1, 10))
    )
    assert overlay_l2_error(est, result.F, ref_grid, result.tau0) < 0.10
    assert est.diagnostics == {}


def test_larger_ring_delays_recurrence_and_does_not_hurt(
    nine_chain, reference_nine, sticky_grid
):
    result, ref_grid = reference_nine
    small = ring_first_passage(nine_chain, 9, 10, 1, sticky_grid, CHAIN_SHORT_OF_TARGET)
    big = ring_first_passage(nine_chain, 9, 200, 1, sticky_grid, CHAIN_SHORT_OF_TARGET)
    err_small = overlay_l2_error(small, result.F, ref_grid, result.tau0)
    err_big = overlay_l2_error(big, result.F, ref_grid, result.tau0)
    assert err_big <= err_small + 1e-12


def test_tiny_ring_recurs_before_reference_horizon(nine_chain, reference_nine, sticky_grid):
    result, _ = reference_nine
    est = ring_first_passage(nine_chain, 9, 4, 1, sticky_grid, CHAIN_SHORT_OF_TARGET)
    assert est.recurrence_time is not None
    assert est.recurrence_time < result.tau0
    # a comfortably sized ring does not recur inside the reference horizon
    big = ring_first_passage(nine_chain, 9, 10, 1, sticky_grid, CHAIN_SHORT_OF_TARGET)
    assert big.recurrence_time is None or big.recurrence_time > result.tau0


def test_constant_sigma_is_degenerate():
    grid = TimeGrid.from_span(2.0, 0.01)
    with pytest.raises(NumericsError, match="complement probability never decays"):
        complement_flux(np.ones(grid.n), grid)
