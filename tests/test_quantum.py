import numpy as np
import pytest

from ctwalk import (
    SideChainConfig,
    TimeGrid,
    ValidationError,
    attach_sticky_vertex,
    build_hamiltonian,
    build_rate_matrix,
    build_side_chain_graph,
    evolve_schrodinger,
    path_graph,
    transition_probabilities,
    vertex_occupations,
)
from ctwalk.quantum import spectrum


def chain(n, s=0, offset=0):
    return build_side_chain_graph(SideChainConfig(N=n, S=s, offset=offset))


def rk4_schrodinger(h, psi0, t_end, step):
    """Fixed-step RK4 for psi' = -i H psi; the independent evolution oracle."""
    steps = int(round(t_end / step))
    psi = psi0.astype(complex).copy()
    out = [psi.copy()]
    m = -1j * h
    for _ in range(steps):
        k1 = m @ psi
        k2 = m @ (psi + 0.5 * step * k1)
        k3 = m @ (psi + 0.5 * step * k2)
        k4 = m @ (psi + step * k3)
        psi = psi + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(psi.copy())
    return np.array(out)


def test_two_path_hamiltonian():
    assert np.array_equal(build_hamiltonian(path_graph(2)), [[0, 1], [1, 0]])


def test_three_path_hamiltonian_tridiagonal():
    h = build_hamiltonian(path_graph(3))
    assert np.array_equal(h, np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1))


def test_sticky_potential_on_diagonal():
    g = attach_sticky_vertex(chain(9), 9)
    h = build_hamiltonian(g, potential={10: -2.5})
    assert h[9, 9] == -2.5
    assert h[8, 9] == 1.0


def test_two_path_rabi_oscillation():
    grid = TimeGrid.from_span(8.0, 0.01)
    psi = evolve_schrodinger(spectrum(path_graph(2)), 1, grid).span(0, grid.n)
    assert np.max(np.abs(np.abs(psi[1]) ** 2 - np.sin(grid.times) ** 2)) < 1e-12


def test_three_path_transfer_probability():
    # eigenvalues 0, +-sqrt(2) give |psi_3|^2 = sin^4(t / sqrt(2))
    grid = TimeGrid.from_span(10.0, 0.01)
    p13 = transition_probabilities(spectrum(path_graph(3)), 1, (3,), grid)[0]
    assert np.max(np.abs(p13 - np.sin(grid.times / np.sqrt(2)) ** 4)) < 1e-12


def test_initial_condition_is_delta():
    psi = evolve_schrodinger(
        spectrum(chain(9, 2)), 3, TimeGrid.from_span(1.0, 0.1)
    ).span(0, 1)
    delta = np.zeros(11, dtype=complex)
    delta[2] = 1.0
    assert np.max(np.abs(psi[:, 0] - delta)) < 1e-12


def test_norm_conservation():
    grid = TimeGrid.from_span(50.0, 0.05)
    psi = evolve_schrodinger(spectrum(chain(9, 2, offset=1)), 1, grid).span(0, grid.n)
    norms = (np.abs(psi) ** 2).sum(axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_transition_symmetry():
    grid = TimeGrid.from_span(12.0, 0.05)
    h = spectrum(chain(9, 2, offset=1))
    for a, b in [(1, 9), (2, 10), (4, 7)]:
        p_ab = transition_probabilities(h, a, (b,), grid)[0]
        p_ba = transition_probabilities(h, b, (a,), grid)[0]
        assert np.max(np.abs(p_ab - p_ba)) < 1e-10


def test_reflection_symmetry_of_centered_model():
    grid = TimeGrid.from_span(12.0, 0.05)
    h = spectrum(chain(9, 1, offset=0))
    p_1n = transition_probabilities(h, 1, (9,), grid)[0]
    p_n1 = transition_probabilities(h, 9, (1,), grid)[0]
    assert np.max(np.abs(p_1n - p_n1)) < 1e-12


def test_spectral_matches_rk4_on_nine_path():
    g = path_graph(9)
    grid = TimeGrid.from_span(20.0, 0.01)
    psi = evolve_schrodinger(spectrum(g), 1, grid).span(0, grid.n)
    psi0 = np.zeros(9, dtype=complex)
    psi0[0] = 1.0
    oracle = rk4_schrodinger(build_hamiltonian(g), psi0, 20.0, 0.01)
    assert np.max(np.abs(psi.T - oracle)) < 1e-6


def test_full_evolution_matches_selected_vertices_bitwise():
    # 5,001 points span two blocks of the shared blocked evaluator
    h = spectrum(chain(9, 2, offset=1))
    grid = TimeGrid.from_span(50.0, 0.01)
    amp = evolve_schrodinger(h, 3, grid).span(0, grid.n)
    everyone = transition_probabilities(h, 3, tuple(range(1, h.n + 1)), grid)
    assert np.array_equal(np.abs(amp) ** 2, everyone)
    assert np.array_equal(transition_probabilities(h, 3, (9, 4), grid), everyone[[8, 3]])


def test_occupations_sum_to_one():
    grid = TimeGrid.from_span(10.0, 0.1)
    psi = evolve_schrodinger(spectrum(chain(9, 1)), 1, grid).span(0, grid.n)
    total = sum(np.abs(psi[v - 1]) ** 2 for v in range(1, 11))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_two_path_period_is_pi():
    grid = TimeGrid.from_span(4.0 * np.pi, 0.001)
    psi = evolve_schrodinger(spectrum(path_graph(2)), 1, grid).span(0, grid.n)
    p2 = np.abs(psi[1]) ** 2
    shift = int(round(np.pi / grid.dt))
    # pi is not a grid point; the mismatch is bounded by one step of slope <= 1
    assert np.max(np.abs(p2[shift:] - p2[:-shift])) < grid.dt


def test_unknown_vertex_rejected():
    g, grid = path_graph(3), TimeGrid(0.1, 5)
    # vertex 0 would otherwise wrap around to the last row
    for select in (lambda v: transition_probabilities(spectrum(g), 1, (v,), grid),
                   lambda v: vertex_occupations(build_rate_matrix(g), 1, (v,), grid)):
        for v in (0, 4):
            with pytest.raises(ValidationError, match=f"vertex {v} out of range 1..3"):
                select(v)
