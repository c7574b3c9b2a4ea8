import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctwalk import (
    SideChainConfig,
    TimeGrid,
    ValidationError,
    average_entropy,
    bipartite_coloring,
    build_side_chain_graph,
    entropy_series,
    evolve_schrodinger,
    path_graph,
    reduce_density,
    von_neumann_entropy,
)
from ctwalk.quantum import spectrum


def coloring_of(n, s=0):
    return bipartite_coloring(build_side_chain_graph(SideChainConfig(N=n, S=s)))


def random_states(dim):
    return st.lists(
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=dim, max_size=dim
    ).map(
        lambda pairs: np.array([complex(a, b) for a, b in pairs])
    ).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
        lambda v: v / np.linalg.norm(v)
    )


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_localized_state_reduces_to_pure_class():
    c = coloring_of(3)
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    rho = reduce_density(psi, c)
    assert np.allclose(rho, np.diag([1.0, 0.0]))


def test_single_class_superposition_stays_diagonal_weighted():
    c = coloring_of(3)  # classes {1,3} and {2}
    psi = np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = reduce_density(psi, c)
    assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert rho[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_balanced_two_path_superposition():
    c = coloring_of(2)
    psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = reduce_density(psi, c)
    assert np.allclose(rho, 0.5 * np.ones((2, 2)))


def test_dimension_and_norm_validation():
    c = coloring_of(3)
    with pytest.raises(ValidationError):
        reduce_density(np.array([1.0, 0.0]), c)
    with pytest.raises(ValidationError):
        reduce_density(np.array([1.0, 0.0, 1.0]), c)


@given(random_states(5))
def test_reduction_is_a_density_matrix(psi):
    c = coloring_of(5)
    rho = reduce_density(psi, c)
    assert np.allclose(rho, rho.conj().T)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(rho).min() > -1e-9


@given(random_states(6), st.floats(0.0, 2.0 * np.pi))
def test_entropy_is_phase_invariant_and_bounded(psi, phase):
    c = coloring_of(5, s=1)
    e1 = von_neumann_entropy(reduce_density(psi, c))
    e2 = von_neumann_entropy(reduce_density(np.exp(1j * phase) * psi, c))
    assert 0.0 <= e1 <= 1.0
    assert e1 == pytest.approx(e2, abs=1e-12)


# ---------------------------------------------------------------------------
# entropy values
# ---------------------------------------------------------------------------

def test_entropy_of_pure_and_mixed_states():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(0.5 * np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_of_nine_tenths_mixture():
    rho = np.diag([0.9, 0.1])
    assert von_neumann_entropy(rho) == pytest.approx(0.4690, abs=5e-5)


def test_clamping_handles_roundoff():
    rho = np.diag([1.0 + 1e-12, -1e-12])
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_two_path_walk_stays_pure_under_reduction():
    """psi = (cos t, -i sin t) gives rho eigenvalues {1, 0}, so E is zero."""
    grid = TimeGrid.from_span(4.0, 0.01)
    psi = evolve_schrodinger(spectrum(path_graph(2)), 1, grid).span(0, grid.n).T
    e = entropy_series(psi, coloring_of(2))
    assert np.max(np.abs(e)) < 1e-9


def test_entropy_series_matches_pointwise_route():
    g = build_side_chain_graph(SideChainConfig(N=9, S=2))
    c = bipartite_coloring(g)
    grid = TimeGrid.from_span(6.0, 0.05)
    psi = evolve_schrodinger(spectrum(g), 1, grid).span(0, grid.n).T
    fast = entropy_series(psi, c)
    slow = np.array(
        [von_neumann_entropy(reduce_density(psi[i], c)) for i in range(grid.n)]
    )
    assert np.max(np.abs(fast - slow)) < 1e-9


def test_entropy_starts_at_zero_for_localized_walker():
    g = build_side_chain_graph(SideChainConfig(N=9, S=1))
    grid = TimeGrid.from_span(2.0, 0.01)
    psi = evolve_schrodinger(spectrum(g), 1, grid).span(0, grid.n).T
    e = entropy_series(psi, bipartite_coloring(g))
    assert e[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all((e >= 0.0) & (e <= 1.0))


# ---------------------------------------------------------------------------
# averaging
# ---------------------------------------------------------------------------

def test_average_of_constant_series():
    grid = TimeGrid.from_span(3.0, 0.01)
    assert average_entropy(np.zeros(grid.n), grid, 2.5) == 0.0
    assert average_entropy(np.ones(grid.n), grid, 2.5) == pytest.approx(1.0, abs=1e-12)


def test_average_respects_horizon():
    grid = TimeGrid.from_span(2.0, 0.01)
    e = grid.times.copy()  # E(t) = t, average over [0, tau0] is tau0/2
    assert average_entropy(e, grid, 1.0) == pytest.approx(0.5, abs=1e-9)


def test_invalid_horizon_rejected():
    grid = TimeGrid.from_span(1.0, 0.01)
    with pytest.raises(ValidationError):
        average_entropy(np.ones(grid.n), grid, 5.0)
