"""Continuous-time classical random walk: master equation and exact solvers.

The generator has unit total exit rate per vertex: K[a,b] = J[a,b]/deg(b)
for a != b and -1 on the diagonal, so every column sums to zero and the
waiting time at any vertex is exponential with mean one.

Propagation is spectral (no step-size error): K is similar to the symmetric
matrix S = D^{-1/2} J D^{-1/2} - I via the degree diagonal D, and the
eigenpairs of S, computed once per rate matrix, are the walk's Spectrum.
evolve_master returns every vertex's occupation as a row of a grid.ModeSum,
evaluated only where it is read, even on horizons of millions of points;
vertex_occupations evaluates the rows of selected vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .graphs import Graph
from .grid import ModeSum, Spectrum, TimeGrid


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Generator of the walk plus the adjacency and degree data it came from."""

    matrix: np.ndarray
    adjacency: np.ndarray
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def symmetric(self) -> np.ndarray:
        """D^{-1/2} J D^{-1/2} - I, similar to the generator via the degree diagonal."""
        dh = np.sqrt(self.degrees)
        return self.adjacency / np.outer(dh, dh) - np.eye(self.n)

    @cached_property
    def spectrum(self) -> Spectrum:
        """Eigenpairs of the symmetric form: rates lambda, scale sqrt(deg)."""
        lam, u = np.linalg.eigh(self.symmetric)
        return Spectrum(lam, u, np.sqrt(self.degrees))


def build_rate_matrix(g: Graph) -> RateMatrix:
    """K = J D^{-1} - I for a connected graph."""
    if not g.is_connected():
        raise ValidationError("rate matrix requires a connected graph")
    j = g.adjacency()
    deg = j.sum(axis=0)
    k = j / deg[None, :]
    np.fill_diagonal(k, -1.0)
    return RateMatrix(matrix=k, adjacency=j, degrees=deg)


def evolve_master(rm: RateMatrix, start: int, grid: TimeGrid) -> ModeSum:
    """p(t) = exp(K t) delta_start on the grid, unevaluated: row v - 1 is vertex v."""
    return rm.spectrum.series(start, tuple(range(1, rm.n + 1)), grid)


def vertex_occupations(
    rm: RateMatrix, start: int, targets: tuple[int, ...], grid: TimeGrid
) -> np.ndarray:
    """Occupation probabilities of selected vertices only; shape (len(targets), n_times)."""
    return rm.spectrum.series(start, targets, grid).span(0, grid.n)


def stationary_distribution(rm: RateMatrix) -> np.ndarray:
    """Null vector of K normalized to total probability one: deg(a) / sum deg."""
    return rm.degrees / rm.degrees.sum()


def mfpt_linear_solve(g: Graph, start: int, target: int) -> float:
    """Mean first-passage time from the adjoint linear system, no time grid.

    Solves sum_b K[b,a] m[b] = -1 for all a != target with m[target] = 0 and
    returns m[start]. Exact up to the linear solver, so it serves as the
    independent cross-check for the convolution-based estimate.
    """
    g.check_vertex(start)
    g.check_vertex(target)
    if start == target:
        return 0.0
    rm = build_rate_matrix(g)
    keep = [i for i in range(rm.n) if i != target - 1]
    a = rm.matrix[np.ix_(keep, keep)].T
    m = np.linalg.solve(a, -np.ones(len(keep)))
    return float(m[keep.index(start - 1)])


def survival_horizon(rm: RateMatrix, target: int, eps: float = 1e-6, start: int = 1) -> float:
    """Time at which the not-yet-arrived probability mass drops below eps.

    Uses the symmetric form of the generator with the target row and column
    removed (the killed walk), then bisects the survival function. Sizing the
    simulation grid from this avoids repeated horizon doubling.
    """
    if not (1 <= start <= rm.n and 1 <= target <= rm.n and start != target):
        raise ValidationError(f"need distinct start, target in 1..{rm.n}, got {start}, {target}")
    keep = [i for i in range(rm.n) if i != target - 1]
    dh = np.sqrt(rm.degrees[keep])
    lam, u = np.linalg.eigh(rm.symmetric[np.ix_(keep, keep)])
    i_start = keep.index(start - 1)
    coef = (dh[:, None] * u).sum(axis=0) * (u[i_start, :] / dh[i_start])

    def surv(t: float) -> float:
        return float(coef @ np.exp(lam * t))

    hi = 1.0
    while surv(hi) > eps:
        hi *= 2.0
        if hi > 1e12:
            raise ValidationError(f"survival mass does not drop below eps={eps}")
    lo = hi / 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if surv(mid) > eps:
            lo = mid
        else:
            hi = mid
    return hi
