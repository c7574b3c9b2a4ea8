"""Continuous-time quantum walk: Schrodinger evolution on a graph.

The Hamiltonian is the adjacency matrix (hop amplitude 1, hbar 1), plus an
optional on-site potential on the diagonal for decorated models. Evolution
is by Hermitian eigendecomposition, exact up to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graphs import Graph
from .grid import TimeGrid, exp_sum


@dataclass(frozen=True, eq=False)
class AmplitudeSeries:
    """Complex wavefunction samples over a uniform grid; shape (n_times, n)."""

    grid: TimeGrid
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[1]


def build_hamiltonian(g: Graph, potential: dict[int, float] | None = None) -> np.ndarray:
    """H = adjacency + diag(potential); potential maps 1-indexed vertices to energies."""
    h = g.adjacency()
    if potential:
        for v, val in potential.items():
            g.check_vertex(v)
            h[v - 1, v - 1] = val
    return h


def _check_hamiltonian(h: np.ndarray) -> None:
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"Hamiltonian must be square, got shape {h.shape}")
    if not np.allclose(h, h.T, atol=1e-12):
        raise ValidationError("Hamiltonian must be symmetric")


def evolve_schrodinger(h: np.ndarray, start: int, grid: TimeGrid) -> AmplitudeSeries:
    """psi(t) = exp(-i H t) delta_start on every grid point."""
    _check_hamiltonian(h)
    n = h.shape[0]
    if not (1 <= start <= n):
        raise ValidationError(f"start vertex {start} out of range 1..{n}")
    lam, u = np.linalg.eigh(h)
    w = u[start - 1, :]
    phases = np.exp(-1j * np.outer(lam, grid.times))  # (n, n_times)
    values = u @ (phases * w[:, None])
    return AmplitudeSeries(grid=grid, values=values.T)


def occupation(series: AmplitudeSeries, v: int) -> np.ndarray:
    """|psi_v(t)|^2 on the series grid."""
    if not (1 <= v <= series.n):
        raise ValidationError(f"vertex {v} out of range 1..{series.n}")
    return np.abs(series.values[:, v - 1]) ** 2


def transition_probabilities(
    h: np.ndarray, start: int, targets: tuple[int, ...], grid: TimeGrid
) -> np.ndarray:
    """|<v| exp(-i H t) |start>|^2 for selected vertices; shape (len(targets), n_times).

    Avoids materializing the full wavefunction history on long grids.
    """
    _check_hamiltonian(h)
    n = h.shape[0]
    if not (1 <= start <= n):
        raise ValidationError(f"start vertex {start} out of range 1..{n}")
    for v in targets:
        if not (1 <= v <= n):
            raise ValidationError(f"target vertex {v} out of range 1..{n}")
    lam, u = np.linalg.eigh(h)
    idx = np.array(targets, dtype=int) - 1
    return np.abs(exp_sum(-1j * lam, u[idx, :] * u[start - 1, :], grid)) ** 2
