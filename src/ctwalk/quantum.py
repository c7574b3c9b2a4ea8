"""Continuous-time quantum walk: Schrodinger evolution on a graph.

The Hamiltonian is the adjacency matrix (hop amplitude 1, hbar 1), plus an
optional on-site potential on the diagonal for decorated models. A walk's
Spectrum holds the eigenpairs of its adjacency Hamiltonian, diagonalized
once per graph; every amplitude is an exponential sum over them, exact up
to floating point. evolve_schrodinger returns the amplitudes of every
vertex as the rows of a grid.ModeSum, evaluated only where they are read;
transition_probabilities evaluates those of selected vertices.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .grid import ModeSum, Spectrum, TimeGrid


def build_hamiltonian(g: Graph, potential: dict[int, float] | None = None) -> np.ndarray:
    """H = adjacency + diag(potential); potential maps 1-indexed vertices to energies."""
    h = g.adjacency()
    if potential:
        for v, val in potential.items():
            g.check_vertex(v)
            h[v - 1, v - 1] = val
    return h


def spectrum(g: Graph) -> Spectrum:
    """Eigenpairs of the adjacency Hamiltonian: rates -i lambda, unit scale."""
    lam, u = np.linalg.eigh(g.adjacency())
    return Spectrum(-1j * lam, u, np.ones(g.n))


def evolve_schrodinger(h: Spectrum, start: int, grid: TimeGrid) -> ModeSum:
    """psi(t) = exp(-i H t) delta_start on the grid, unevaluated: row v - 1 is vertex v."""
    return h.series(start, tuple(range(1, h.n + 1)), grid)


def transition_probabilities(
    h: Spectrum, start: int, targets: tuple[int, ...], grid: TimeGrid
) -> np.ndarray:
    """|<v| exp(-i H t) |start>|^2 for selected vertices; shape (len(targets), n_times)."""
    return np.abs(h.series(start, targets, grid).span(0, grid.n)) ** 2
