"""Absorbing ancillary models for measuring the first-passage density.

Two constructions expose F(t) through the decay of sigma(t), the total
probability on the complementary part of the graph:

* sticky tail: one pendant vertex with negative on-site potential, coupled
  to the target by a dissipative jump operator; the density matrix obeys

      drho/dt = -i [H, rho] + (lambda/2) (2 L rho L+ - L+L rho - rho L+L)

  integrated with a fixed-step classical 4th-order scheme.

* ring dressing: the target is grown into a closed ring so outgoing
  amplitude circulates instead of reflecting; fully unitary.

In both cases F = -(1/A) d sigma/dt with A = sigma(0) - sigma(tau0), which
makes F integrate to one on [0, tau0] by construction. The direction of the
jump operator and the exact vertex set defining sigma are both physically
ambiguous, so both are configurable and results record what was used.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateNormalizationError,
    StepInstabilityError,
    ValidationError,
)
from .graphs import Graph, dress_with_ring
from .grid import TimeGrid
from .quantum import build_hamiltonian, evolve_schrodinger
from .first_passage import detect_tau0

SIGMA_STEP_TOL = 1e-6
TRACE_TOL = 1e-6
MAX_STEP_HALVINGS = 3
INITIAL_SUBSTEPS = 1


@dataclass(frozen=True)
class LindbladConfig:
    """Sticky-tail parameters: dissipation rate, trap potential, jump direction.

    jump = (to, from) defines L = |to><from|. The printed convention moves
    population from the sticky vertex back onto the target; the reversed one
    drains the target into the sticky trap. Both are supported because only
    one of them reproduces the convolution result (see the sweep reports).
    """

    rate: float
    potential: float
    jump: tuple[int, int]

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValidationError(f"dissipation rate must be >= 0, got {self.rate}")
        if self.jump[0] == self.jump[1]:
            raise ValidationError("jump operator needs two distinct vertices")


@dataclass(frozen=True, eq=False)
class DensityMatrixSeries:
    """Full density matrices over a uniform grid; shape (n_times, n, n)."""

    grid: TimeGrid
    values: np.ndarray

    def populations(self) -> np.ndarray:
        """Diagonal of rho(t), shape (n_times, n)."""
        return np.einsum("tii->ti", self.values).real

    def trace_drift(self) -> float:
        return float(np.max(np.abs(np.einsum("tii->t", self.values).real - 1.0)))


@dataclass(frozen=True, eq=False)
class AncillaryFirstPassage:
    """F estimate from the decay of the complement probability sigma.

    normalization is the quadrature-consistent integral of the raw flux
    over [0, tau0]; sigma_drop = sigma(0) - sigma(tau0) is the same number
    up to discretization and is recorded for comparison. recurrence_time
    marks when sigma regains one percent of its total decay, the signature
    of probability returning from the absorber.
    """

    grid: TimeGrid
    sigma: np.ndarray
    F: np.ndarray
    tau0: float
    normalization: float
    sigma_drop: float
    sigma_vertices: tuple[int, ...]
    recurrence_time: float | None = None


def _liouvillian(h: np.ndarray, L: np.ndarray, rate: float):
    l_dag = L.conj().T
    ldl = l_dag @ L

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h @ rho - rho @ h)
        if rate > 0.0:
            out += rate * (L @ rho @ l_dag)
            out -= (0.5 * rate) * (ldl @ rho + rho @ ldl)
        return out

    return rhs


def _rk4_run(
    h: np.ndarray, L: np.ndarray, rate: float, rho0: np.ndarray,
    grid: TimeGrid, substeps: int,
) -> np.ndarray:
    rhs = _liouvillian(h, L, rate)
    step = grid.dt / substeps
    rho = rho0.copy()
    out = np.empty((grid.n, *rho.shape), dtype=complex)
    out[0] = rho
    for i in range(1, grid.n):
        for _ in range(substeps):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * step * k1)
            k3 = rhs(rho + 0.5 * step * k2)
            k4 = rhs(rho + step * k3)
            rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i] = rho
    return out


def evolve_lindblad(
    g_sticky: Graph,
    cfg: LindbladConfig,
    start: int,
    grid: TimeGrid,
) -> DensityMatrixSeries:
    """Integrate the dissipative master equation from rho(0) = |start><start|.

    The trap potential sits on the sticky vertex (the highest index). The
    fixed step, dt / INITIAL_SUBSTEPS, is validated by halving: integration
    repeats with twice the substeps until every population changes by less
    than SIGMA_STEP_TOL and the trace drift stays within TRACE_TOL, with at
    most MAX_STEP_HALVINGS refinements before giving up.
    """
    g_sticky.check_vertex(start)
    sticky = g_sticky.n
    if g_sticky.labels[sticky - 1] != "sticky":
        raise ValidationError("graph must carry a sticky vertex (attach_sticky_vertex)")
    for v in cfg.jump:
        g_sticky.check_vertex(v)
    if tuple(sorted(cfg.jump)) not in g_sticky.edges:
        raise ValidationError(f"jump pair {cfg.jump} is not an edge of the graph")
    h = build_hamiltonian(g_sticky, potential={sticky: cfg.potential}).astype(complex)
    n = g_sticky.n
    L = np.zeros((n, n), dtype=complex)
    to, frm = cfg.jump
    L[to - 1, frm - 1] = 1.0
    rho0 = np.zeros((n, n), dtype=complex)
    rho0[start - 1, start - 1] = 1.0

    substeps = INITIAL_SUBSTEPS
    values = _rk4_run(h, L, cfg.rate, rho0, grid, substeps)
    for _ in range(MAX_STEP_HALVINGS):
        substeps *= 2
        finer = _rk4_run(h, L, cfg.rate, rho0, grid, substeps)
        pop_shift = float(
            np.max(np.abs(np.einsum("tii->ti", finer).real
                          - np.einsum("tii->ti", values).real))
        )
        trace_ok = DensityMatrixSeries(grid, finer).trace_drift() <= TRACE_TOL
        values = finer
        if pop_shift < SIGMA_STEP_TOL and trace_ok:
            return DensityMatrixSeries(grid=grid, values=values)
    raise StepInstabilityError(
        f"populations did not settle below {SIGMA_STEP_TOL} after "
        f"{MAX_STEP_HALVINGS} step halvings"
    )


def complement_flux(
    sigma: np.ndarray,
    grid: TimeGrid,
    sigma_vertices: tuple[int, ...],
    tau0_reference: float | None = None,
) -> AncillaryFirstPassage:
    """Turn a sigma series into a normalized F estimate.

    F_raw = -d sigma/dt by centered differences (one-sided at the ends); its
    own first zero after the first peak fixes tau0, and the trapezoid
    integral of F_raw over [0, tau0] normalizes F so that its integral over
    the horizon is one exactly.

    When tau0_reference is given (the horizon of the convolution result the
    estimate stands in for), a warning flags material recurrence before it.
    """
    dt = grid.dt
    if float(sigma[0] - sigma.min()) < 1e-9:
        raise DegenerateNormalizationError(
            "complement probability never decays; no first-passage signal"
        )
    raw = np.empty_like(sigma)
    raw[1:-1] = -(sigma[2:] - sigma[:-2]) / (2.0 * dt)
    raw[0] = -(sigma[1] - sigma[0]) / dt
    raw[-1] = -(sigma[-1] - sigma[-2]) / dt
    tau0 = detect_tau0(raw, grid, mode="quantum")
    tt, ff = grid.up_to(raw, tau0)
    a = float(np.trapezoid(ff, tt))
    if abs(a) < 1e-9:
        raise DegenerateNormalizationError(
            f"sigma decayed by {a}; no first-passage signal"
        )
    t = grid.times
    drop = float(sigma[0] - np.interp(tau0, t, sigma))
    rebound = sigma - np.minimum.accumulate(sigma)
    rec_idx = np.nonzero(rebound > 0.01 * (sigma[0] - sigma.min()))[0]
    recurrence = float(t[rec_idx[0]]) if len(rec_idx) else None
    if (
        recurrence is not None
        and tau0_reference is not None
        and recurrence < tau0_reference
    ):
        warnings.warn(
            f"complement probability rises again at t={recurrence:.3f}, inside "
            f"the reference horizon {tau0_reference:.3f}; the absorber is too "
            "small and the estimate is contaminated",
            stacklevel=2,
        )
    return AncillaryFirstPassage(
        grid=grid,
        sigma=sigma,
        F=raw / a,
        tau0=tau0,
        normalization=a,
        sigma_drop=drop,
        sigma_vertices=sigma_vertices,
        recurrence_time=recurrence,
    )


def _default_sigma_vertices(g: Graph, target: int) -> tuple[int, ...]:
    """Main-chain vertices short of the target; side/decoration vertices excluded."""
    return tuple(v for v in g.vertices_labeled("chain") if v != target)


def sticky_first_passage(
    series: DensityMatrixSeries,
    sigma_vertices: tuple[int, ...],
    tau0_reference: float | None = None,
) -> AncillaryFirstPassage:
    """F from the population decay of the given complement vertices."""
    pops = series.populations()
    idx = np.array(sigma_vertices, dtype=int) - 1
    sigma = pops[:, idx].sum(axis=1)
    return complement_flux(sigma, series.grid, tuple(sigma_vertices), tau0_reference)


def ring_first_passage(
    g: Graph,
    target: int,
    ring_size: int,
    start: int,
    grid: TimeGrid,
    sigma_vertices: tuple[int, ...] | None = None,
    tau0_reference: float | None = None,
) -> AncillaryFirstPassage:
    """Dress target with a ring, evolve unitarily, and read F off sigma.

    sigma_vertices defaults to the main chain minus the target. Passing the
    chain including the target instead moves the measured boundary to the
    ring edges; the sweep reports cover both conventions.
    """
    g.check_vertex(target)
    g.check_vertex(start)
    dressed = dress_with_ring(g, target, ring_size)
    if sigma_vertices is None:
        sigma_vertices = _default_sigma_vertices(g, target)
    h = build_hamiltonian(dressed)
    amp = evolve_schrodinger(h, start, grid)
    idx = np.array(sigma_vertices, dtype=int) - 1
    sigma = (np.abs(amp.values[:, idx]) ** 2).sum(axis=1)
    return complement_flux(sigma, grid, tuple(sigma_vertices), tau0_reference)


def overlay_l2_error(
    est: AncillaryFirstPassage,
    f_ref: np.ndarray,
    grid_ref: TimeGrid,
    tau0_ref: float,
) -> float:
    """Relative L2 distance between unit-normalized densities on [0, tau0_ref].

    Both the estimate and the reference are rescaled to integrate to one on
    the comparison window, so the number measures shape disagreement.
    """
    t_ref = grid_ref.times
    mask = t_ref <= tau0_ref
    tt = t_ref[mask]
    ref = f_ref[mask]
    ref = ref / np.trapezoid(ref, tt)
    if est.grid.t_end < tau0_ref - est.grid.dt:
        raise ValidationError(
            f"estimate grid ends at {est.grid.t_end}, before tau0_ref={tau0_ref}"
        )
    fe = np.interp(tt, est.grid.times, est.F)
    return float(
        np.sqrt(np.trapezoid((fe - ref) ** 2, tt) / np.trapezoid(ref ** 2, tt))
    )
