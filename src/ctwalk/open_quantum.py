"""Absorbing ancillary models for measuring the first-passage density.

Two constructions expose F(t) through the decay of sigma(t), the total
probability on the complementary part of the graph:

* sticky tail: one pendant vertex with negative on-site potential, hung off
  the target and coupled to it by a dissipative jump operator; the density
  matrix obeys

      drho/dt = -i [H, rho] + (lambda/2) (2 L rho L+ - L+L rho - rho L+L)

  propagated once in the eigenbasis of the non-Hermitian H_eff of the
  single jump (Dalibard, Castin & Molmer 1992). sigma is a sum of vertex
  populations, so only the diagonal of rho(t) is kept.

* ring dressing: the target is grown into a closed ring so outgoing
  amplitude circulates instead of reflecting; fully unitary.

Both estimators take the plain graph and the target and build their own
absorber. In both cases F = -(1/A) d sigma/dt with A = sigma(0) - sigma(tau0),
which makes F integrate to one on [0, tau0] by construction. The direction of
the jump operator and the exact vertex set defining sigma are both physically
ambiguous, so the caller passes both; the ancillary command records them
with its outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericsError, ValidationError, refuse_over
from .graphs import Graph, attach_sticky_vertex, dress_with_ring
from .grid import TimeGrid
from .quantum import build_hamiltonian, spectrum, transition_probabilities
from .first_passage import detect_tau0

SOLVER = "eig(H_eff) Taylor"
TRACE_TOL = 1e-6
COND_MAX = 1e4  # populations lose about cond(R)^2 ulps in rho = R X R^H
# grid steps of vec X held at once: one reused (POP_BLOCK, n^2) buffer, turned into
# populations by one product per block (a product per row rounds differently)
POP_BLOCK = 512
# most vertices of a sticky graph: the propagation holds two (n^2, n) complex
# arrays and the (POP_BLOCK, n^2) buffer, about 33 + 33 + 134 MB at 128
MAX_STICKY_VERTICES = 128
# most propagation work a sticky run may take: grid steps x Taylor substeps x n^2.
# The substeps grow with lambda. On two vCPUs the largest run accepted, N = 9 at
# lambda = 1.8e4 (1.5e8), took 10 s, and N = 127 at lambda = 5 (1.2e8) 4.4 s; the
# benchmark's N = 43, lambda = 4.6 case is 5.9e6
MAX_STICKY_WORK = 1.5e8
# Al-Mohy & Higham (2011), Table 3.1: a degree-m Taylor step of hA has backward
# error below 2^-53 when ||hA|| <= THETA[m - 1]
THETA = (2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3,
         2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1)


@dataclass(frozen=True)
class LindbladConfig:
    """Sticky-tail parameters: dissipation rate, trap potential, jump direction.

    direction "as-printed" takes L = |target><sticky|, which moves population
    from the sticky vertex back onto the target; "reversed" takes
    L = |sticky><target|, which drains the target into the sticky trap. Both
    are supported because only one of them reproduces the convolution result
    (see the sweep reports).
    """

    rate: float
    potential: float
    direction: str

    def __post_init__(self) -> None:
        if not (self.rate >= 0 and math.isfinite(self.rate) and math.isfinite(self.potential)):
            raise ValidationError("need a finite dissipation rate lambda >= 0 and a finite "
                                  f"potential, got lambda={self.rate}, V={self.potential}")
        if self.direction not in ("as-printed", "reversed"):
            raise ValidationError(f"jump direction must be as-printed or reversed, "
                                  f"got {self.direction!r}")


@dataclass(frozen=True, eq=False)
class AncillaryFirstPassage:
    """F estimate from the decay of the complement probability sigma.

    normalization is the quadrature-consistent integral of the raw flux
    over [0, tau0]. recurrence_time marks when sigma regains one percent of
    its total decay, the signature of probability returning from the
    absorber. diagnostics holds the sticky propagator's solver, cond_R,
    taylor_degree and trace_drift, and is empty for the ring.
    """

    grid: TimeGrid
    sigma: np.ndarray
    F: np.ndarray
    tau0: float
    normalization: float
    recurrence_time: float | None = None
    diagnostics: dict = field(default_factory=dict)


def check_sticky(g: Graph, target: int) -> None:
    """Refuse a sticky run evolve_lindblad cannot take: a target outside g, or more
    than MAX_STICKY_VERTICES vertices once the sticky vertex is attached."""
    g.check_vertex(target)
    refuse_over(g.n + 1, MAX_STICKY_VERTICES, "a sticky graph of {} vertices")


def evolve_lindblad(
    g: Graph,
    target: int,
    cfg: LindbladConfig,
    start: int,
    grid: TimeGrid,
) -> tuple[np.ndarray, dict]:
    """Propagate the dissipative master equation from rho(0) = |start><start|.

    The sticky vertex is attached to target as vertex g.n + 1 and carries the
    trap potential; pops[k, i - 1] = rho_ii(t_k), shape (grid.n, g.n + 1), and
    diagnostics holds solver, cond_R, taylor_degree and trace_drift. With
    L = |a><b|, drho/dt = -i(H_eff rho - rho H_eff^H) + rate rho_bb |a><a|,
    H_eff = H - (i rate/2)|b><b|. On x = vec X, rho = R X R^H in the
    eigenbasis of H_eff, the generator is A = diag(z) + rate u v^T; as
    A^i = D^i + rate sum_{k<i} A^k u v^T D^(i-1-k), its degree-m Taylor step
    is p(hD) + sum_{k<m} ((hA)^k u) V_k^T, a diagonal plus rank m, with m <= 12
    and h set by a bound on ||A||_2 (Al-Mohy & Higham 2011). The evolution
    runs once: every POP_BLOCK grid steps of x fill one reused buffer, which
    becomes the populations rho_ii = (q^T x)_i, and only those are kept. Raises
    ValidationError where check_sticky does or, before any step, when the steps
    times substeps times n^2 exceed MAX_STICKY_WORK, and NumericsError if
    cond(R) > COND_MAX (near an exceptional point of H_eff) or the trace
    drifts by more than TRACE_TOL.
    """
    g.check_vertex(start)
    check_sticky(g, target)
    g_sticky = attach_sticky_vertex(g, target)
    sticky = g_sticky.n
    h_eff = build_hamiltonian(g_sticky, potential={sticky: cfg.potential}).astype(complex)
    a, b = (target - 1, sticky - 1) if cfg.direction == "as-printed" else (sticky - 1, target - 1)
    h_eff[b, b] -= 0.5j * cfg.rate
    mu, r = np.linalg.eig(h_eff)
    cond = float(np.linalg.cond(r))
    if not cond <= COND_MAX:
        raise NumericsError(f"eigenvectors of H_eff have condition number {cond:.3g} "
                            f"> {COND_MAX:g}, near an exceptional point")
    r_inv = np.linalg.inv(r)
    n = len(mu)
    z = -1j * (mu[:, None] - mu.conj()).ravel()
    q = (r[:, :, None] * r.conj()[:, None, :]).reshape(n, n * n).T  # rho_ii = (q^T x)_i
    u = np.outer(r_inv[:, a], r_inv[:, a].conj()).ravel()
    v = q[:, b]
    norm = float(np.max(np.abs(z)) + cfg.rate * np.linalg.norm(u) * np.linalg.norm(v))
    per_step = grid.dt * norm / THETA[-1]  # Taylor substeps per grid step, unrounded
    refuse_over(grid.n * max(per_step, 1.0) * n * n, MAX_STICKY_WORK,
                f"lambda = {cfg.rate:g} needs {per_step:.3g} Taylor substeps per grid step; "
                f"over {grid.n} grid steps of {n}^2 entries that",
                "lower lambda or take fewer grid steps")
    substeps = max(1, math.ceil(per_step))
    h = grid.dt / substeps
    m = min(len(THETA), int(np.searchsorted(THETA, h * norm)) + 1)
    hz = h * z
    s = np.empty((m, n * n), dtype=complex)  # s[k] = sum_l (hz)^l / (l + k + 1)!
    s[-1] = 1.0 / math.factorial(m)
    for k in range(m - 2, -1, -1):
        s[k] = 1.0 / math.factorial(k + 1) + hz * s[k + 1]
    y = np.empty((n * n, m), dtype=complex)  # y[:, k] = (hA)^k u
    y[:, 0] = u
    for k in range(1, m):
        y[:, k] = hz * y[:, k - 1] + (h * cfg.rate * (v @ y[:, k - 1])) * u
    p, vt = 1.0 + hz * s[0], (h * cfg.rate) * v * s
    x = np.outer(r_inv[:, start - 1], r_inv[:, start - 1].conj()).ravel()
    rows = np.empty((min(POP_BLOCK, grid.n), n * n), dtype=complex)
    pops = np.empty((grid.n, n))
    for lo in range(0, grid.n, POP_BLOCK):
        k = min(POP_BLOCK, grid.n - lo)
        for i in range(k):
            for _ in range(substeps if lo + i else 0):
                x = p * x + y @ (vt @ x)
            rows[i] = x
        pops[lo:lo + k] = (rows[:k] @ q).real
    drift = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))
    if not drift <= TRACE_TOL:
        raise NumericsError(f"trace drifted by {drift:.3g} > {TRACE_TOL:g}")
    diagnostics = {"solver": SOLVER, "cond_R": cond, "taylor_degree": m, "trace_drift": drift}
    return pops, diagnostics


def complement_flux(sigma: np.ndarray, grid: TimeGrid) -> AncillaryFirstPassage:
    """Turn a sigma series into a normalized F estimate.

    F_raw = -d sigma/dt by centered differences (one-sided at the ends); its
    own first zero after the first peak fixes tau0, and the trapezoid
    integral of F_raw over [0, tau0] normalizes F so that its integral over
    the horizon is one exactly.
    """
    if float(sigma[0] - sigma.min()) < 1e-9:
        raise NumericsError(
            "complement probability never decays; no first-passage signal"
        )
    raw = -np.gradient(sigma, grid.dt)
    tau0 = detect_tau0(raw, grid)
    tt, ff = grid.up_to(raw, tau0)
    a = float(np.trapezoid(ff, tt))
    if abs(a) < 1e-9:
        raise NumericsError(
            f"sigma decayed by {a}; no first-passage signal"
        )
    t = grid.times
    rebound = sigma - np.minimum.accumulate(sigma)
    rec_idx = np.nonzero(rebound > 0.01 * (sigma[0] - sigma.min()))[0]
    recurrence = float(t[rec_idx[0]]) if len(rec_idx) else None
    return AncillaryFirstPassage(
        grid=grid,
        sigma=sigma,
        F=raw / a,
        tau0=tau0,
        normalization=a,
        recurrence_time=recurrence,
    )


def sticky_first_passage(
    g: Graph,
    target: int,
    cfg: LindbladConfig,
    start: int,
    grid: TimeGrid,
    sigma_vertices: tuple[int, ...],
) -> AncillaryFirstPassage:
    """Hang a sticky vertex off target, evolve, and read F off the population
    decay of the complement vertices; the propagator's diagnostics ride along."""
    for v in sigma_vertices:  # an index below 1 would wrap round to the sticky vertex
        if not 1 <= v <= g.n + 1:
            raise ValidationError(f"vertex {v} out of range 1..{g.n + 1}")
    pops, diagnostics = evolve_lindblad(g, target, cfg, start, grid)
    idx = np.array(sigma_vertices, dtype=int) - 1
    return replace(complement_flux(pops[:, idx].sum(axis=1), grid), diagnostics=diagnostics)


def ring_first_passage(
    g: Graph,
    target: int,
    ring_size: int,
    start: int,
    grid: TimeGrid,
    sigma_vertices: tuple[int, ...],
) -> AncillaryFirstPassage:
    """Dress target with a ring, evolve unitarily, and read F off sigma.

    Counting the target in sigma_vertices moves the measured boundary from
    the target to the ring edges; the sweep reports cover both conventions.
    """
    g.check_vertex(target)
    g.check_vertex(start)
    dressed = dress_with_ring(g, target, ring_size)
    sigma = transition_probabilities(spectrum(dressed), start, sigma_vertices, grid).sum(axis=0)
    return complement_flux(sigma, grid)


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
