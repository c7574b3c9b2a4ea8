"""Sweep orchestration: cases, side-chain deltas, power-law fit, entropy study.

A case is one (N, S, offset, walk) pipeline run: build the graph, evolve
from the target, deconvolve, find the horizon, take the mean. Sweeps over
many cases are cached on disk keyed by (N, S, offset, walk, dt) so large
tables rerun incrementally; each entry also stores the eps it was run at
and the SOLVER_ID of the code that wrote it. Every case runs in this
process.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import classical, coherence, quantum
from .errors import NoZeroCrossingError, NumericsError, ValidationError, refuse_over
from .first_passage import (
    MAX_SOLVE_POINTS,
    FirstPassageResult,
    extract_first_passage,
    modal_first_passage,
)
from .graphs import Graph, SideChainConfig, bipartite_coloring, build_side_chain_graph
from .grid import Spectrum, TimeGrid

MAX_HORIZON_DOUBLINGS = 8
# names the solvers behind a cached record; change it whenever a solver
# change moves outputs, so older cache entries are recomputed
SOLVER_ID = "exp-sum-modal-bound+blocked-64-all-lengths+seeded-blocks"
ENTROPY_S_VALUES = (0, 1, 2)
# largest round-trip residual max|F * P_bb - P_ab| a run may return
# (acceptance criterion 5), measured on the grid (quantum) or bounded from
# the modes (classical); a solve that misses it fails instead
QUANTUM_RESIDUAL_MAX = 1e-4
CLASSICAL_RESIDUAL_MAX = 1e-5
# largest classical grid run_pipeline sizes: 3.8x the N = 43, S = 2 grid of
# 2,212,786 points. The classical series are evaluated block by block where
# they are written, so memory does not grow with the grid; the bound caps
# the CSV bytes (about 113 B per point over P_ab, P_bb and F, so 0.95 GB)
# and the time to write them
MAX_CLASSICAL_POINTS = 1 << 23


@dataclass(frozen=True)
class SweepRecord:
    """Scalar outcome of one pipeline case."""

    N: int
    S: int
    offset: int
    walk: str
    dt: float
    eps: float
    tau: float
    tau0: float
    norm: float
    reconstruction_error: float
    residual_kind: str


@dataclass(frozen=True)
class Deltas:
    """Mean first-passage shifts caused by attaching one and two side vertices."""

    d1: float
    d2: float
    d2_prime: float
    d1_ratio: float
    d2_ratio: float


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ratio ~ prefactor * N**exponent on log-log axes."""

    prefactor: float
    exponent: float
    residual: float


def _model_graph(n: int, s: int, offset: int) -> Graph:
    return build_side_chain_graph(SideChainConfig(N=n, S=s, offset=offset))


def walk_model(g: Graph, walk: str) -> Spectrum | classical.RateMatrix:
    """What run_pipeline and the evolvers read: a Spectrum, or a RateMatrix carrying one.

    No walk passes between the pieces of a disconnected graph, so one is
    refused here, before any grid is solved.
    """
    if not g.is_connected():
        raise ValidationError("first passage needs a connected graph")
    if walk == "quantum":
        return quantum.spectrum(g)
    if walk == "classical":
        return classical.build_rate_matrix(g)
    raise ValidationError(f"walk must be 'classical' or 'quantum', got {walk!r}")


def quantum_grid(target: int, dt: float, doublings: int = 0) -> TimeGrid:
    """The grid of run_pipeline's quantum solve after some horizon doublings.

    The first starts near the ballistic crossing time. Its size follows
    from target and dt alone, so a caller checks it here before the eigh.
    Raises ValidationError when the grid would exceed MAX_SOLVE_POINTS.
    """
    grid = TimeGrid.from_span(max(12.0, 0.7 * target + 6.0) * 2.0**doublings, dt)
    refuse_over(grid.n, MAX_SOLVE_POINTS, "the quantum solve on {} grid points", "raise dt")
    return grid


def _gated(result: FirstPassageResult, residual_max: float) -> tuple[FirstPassageResult, TimeGrid]:
    """result and its grid, or NumericsError if its round-trip residual exceeds
    residual_max or its mean lies outside (0, tau0), where no density can put it."""
    if not result.reconstruction_error <= residual_max:  # also catches nan
        raise NumericsError(
            f"residual {result.reconstruction_error:.3g} > {residual_max:g} "
            f"at {result.grid.n} points"
        )
    if not 0.0 < result.tau < result.tau0:
        raise NumericsError(f"mean first-passage time {result.tau:.6g} outside (0, tau0 = "
                            f"{result.tau0:.6g}) at dt = {result.grid.dt:g}; lower dt")
    return result, result.grid


def run_pipeline(
    model: Spectrum | classical.RateMatrix, target: int, dt: float, eps: float,
    start: int = 1,
) -> tuple[FirstPassageResult, TimeGrid]:
    """Evolve, solve for F and integrate one start -> target case; grid sizing is automatic.

    model comes from walk_model, and its one eigendecomposition serves
    every grid. Each grid takes one series call, from the target: it gives
    P_bb, and P_ab by symmetry. The quantum propagator of a real symmetric
    H is symmetric, and the classical walk obeys detailed balance,
    P_ab(t) deg(a) = P_ba(t) deg(b). The result carries both series.

    The classical F is the closed-form solve over the series' shared
    rates, with F(0) the exact hop rate, on one grid sized from the
    killed-walk survival function; its horizon is the F-mass crossing when
    that happens on the grid, else the survival horizon. Its scalars and
    residual bound come from the modes (modal_first_passage), and F, P_ab
    and P_bb are LazyRows, evaluated only where they are read. The quantum
    F is deconvolved with F(0) = 0, on grids with dt (lambda_max -
    lambda_min) < pi so that P(t) is not aliased and of at most
    MAX_SOLVE_POINTS points; they start near the ballistic crossing time
    and double until the zero of F is on the grid.

    Raises NumericsError when the round-trip residual (for the classical
    walk, its modal bound) exceeds QUANTUM_RESIDUAL_MAX or
    CLASSICAL_RESIDUAL_MAX or the mean lies outside (0, tau0), and
    ValidationError when a grid would exceed MAX_SOLVE_POINTS (quantum) or
    MAX_CLASSICAL_POINTS (classical), or a classical grid hold fewer than 3
    points, before any series on it.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    if isinstance(model, classical.RateMatrix):
        rm = model
        t_eps = classical.survival_horizon(rm, target, eps=eps, start=start)
        grid = TimeGrid.from_span(t_eps * 1.05 + 4.0, dt)
        refuse_over(grid.n, MAX_CLASSICAL_POINTS, "the classical grid of {} points", "raise dt")
        if grid.n < 3:  # as the quantum solve refuses one
            raise ValidationError(f"the classical grid of {grid.n} points needs at least 3; "
                                  "lower dt")
        occupations = rm.spectrum.series(target, (start, target), grid)
        balance = rm.degrees[target - 1] / rm.degrees[start - 1]
        coefs = occupations.coefs.copy()
        coefs[0] *= balance
        # F(0) is the hop rate start -> target, exactly 0 unless they are adjacent
        f0 = float(rm.matrix[target - 1, start - 1])
        result = modal_first_passage(rm.spectrum.rates, coefs, grid, f0, eps, t_eps)
        p_ab = occupations.row(0, lambda p: p * balance)
        result = replace(result, p_ab=p_ab, p_bb=occupations.row(1))
        return _gated(result, CLASSICAL_RESIDUAL_MAX)

    # P(t) oscillates at the eigenvalue gaps of H; a grid that cannot
    # resolve the widest one solves an aliased series
    bandwidth = float(np.ptp(model.rates.imag))
    if dt * bandwidth >= math.pi:
        raise ValidationError(
            f"dt = {dt} aliases the fastest oscillation of P(t) (frequency "
            f"{bandwidth:.6g}); dt must be below {math.pi / bandwidth:.6g}"
        )
    for doublings in range(MAX_HORIZON_DOUBLINGS):
        grid = quantum_grid(target, dt, doublings)
        p_ab, p_bb = quantum.transition_probabilities(model, target, (start, target), grid)
        try:
            # d/dt |psi_a|^2 = 2 Re(conj(psi_a) psi_a') is 0 where psi_a(0) = 0
            result = extract_first_passage(p_ab, p_bb, grid, 0.0)
        except NoZeroCrossingError:
            continue
        return _gated(result, QUANTUM_RESIDUAL_MAX)
    raise NoZeroCrossingError(f"no zero of F within {grid.t_end:g} time units; giving up")


def run_case(
    n: int, s: int, offset: int, walk: str, dt: float = 0.01, eps: float = 1e-6
) -> SweepRecord:
    """Full pipeline for one (N, S, offset, walk) case."""
    g = _model_graph(n, s, offset)
    if walk == "quantum":  # refused before the eigh
        quantum_grid(n, dt)
    result, _ = run_pipeline(walk_model(g, walk), n, dt, eps)
    return SweepRecord(
        N=n,
        S=s,
        offset=offset,
        walk=walk,
        dt=dt,
        eps=eps,
        tau=result.tau,
        tau0=result.tau0,
        norm=result.norm,
        reconstruction_error=result.reconstruction_error,
        residual_kind=result.residual_kind,
    )


def side_chain_deltas(records: dict[int, SweepRecord]) -> Deltas:
    """Deltas from the S = 0, 1, 2 records of one (N, offset, walk) family."""
    try:
        tau = records[0].tau
        tau1 = records[1].tau
        tau2 = records[2].tau
    except KeyError as exc:
        raise ValidationError(f"missing case for S={exc.args[0]}") from exc
    d1 = tau1 - tau
    d2 = tau2 - tau
    return Deltas(
        d1=d1,
        d2=d2,
        d2_prime=tau2 - tau1,
        d1_ratio=d1 / tau,
        d2_ratio=d2 / tau,
    )


def fit_power_law(ns: np.ndarray, ratios: np.ndarray) -> PowerLawFit:
    """Fit log|ratio| against log N; the common sign moves into the prefactor."""
    ns = np.asarray(ns, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    if len(ns) != len(ratios) or len(ns) < 2:
        raise ValidationError("need at least 2 (N, ratio) points of equal length")
    if np.any(ratios == 0.0):
        raise ValidationError("zero ratio cannot be placed on log axes")
    signs = np.sign(ratios)
    if not np.all(signs == signs[0]):
        raise ValidationError("ratios change sign; a single power law cannot fit them")
    lx = np.log(ns)
    ly = np.log(np.abs(ratios))
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ np.array([slope, intercept])
    rms = float(np.sqrt(np.mean(resid**2)))
    return PowerLawFit(
        prefactor=float(signs[0] * math.exp(intercept)),
        exponent=float(slope),
        residual=rms,
    )


# ---------------------------------------------------------------------------
# Disk cache and sweeps
# ---------------------------------------------------------------------------

def _cache_name(n: int, s: int, offset: int, walk: str, dt: float) -> str:
    return f"N{n}_S{s}_off{offset}_{walk}_dt{dt:.6g}.json"


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cached_run_case(
    n: int,
    s: int,
    offset: int,
    walk: str,
    dt: float = 0.01,
    eps: float = 1e-6,
    cache_dir: str | Path | None = None,
) -> SweepRecord:
    """run_case with an optional append-only JSON cache.

    An entry is served only if its N, S, offset, walk, dt and eps equal the
    request exactly and it was written by this SOLVER_ID: the file name
    rounds dt, so two requests can share a name. A corrupt or mismatched
    entry is recomputed and rewritten.
    """
    if cache_dir is None:
        return run_case(n, s, offset, walk, dt, eps)
    path = Path(cache_dir) / _cache_name(n, s, offset, walk, dt)
    if path.exists():
        try:
            fields = json.loads(path.read_text())
            solver = fields.pop("solver", None)
            cached = SweepRecord(**fields)
        except (ValueError, TypeError, AttributeError):  # corrupt entry
            cached = None
        request = (n, s, offset, walk, dt, eps, SOLVER_ID)
        if cached is not None and (
            cached.N, cached.S, cached.offset, cached.walk, cached.dt, cached.eps, solver
        ) == request:
            return cached
    record = run_case(n, s, offset, walk, dt, eps)
    path.parent.mkdir(parents=True, exist_ok=True)  # only once there is an entry to write
    _atomic_write_text(path, json.dumps({**asdict(record), "solver": SOLVER_ID}))
    return record


def sweep(
    ns: list[int],
    s_values: list[int],
    offset: int,
    walk: str,
    dt: float = 0.01,
    eps: float = 1e-6,
    cache_dir: str | Path | None = None,
) -> list[SweepRecord]:
    """All (N, S) cases at a fixed offset, in the product order of ns and s_values.

    Every budget grows with N and S, so the largest case's graph and, for the
    quantum walk, its first grid are checked before any case is run.
    """
    if ns and s_values:
        SideChainConfig(N=max(ns), S=max(s_values), offset=offset)
        if walk == "quantum":
            quantum_grid(max(ns), dt)
    return [cached_run_case(n, s, offset, walk, dt, eps, cache_dir) for n in ns for s in s_values]


def group_by_n(records: list[SweepRecord]) -> dict[int, dict[int, SweepRecord]]:
    """Sweep records keyed by N (ascending), then by S."""
    by_n: dict[int, dict[int, SweepRecord]] = {}
    for rec in records:
        by_n.setdefault(rec.N, {})[rec.S] = rec
    return dict(sorted(by_n.items()))


def delta_table(records: list[SweepRecord]) -> dict[int, Deltas]:
    """Group a sweep by N and reduce each S-triple to its deltas."""
    return {n: side_chain_deltas(group) for n, group in group_by_n(records).items()}


def speedup_fit(records: list[SweepRecord]) -> PowerLawFit:
    """Power-law fit of the one-vertex speed-up ratio d1/tau against N.

    Needs only the S = 0 and S = 1 cases of each N.
    """
    ns = []
    ratios = []
    for n, group in group_by_n(records).items():
        if 0 in group and 1 in group:
            ns.append(n)
            ratios.append((group[1].tau - group[0].tau) / group[0].tau)
    if len(ns) < 2:
        raise ValidationError("need S=0 and S=1 records for at least two N values")
    return fit_power_law(np.array(ns), np.array(ratios))


# ---------------------------------------------------------------------------
# Entropy study
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EntropyCase:
    """Entropy diagnostics of one quantum case on its own horizon."""

    S: int
    grid: TimeGrid
    entropy: np.ndarray
    tau0: float
    average: float


def entropy_study(
    n: int,
    offset: int = 0,
    dt: float = 0.01,
    eps: float = 1e-6,
) -> dict[int, EntropyCase]:
    """Entropy series for each S in ENTROPY_S_VALUES, each on its own quantum horizon."""
    cases: dict[int, EntropyCase] = {}
    for s in ENTROPY_S_VALUES:
        g = _model_graph(n, s, offset)
        quantum_grid(n, dt)  # refused before the eigh
        h = quantum.spectrum(g)
        result, _ = run_pipeline(h, n, dt, eps)
        grid = TimeGrid.from_span(result.tau0, dt)
        # evaluated here, so the ModeSum and its cached block are freed first
        amp = quantum.evolve_schrodinger(h, 1, grid).span(0, grid.n).T
        series = coherence.entropy_series(amp, bipartite_coloring(g))
        avg = coherence.average_entropy(series, grid, result.tau0)
        cases[s] = EntropyCase(
            S=s, grid=grid, entropy=series, tau0=result.tau0, average=avg
        )
    return cases
