"""Sweep orchestration: cases, side-chain deltas, power-law fit, studies.

A case is one (N, S, offset, walk) pipeline run: build the graph, evolve
from the target, deconvolve, find the horizon, take the mean. Sweeps over
many cases are cached on disk keyed by (N, S, offset, walk, dt) so large
tables rerun incrementally; each entry also stores the eps it was run at
and the SOLVER_ID of the code that wrote it. Independent cases can run on
several processes (parallel.ordered_map).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import classical, coherence, quantum
from .errors import NoZeroCrossingError, NumericsError, ValidationError
from .first_passage import (
    MAX_SOLVE_POINTS,
    FirstPassageResult,
    cumulative_mass,
    deconvolve,
    detect_tau0,
    first_passage_result,
    solve_exp_sum,
)
from .graphs import Graph, SideChainConfig, bipartite_coloring, build_side_chain_graph
from .grid import Spectrum, TimeGrid
from .parallel import ordered_map

MAX_HORIZON_DOUBLINGS = 8
# names the solvers behind a cached record; change it whenever a solver
# change moves outputs, so older cache entries are recomputed
SOLVER_ID = "exp-sum+blocked-64-all-lengths"
ENTROPY_S_VALUES = (0, 1, 2)
# largest round-trip residual max|F * P_bb - P_ab| a run may return
# (acceptance criterion 5); a solve that misses it fails instead
QUANTUM_RESIDUAL_MAX = 1e-4
CLASSICAL_RESIDUAL_MAX = 1e-5


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
    """What run_pipeline and the evolvers read: a Spectrum, or a RateMatrix carrying one."""
    if walk == "quantum":
        return quantum.spectrum(g)
    if walk == "classical":
        return classical.build_rate_matrix(g)
    raise ValidationError(f"walk must be 'classical' or 'quantum', got {walk!r}")


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
    rates, with F(0) the exact hop rate; the quantum F is deconvolved with
    F(0) = 0, on grids with dt (lambda_max - lambda_min) < pi so that P(t)
    is not aliased and of at most MAX_SOLVE_POINTS points.
    Classical horizons come from the killed-walk survival function (the
    F-mass crossing is used when it happens on the grid); quantum horizons
    start near the ballistic crossing time and double until the zero of F
    is on the grid.

    Raises NumericsError when the round-trip residual exceeds
    QUANTUM_RESIDUAL_MAX or CLASSICAL_RESIDUAL_MAX, and ValidationError
    when a quantum grid would exceed MAX_SOLVE_POINTS.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    if isinstance(model, classical.RateMatrix):
        rm = model
        coefs = rm.spectrum.modes(target, (start, target))
        balance = rm.degrees[target - 1] / rm.degrees[start - 1]
        coefs[0] *= balance
        # epsilon horizon from the exact killed-walk survival; the quadrature
        # mass of the discrete F saturates ~1e-6 short of one at dt = 0.01,
        # so its own epsilon crossing can sit far beyond the true one
        t_eps = classical.survival_horizon(rm, target, eps=eps, start=start)
        # F(0) is the hop rate start -> target, exactly 0 unless they are adjacent
        f0 = float(rm.matrix[target - 1, start - 1])
        spans = [t_eps * 1.05 + 4.0]
        residual_max = CLASSICAL_RESIDUAL_MAX

        def series(grid: TimeGrid) -> np.ndarray:
            p = classical.vertex_occupations(rm, target, (start, target), grid)
            p[0] *= balance
            return p

        def solve(p_ab: np.ndarray, p_bb: np.ndarray, grid: TimeGrid) -> np.ndarray:
            return solve_exp_sum(rm.spectrum.rates, coefs, grid, f0)

        def horizon(F: np.ndarray, grid: TimeGrid) -> float:
            if 1.0 - cumulative_mass(F, grid)[-1] < eps:
                return detect_tau0(F, grid, mode="classical", eps=eps)
            return t_eps

    else:
        # P(t) oscillates at the eigenvalue gaps of H; a grid that cannot
        # resolve the widest one solves an aliased series
        bandwidth = float(np.ptp(model.rates.imag))
        if dt * bandwidth >= math.pi:
            raise ValidationError(
                f"dt = {dt} aliases the fastest oscillation of P(t) (frequency "
                f"{bandwidth:.6g}); dt must be below {math.pi / bandwidth:.6g}"
            )
        t_first = max(12.0, 0.7 * target + 6.0)
        spans = [t_first * 2.0**k for k in range(MAX_HORIZON_DOUBLINGS)]
        residual_max = QUANTUM_RESIDUAL_MAX

        def series(grid: TimeGrid) -> np.ndarray:
            if grid.n > MAX_SOLVE_POINTS:
                raise ValidationError(
                    f"the quantum solve on {grid.n} grid points exceeds the budget "
                    f"of {MAX_SOLVE_POINTS}; raise dt"
                )
            return quantum.transition_probabilities(model, target, (start, target), grid)

        def solve(p_ab: np.ndarray, p_bb: np.ndarray, grid: TimeGrid) -> np.ndarray:
            # d/dt |psi_a|^2 = 2 Re(conj(psi_a) psi_a') is 0 where psi_a(0) = 0
            return deconvolve(p_ab, p_bb, grid, 0.0)

        def horizon(F: np.ndarray, grid: TimeGrid) -> float:
            return detect_tau0(F, grid, mode="quantum", eps=eps)

    for span in spans:
        grid = TimeGrid.from_span(span, dt)
        p_ab, p_bb = series(grid)
        F = solve(p_ab, p_bb, grid)
        try:
            tau0 = horizon(F, grid)
        except NoZeroCrossingError:
            continue
        result = first_passage_result(p_ab, p_bb, F, grid, tau0)
        if not result.reconstruction_error <= residual_max:  # also catches nan
            raise NumericsError(
                f"residual {result.reconstruction_error:.3g} > {residual_max:g} "
                f"at {grid.n} points"
            )
        return result, grid
    raise NoZeroCrossingError(
        f"no zero of F within {2.0 * spans[-1]} time units; giving up"
    )


def run_case(
    n: int, s: int, offset: int, walk: str, dt: float = 0.01, eps: float = 1e-6
) -> SweepRecord:
    """Full pipeline for one (N, S, offset, walk) case."""
    result, _ = run_pipeline(walk_model(_model_graph(n, s, offset), walk), n, dt, eps)
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
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / _cache_name(n, s, offset, walk, dt)
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
    _atomic_write_text(path, json.dumps({**asdict(record), "solver": SOLVER_ID}))
    return record


def _case_worker(args: tuple) -> SweepRecord:
    return cached_run_case(*args)


def sweep(
    ns: list[int],
    s_values: list[int],
    offset: int,
    walk: str,
    dt: float = 0.01,
    eps: float = 1e-6,
    cache_dir: str | Path | None = None,
    jobs: int = 1,
) -> list[SweepRecord]:
    """All (N, S) cases at a fixed offset, on up to jobs processes.

    The output order is the deterministic product order of ns and s_values,
    independent of scheduling. The busy processes, this one included, never
    outnumber the usable CPUs or the cases; jobs=1 runs in this process.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    cases = [(n, s, offset, walk, dt, eps, cache_dir) for n in ns for s in s_values]
    return list(ordered_map(_case_worker, cases, max_workers=jobs))


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


def offset_study(
    n: int,
    offsets: list[int],
    walk: str,
    dt: float = 0.01,
    eps: float = 1e-6,
    cache_dir: str | Path | None = None,
) -> dict[int, Deltas]:
    """Deltas as the side-chain mount slides away from the center."""
    out: dict[int, Deltas] = {}
    for offset in offsets:
        records = {
            s: cached_run_case(n, s, offset, walk, dt, eps, cache_dir)
            for s in (0, 1, 2)
        }
        out[offset] = side_chain_deltas(records)
    return out


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


@dataclass(frozen=True, eq=False)
class EntropyStudy:
    cases: dict[int, EntropyCase]

    @property
    def average_gap_2_0(self) -> float:
        """Average-entropy difference between the S = 2 and S = 0 cases."""
        return self.cases[2].average - self.cases[0].average


def entropy_study(
    n: int,
    offset: int = 0,
    dt: float = 0.01,
    eps: float = 1e-6,
) -> EntropyStudy:
    """Entropy series for each S in ENTROPY_S_VALUES, each on its own quantum horizon."""
    cases: dict[int, EntropyCase] = {}
    for s in ENTROPY_S_VALUES:
        g = _model_graph(n, s, offset)
        h = quantum.spectrum(g)
        result, _ = run_pipeline(h, n, dt, eps)
        grid = TimeGrid.from_span(result.tau0, dt)
        amp = quantum.evolve_schrodinger(h, 1, grid)
        series = coherence.entropy_series(amp, bipartite_coloring(g))
        avg = coherence.average_entropy(series, grid, result.tau0)
        cases[s] = EntropyCase(
            S=s, grid=grid, entropy=series, tau0=result.tau0, average=avg
        )
    return EntropyStudy(cases=cases)
