"""Ensemble sampling of first-passage times for the classical walk.

Trajectories follow the jump process generated by the rate matrix: unit
total exit rate at every vertex (exponential waiting time, mean one) and a
uniformly random neighbor as the next vertex (Gillespie's stochastic
simulation).

Sampling is vectorized over fixed-size batches of BATCH_SIZE trajectories.
Each batch draws from its own seeded substream, spawned from (seed, batch
index), so results are bit-reproducible for a given seed and the first k
trajectories do not depend on how many batches follow. The batches run on
every CPU in the affinity mask (parallel.ordered_map) and are gathered in
batch order, so the results are also independent of the worker count.

Determinism contract: a batch carries only its live trajectories (vertex,
time and index into the batch), in batch order. Every step draws
``rng.exponential(1.0, size=m)`` and then ``rng.random(m)``, m being the
live count, adds the i-th waiting time to the i-th live time, and moves
the i-th live trajectory to neighbor floor(u_i * degree) of its vertex.
After the step, trajectories that reached the target (a hit, even on the
step that passes t_cap) or passed t_cap (capped) leave the live set, which
is compacted with one mask so the survivors keep their order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ValidationError
from .graphs import Graph
from .grid import _check_positive
from .parallel import ordered_map

BATCH_SIZE = 100_000
# most histogram bins a run may ask for (t_cap / bin_width); each array
# over the bins then stays near 80 MB
MAX_BINS = 10_000_000


@dataclass(frozen=True, eq=False)
class FirstPassageHistogram:
    """Hitting-time sample with its normalized histogram (probability per unit time)."""

    hitting_times: np.ndarray
    bin_edges: np.ndarray
    density: np.ndarray
    n_traj: int
    n_capped: int

    @property
    def empirical_mean(self) -> float | None:
        """Mean of the finite hitting times; None if every trajectory was capped."""
        finite = self.hitting_times[np.isfinite(self.hitting_times)]
        return float(np.mean(finite)) if len(finite) else None

    @property
    def empirical_stderr(self) -> float | None:
        """Standard error of that mean; None if every trajectory was capped."""
        finite = self.hitting_times[np.isfinite(self.hitting_times)]
        return float(np.std(finite) / np.sqrt(len(finite))) if len(finite) else None


def _neighbor_table(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded neighbor rows (0-based) and the degrees as float64 (exact)."""
    deg = np.array([g.degree(v) for v in range(1, g.n + 1)], dtype=np.float64)
    table = np.zeros((g.n, int(deg.max())), dtype=np.intp)
    for v in range(1, g.n + 1):
        nb = g.neighbors(v)
        table[v - 1, : len(nb)] = np.array(nb, dtype=np.intp) - 1
    return table, deg


def _run_batch(
    table: np.ndarray,
    deg: np.ndarray,
    start: int,
    target: int,
    t_cap: float,
    batch: tuple[int, np.random.SeedSequence],
) -> tuple[np.ndarray, int]:
    """Hitting times (inf if capped) and capped count of a batch of n
    trajectories drawn from its substream, batch being (n, substream)."""
    n, stream = batch
    rng = np.random.default_rng(stream)
    width = table.shape[1]
    flat = table.ravel()
    pos = np.full(n, start - 1, dtype=np.intp)
    t = np.zeros(n)
    idx = np.arange(n)
    hits = np.full(n, np.inf)
    capped = 0
    while len(pos):
        t += rng.exponential(1.0, size=len(pos))
        u = rng.random(len(pos))
        u *= deg.take(pos)
        k = u.astype(np.intp)
        pos *= width
        k += pos
        pos = flat.take(k)
        arrived = pos == target - 1
        keep = ~arrived
        if t.max() > t_cap:
            late = t > t_cap
            late &= keep
            capped += int(np.count_nonzero(late))
            keep &= ~late
        if not keep.all():
            got = np.flatnonzero(arrived)
            hits[idx.take(got)] = t.take(got)
            live = np.flatnonzero(keep)
            pos, t, idx = pos.take(live), t.take(live), idx.take(live)
    return hits, capped


def check_sampling_args(n_traj: int, bin_width: float, t_cap: float) -> None:
    """Reject a sampling request before any work is done for it."""
    if n_traj < 1:
        raise ValidationError(f"n_traj must be >= 1, got {n_traj}")
    _check_positive("bin_width", bin_width)
    _check_positive("t_cap", t_cap)
    if t_cap / bin_width > MAX_BINS:
        raise ValidationError(
            f"t_cap / bin_width = {t_cap / bin_width:.3g} histogram bins exceeds "
            f"the budget of {MAX_BINS}; widen the bins or lower t_cap"
        )


def gillespie_first_passage(
    g: Graph,
    start: int,
    target: int,
    n_traj: int,
    seed: int,
    bin_width: float,
    t_cap: float = 1e4,
) -> FirstPassageHistogram:
    """Sample n_traj first hitting times of target and histogram them.

    Trajectories that exceed t_cap without arriving are counted in n_capped
    and excluded from the histogram (never silently dropped). The histogram
    is normalized by n_traj and the bin width, so it estimates the
    first-passage density directly. Its bins run up to the last hit, at
    most one waiting time past t_cap, so t_cap / bin_width may not exceed
    MAX_BINS.
    """
    g.check_vertex(start)
    g.check_vertex(target)
    if start == target:
        raise ValidationError("start and target must differ")
    check_sampling_args(n_traj, bin_width, t_cap)
    table, deg = _neighbor_table(g)
    n_batches = (n_traj + BATCH_SIZE - 1) // BATCH_SIZE
    streams = np.random.SeedSequence(seed).spawn(n_batches)
    batches = [(min(BATCH_SIZE, n_traj - i * BATCH_SIZE), s) for i, s in enumerate(streams)]
    parts = list(ordered_map(partial(_run_batch, table, deg, start, target, t_cap), batches))
    hitting_times = np.concatenate([hits for hits, _ in parts])
    capped = sum(c for _, c in parts)
    finite = hitting_times[np.isfinite(hitting_times)]
    top = float(finite.max()) if len(finite) else bin_width
    edges = np.arange(0.0, top + bin_width, bin_width)
    if len(edges) < 2:
        edges = np.array([0.0, bin_width])
    counts, edges = np.histogram(finite, bins=edges)
    density = counts / (n_traj * bin_width)
    return FirstPassageHistogram(
        hitting_times=hitting_times,
        bin_edges=edges,
        density=density,
        n_traj=n_traj,
        n_capped=capped,
    )


def histogram_density_l1(
    hist: FirstPassageHistogram, f_times: np.ndarray, f_values: np.ndarray
) -> float:
    """L1 distance between the histogram and a reference density.

    Both are reduced to probability masses on the histogram bins (the
    reference mass comes from the trapezoid cumulative of f interpolated at
    the bin edges), so the result is a dimensionless total-variation-style
    distance.
    """
    f_values = np.asarray(f_values, dtype=float)
    df = np.diff(f_times)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f_values[1:] + f_values[:-1]) * df)])
    edges = hist.bin_edges
    ref_mass = np.diff(np.interp(edges, f_times, cum))
    hist_mass = hist.density * np.diff(edges)
    return float(np.abs(hist_mass - ref_mass).sum())
