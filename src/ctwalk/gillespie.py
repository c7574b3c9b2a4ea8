"""Ensemble sampling of first-passage times for the classical walk.

Every vertex has unit total exit rate, so the walk is its jump chain (a
uniformly random neighbor per jump) with iid Exp(1) holding times (Norris
1997, sec. 2.6), and the number K of jumps to the first arrival is discrete
phase-type (Neuts 1981): P(K = k) = e_s^T Q^(k-1) r, Q being the jump
matrix on the non-target vertices and r the one-step arrival vector. Its
CDF is tabulated once per call from powers of Q, not from the spectral
solve the sample is checked against, until less than TAIL_MASS has not
arrived. That mass is below half an ulp at 1, so the table, normalised by
its last entry, ends at exactly 1 and holds the K of every uniform draw: no
trajectory is walked step by step. A trajectory hits at G + E,
G ~ Gamma(K - 1, 1) (0 for K = 1) being its clock after the jumps that do
not arrive and E ~ Exp(1) its last holding time. It is capped when
G > t_cap, so, as step by step, a hit on the step that passes t_cap still
counts.

Batches of BATCH_SIZE trajectories run in turn, each from its own substream
spawned from (seed, batch index): results are bit-reproducible for a seed,
and the first k trajectories do not depend on how many batches follow.

Determinism contract, per batch of n: K - 1 = ``searchsorted(cdf,
rng.random(n), side="right")``. A guide table (Chen & Asau 1974; Devroye
1986, sec. III.2.4) computes that same index, with one gather and one
comparison for all but the few uniforms in a bucket that spans more than
one step of the CDF. Then ``G = rng.standard_gamma(K - 1)`` and
``E = rng.standard_exponential(n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, refuse_over
from .graphs import Graph
from .grid import _check_positive

BATCH_SIZE = 100_000
# most histogram bins a run may ask for (t_cap / bin_width); each array
# over the bins then stays near 80 MB
MAX_BINS = 10_000_000
# most trajectories a run may ask for; the hitting times then stay near 80 MB
MAX_TRAJ = 10_000_000
# the jump-count table ends once less than this mass has not yet arrived; it
# must stay below 2^-54, half an ulp at 1, so that the mass left out cannot
# move the table's last entry off 1
TAIL_MASS = 1e-17
# powers of the jump matrix propagated per step of the table build
TABLE_BLOCK = 64
# most work a table build may take, its predicted entries times vertices squared.
# The largest side chain accepted, N = 237 (1.77M entries, 9.9e10), took 4.8 s as
# `montecarlo --dt 1` on two vCPUs; N = 43, S = 2 is 1.2e8
MAX_TABLE_WORK = 1e11


@dataclass(frozen=True, eq=False)
class FirstPassageHistogram:
    """Hitting-time sample with its normalized histogram (probability per unit time)."""

    hitting_times: np.ndarray
    bin_edges: np.ndarray
    density: np.ndarray
    n_traj: int
    n_capped: int

    def _finite(self) -> np.ndarray:
        """The finite hitting times: the sample itself, not a copy, when none was capped."""
        if self.n_capped == 0:
            return self.hitting_times
        return self.hitting_times[np.isfinite(self.hitting_times)]

    @property
    def empirical_mean(self) -> float | None:
        """Mean of the finite hitting times; None if every trajectory was capped."""
        finite = self._finite()
        return float(np.mean(finite)) if len(finite) else None

    @property
    def empirical_stderr(self) -> float | None:
        """Standard error of that mean; None if every trajectory was capped."""
        finite = self._finite()
        return float(np.std(finite) / np.sqrt(len(finite))) if len(finite) else None


def _jump_count_table(g: Graph, start: int, target: int) -> np.ndarray:
    """CDF of the jump count K (entry k - 1 is P(K <= k)), normalised by its last
    entry, which is therefore exactly 1."""
    adj = g.adjacency()
    jump = adj / adj.sum(axis=1)[:, None]
    free = np.arange(g.n) != target - 1
    q, r = jump[np.ix_(free, free)], jump[free, target - 1]
    rows = [(np.arange(g.n) == start - 1)[free].astype(float)]
    for _ in range(TABLE_BLOCK - 1):
        rows.append(rows[-1] @ q)
    # row i of block: the mass not yet arrived after (blocks done) * TABLE_BLOCK + i jumps
    block, step = np.array(rows), np.linalg.matrix_power(q, TABLE_BLOCK)
    pmf = []
    while True:
        end = np.flatnonzero(block.sum(axis=1) < TAIL_MASS)
        if len(end):
            pmf.append(block[: end[0]] @ r)
            cdf = np.cumsum(np.concatenate(pmf))
            return cdf / cdf[-1]
        pmf.append(block @ r)
        block = block @ step


def table_length_estimate(g: Graph, target: int) -> float:
    """Predicted length of the jump-count table to target, ln(TAIL_MASS) / ln(rho).

    rho is the spectral radius of the jump matrix Q on the non-target vertices,
    read off D^(-1/2) A D^(-1/2) on them, which is similar to Q and symmetric. The
    mass not arrived after k jumps is about c rho^k, c being the start's weight on
    the slowest mode; leaving c out falls short by ln(c) / ln(rho) entries, 0.6% on
    the side chains. The graph must be connected, so that rho < 1."""
    adj = g.adjacency()
    free = np.arange(g.n) != target - 1
    root = np.sqrt(adj.sum(axis=1))[free]
    rho = float(np.linalg.eigvalsh(adj[np.ix_(free, free)] / np.outer(root, root))[-1])
    return math.log(TAIL_MASS) / math.log(rho) if rho > 0.0 else 1.0


def check_jump_count_table(g: Graph, target: int) -> None:
    """Refuse a jump-count table whose build would take more than MAX_TABLE_WORK."""
    length = table_length_estimate(g, target)
    refuse_over(length * g.n**2, MAX_TABLE_WORK,
                f"the jump-count table to vertex {target} would hold about {length:.3g} "
                f"entries; times {g.n} vertices squared that", "sample a smaller graph")


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """The guide table of a CDF that ends at 1 (Chen & Asau 1974): entry b is
    ``searchsorted(cdf, b / size, side="right")`` for b = 0 .. size, size being
    the power of two at or above len(cdf)."""
    size = 1 << (len(cdf) - 1).bit_length()
    return np.searchsorted(cdf, np.arange(size + 1) / size, side="right")


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")`` for u in [0, 1), from _guide_table.

    size is a power of two, so b = floor(u * size) holds b / size <= u < (b + 1) / size
    exactly and the index lies in [guide[b], guide[b + 1]]; as u < 1 = cdf[-1], that
    is below len(cdf). Where the range holds one or two indices, one comparison with
    cdf settles it; the few keys in wider ranges are searched."""
    b = (u * (len(guide) - 1)).astype(np.intp)
    index = guide[b]
    wide = np.flatnonzero(guide[1:][b] - index > 1)
    index += cdf[index] <= u
    index[wide] = np.searchsorted(cdf, u[wide], side="right")
    return index


def check_sampling_args(n_traj: int, seed: int, bin_width: float, t_cap: float) -> None:
    """Reject a sampling request before any work is done for it."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if n_traj < 1:
        raise ValidationError(f"n_traj must be >= 1, got {n_traj}")
    refuse_over(n_traj, MAX_TRAJ, "a run of {} trajectories")
    _check_positive("bin_width", bin_width)
    _check_positive("t_cap", t_cap)
    refuse_over(t_cap / bin_width, MAX_BINS, "t_cap / bin_width = {} histogram bins",
                "widen the bins or lower t_cap")


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
    MAX_BINS. The jump-count table's predicted build may not exceed
    MAX_TABLE_WORK.
    """
    g.check_vertex(start)
    g.check_vertex(target)
    if start == target:
        raise ValidationError("start and target must differ")
    check_sampling_args(n_traj, seed, bin_width, t_cap)
    if not g.is_connected():
        raise ValidationError("sampling requires a connected graph")
    check_jump_count_table(g, target)
    cdf = _jump_count_table(g, start, target)
    guide = _guide_table(cdf)
    streams = np.random.SeedSequence(seed).spawn((n_traj + BATCH_SIZE - 1) // BATCH_SIZE)
    hitting_times = np.empty(n_traj)
    for lo, stream in zip(range(0, n_traj, BATCH_SIZE), streams):
        rng = np.random.default_rng(stream)
        n = min(BATCH_SIZE, n_traj - lo)
        jumps = _guided_search(cdf, guide, rng.random(n))  # K - 1
        clock = rng.standard_gamma(jumps)  # after the K - 1 jumps that do not arrive
        hits = clock + rng.standard_exponential(n)
        hitting_times[lo:lo + n] = np.where(clock > t_cap, np.inf, hits)
    capped = np.isinf(hitting_times)
    n_capped = int(np.count_nonzero(capped))
    finite = hitting_times[~capped] if n_capped else hitting_times
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
        n_capped=n_capped,
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
