"""Ensemble sampling of first-passage times for the classical walk.

Every vertex has unit total exit rate, so the walk is its jump chain (a
uniformly random neighbor per jump) with iid Exp(1) holding times (Norris
1997, sec. 2.6), and the number K of jumps to the first arrival is discrete
phase-type (Neuts 1981): P(K = k) = e_s^T Q^(k-1) r, Q being the jump
matrix on the non-target vertices and r the one-step arrival vector. Its
CDF is tabulated once per call from powers of Q, not from the spectral
solve the sample is checked against, until less than TAIL_MASS has not
arrived. A trajectory hits at G + E, G ~ Gamma(K - 1, 1) (0 for K = 1)
being its clock after the jumps that do not arrive and E ~ Exp(1) its last
holding time. It is capped when G > t_cap, so, as step by step, a hit on
the step that passes t_cap still counts.

Batches of BATCH_SIZE trajectories run in turn, each from its own substream
spawned from (seed, batch index): results are bit-reproducible for a seed,
and the first k trajectories do not depend on how many batches follow.

Determinism contract, per batch of n: K - 1 = ``searchsorted(cdf,
rng.random(n), side="right")``. A guide table (Chen & Asau 1974; Devroye
1986, sec. III.2.4) computes that same index, with one gather and one
comparison for all but the few uniforms in a bucket that spans more than
one step of the CDF. The m whose uniform lies beyond the table
walk on, in batch order: ``rng.choice`` draws their vertices from the
normalised surviving vector, then each step draws ``rng.random(m')`` for
the m' still walking and moves the i-th to neighbor floor(u_i * degree) of
its vertex; K is the table's length plus the steps. Then
``G = rng.standard_gamma(K - 1)`` and ``E = rng.standard_exponential(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graphs import Graph
from .grid import _check_positive

BATCH_SIZE = 100_000
# most histogram bins a run may ask for (t_cap / bin_width); each array
# over the bins then stays near 80 MB
MAX_BINS = 10_000_000
# most trajectories a run may ask for; the hitting times then stay near 80 MB
MAX_TRAJ = 10_000_000
# the jump-count table ends once less than this mass has not yet arrived
TAIL_MASS = 1e-17
# powers of the jump matrix propagated per step of the table build
TABLE_BLOCK = 64


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


def _neighbor_table(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded neighbor rows (0-based) and the degrees as float64 (exact)."""
    deg = np.array([g.degree(v) for v in range(1, g.n + 1)], dtype=np.float64)
    table = np.zeros((g.n, int(deg.max())), dtype=np.intp)
    for v in range(1, g.n + 1):
        nb = g.neighbors(v)
        table[v - 1, : len(nb)] = np.array(nb, dtype=np.intp) - 1
    return table, deg


def _jump_count_table(g: Graph, start: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """CDF of the jump count K (entry k - 1 is P(K <= k)) and the surviving
    vector, the mass not arrived after the table's last jump (below TAIL_MASS).
    The CDF is normalised by its sum plus that mass, so rounding stays off the tail."""
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
            surviving = np.zeros(g.n)
            surviving[free] = block[end[0]]
            cdf = np.cumsum(np.concatenate(pmf))
            cdf /= cdf[-1] + surviving.sum()
            return cdf, surviving
        pmf.append(block @ r)
        block = block @ step


def _guide_table(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CDF with inf appended, and its guide table (Chen & Asau 1974):
    entry b is ``searchsorted(cdf, b / size, side="right")`` for b = 0 .. size,
    size being the power of two at or above len(cdf)."""
    size = 1 << (len(cdf) - 1).bit_length()
    return np.append(cdf, np.inf), np.searchsorted(cdf, np.arange(size + 1) / size, side="right")


def _guided_search(ext: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")`` for u in [0, 1), from _guide_table.

    size is a power of two, so b = floor(u * size) holds b / size <= u < (b + 1) / size
    exactly and the index lies in [guide[b], guide[b + 1]]. Where that range holds
    one or two indices, one comparison with ext settles it; the few keys in wider
    ranges are searched."""
    b = (u * (len(guide) - 1)).astype(np.intp)
    index = guide[b]
    wide = np.flatnonzero(guide[1:][b] - index > 1)
    index += ext[index] <= u
    index[wide] = np.searchsorted(ext, u[wide], side="right")
    return index


def _tail_jumps(table: np.ndarray, deg: np.ndarray, target: int, surviving: np.ndarray,
                rng: np.random.Generator, m: int) -> np.ndarray:
    """Jumps to arrival of m trajectories from the normalised surviving vector, step by step."""
    pos = rng.choice(len(surviving), size=m, p=surviving / surviving.sum())
    jumps = np.zeros(m, dtype=np.int64)
    live = np.arange(m)
    while len(live):
        jumps[live] += 1
        u = rng.random(len(live))
        pos = table[pos, (u * deg[pos]).astype(np.intp)]
        walking = pos != target - 1
        live, pos = live[walking], pos[walking]
    return jumps


def check_sampling_args(n_traj: int, bin_width: float, t_cap: float) -> None:
    """Reject a sampling request before any work is done for it."""
    if n_traj < 1:
        raise ValidationError(f"n_traj must be >= 1, got {n_traj}")
    if n_traj > MAX_TRAJ:
        raise ValidationError(f"n_traj = {n_traj} exceeds the budget of {MAX_TRAJ} trajectories")
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
    if not g.is_connected():
        raise ValidationError("sampling requires a connected graph")
    table, deg = _neighbor_table(g)
    cdf, surviving = _jump_count_table(g, start, target)
    ext, guide = _guide_table(cdf)
    streams = np.random.SeedSequence(seed).spawn((n_traj + BATCH_SIZE - 1) // BATCH_SIZE)
    hitting_times = np.empty(n_traj)
    for lo, stream in zip(range(0, n_traj, BATCH_SIZE), streams):
        rng = np.random.default_rng(stream)
        n = min(BATCH_SIZE, n_traj - lo)
        jumps = _guided_search(ext, guide, rng.random(n))  # K - 1
        beyond = np.flatnonzero(jumps == len(cdf))
        if len(beyond):
            jumps[beyond] += _tail_jumps(table, deg, target, surviving, rng, len(beyond)) - 1
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
