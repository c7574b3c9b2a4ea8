"""First-passage extraction from occupation probabilities.

The first-passage density F(t) from vertex a to b is defined implicitly by
the renewal relation

    P_ab(t) = integral_0^t F(t') P_bb(t - t') dt',

a first-kind Volterra equation with kernel value one on the diagonal
(P_bb(0) = 1). Discretized with the product trapezoid rule on a uniform
grid it becomes a lower-triangular Toeplitz system. When both series are
exponential sums over the same real rates (the classical walk),
solve_exp_sum gives its solution in closed form, as powers of the
eigenvalues of a rank-one update of a diagonal; modal_first_passage then
takes the horizon, the mean and a bound on the round-trip residual from
those modes by geometric sums, in O(modes^3 + modes log T), and F is a
LazyRow evaluated only where it is written. For general series (the
quantum walk), deconvolve solves the system by blocked forward
substitution: every diagonal block is the same SOLVE_BLOCK-point Toeplitz
matrix, inverted once per call, and each solved block enters the
right-hand side of every later row through one vector-matrix product
(Hairer, Lubich & Schlichte 1985). That costs O(T^2) time and a
SOLVE_BLOCK x T coupling strip, so callers keep T within
MAX_SOLVE_POINTS. reconstruct, the quantum round-trip check, is an FFT
convolution and so independent of the solver.

Both solvers take F(0) from their caller, as an exact model quantity: the
classical walk passes the hop rate start -> target, and the quantum walk
passes 0, since d/dt |psi_a|^2 = 2 Re(conj(psi_a) psi_a') vanishes with
psi_a(0) = 0.

The mean first-passage time is the normalized first moment of F on
[0, tau0]. For the quantum walk tau0 is the first zero of F after its first
peak, found by detect_tau0. For the classical walk it is infinity, in
practice an epsilon cutoff of the survival mass, found by
modal_first_passage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NoZeroCrossingError, NumericsError, ValidationError
from .grid import LazyRow, ModeSum, TimeGrid

# largest grid run_pipeline hands to deconvolve: the blocked solve costs
# O(T^2) time, seconds at this size, and a SOLVE_BLOCK x T float strip (64 MB)
MAX_SOLVE_POINTS = 1 << 17
# unknowns per block of the blocked forward substitution; of 32, 64 and 128
# points, 64 was the fastest on the quantum sweep's 1,201 to 3,611-point grids
SOLVE_BLOCK = 64
# local maxima of F below this fraction of its global maximum are noise
PEAK_FRACTION = 0.01
# the modal residual bound merges rates whose q = exp(rate dt) lie this close,
# and leaves out of its sums the merged modes no heavier than LIGHT_WEIGHT at
# the target, bounding their share whole
MERGE_TOL = 1e-10
LIGHT_WEIGHT = 1e-14


@dataclass(frozen=True, eq=False)
class FirstPassageResult:
    """F series with its horizon, mean, normalization and round-trip residual.

    p_ab and p_bb are the occupation series F was solved from, when known;
    the classical walk's series are LazyRows. residual_kind names what
    reconstruction_error holds: "round_trip", max|F * P_bb - P_ab| on the
    grid, or "modal_bound", modal_residual's bound on it.
    """

    grid: TimeGrid
    F: np.ndarray | LazyRow
    tau0: float
    tau: float
    norm: float
    reconstruction_error: float | None = None
    p_ab: np.ndarray | LazyRow | None = None
    p_bb: np.ndarray | LazyRow | None = None
    residual_kind: str = "round_trip"


def _check_inputs(p_ab: np.ndarray, p_bb: np.ndarray) -> None:
    if p_ab.shape != p_bb.shape or p_ab.ndim != 1:
        raise ValidationError(
            f"series must be 1-d and share a grid, got {p_ab.shape} vs {p_bb.shape}"
        )
    if len(p_ab) < 3:
        raise ValidationError("need at least 3 grid points")
    if abs(p_bb[0] - 1.0) > 1e-9:
        raise NumericsError(
            f"ill-conditioned kernel: P_bb(0) = {p_bb[0]!r}, expected 1"
        )
    if abs(p_ab[0]) > 1e-9:
        raise ValidationError(f"P_ab(0) = {p_ab[0]!r}, expected 0")


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the FFT handles efficiently."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _conv_trunc(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the linear convolution a * b."""
    size = _fft_size(len(a) + len(b))
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def _solve_blocked(b: np.ndarray, p_bb: np.ndarray, dt: float, f0: float) -> np.ndarray:
    """Forward substitution over blocks of SOLVE_BLOCK unknowns.

    Row n >= 1 of the product-trapezoid system reads
    rhs[n] = sum_{j=1..n} c[n - j] F[j], with c = dt (1/2, P_bb[1], ...)
    and the known F(0) = f0 moved to the right-hand side. Each solved block
    is subtracted from the right-hand side of every later row by one
    vector-matrix product, so a row gathers its history one block at a
    time; that rounds less than one long dot product per row.
    """
    c = dt * p_bb
    c[0] = 0.5 * dt
    rhs = b - (0.5 * dt * f0) * p_bb
    n = len(b) - 1  # unknowns F[1:]
    size = min(SOLVE_BLOCK, n)
    lag = np.arange(size)
    block = np.tril(c[np.abs(lag[:, None] - lag)])  # every diagonal block
    block_inv = np.linalg.inv(block)
    # coupling[q, r] = c[size - q + r], the weight of unknown q of a block in
    # the r-th row after it; only the last block can be short, and it has no
    # later rows
    coupling = sliding_window_view(c, n - size)[size:0:-1].copy()
    F = np.empty(n + 1)
    F[0] = f0
    x = rhs[1:]
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        L, L_inv = block[:hi - lo, :hi - lo], block_inv[:hi - lo, :hi - lo]
        y = L_inv @ x[lo:hi]
        # one refinement step brings each row's residual to rounding level
        y += L_inv @ (x[lo:hi] - L @ y)
        F[lo + 1:hi + 1] = y
        if hi < n:
            x[hi:] -= y @ coupling[:, :n - hi]
    return F


def _geometric(x: np.ndarray, m: int) -> np.ndarray:
    """sum_{k=0}^{m-1} x^k for each entry of x."""
    one = x == 1.0
    return np.where(one, float(m), (1.0 - x**m) / np.where(one, 2.0, 1.0 - x))


class ModalDensity(LazyRow):
    """The closed-form classical F on a grid: F_0 = f0, F_k = sum_r a_r rho_r^(k-1).

    A LazyRow whose values for k >= 1 are a ModeSum of powers of rho. Its
    trapezoid mass and first moment up to any grid index are geometric sums
    over the modes, so the horizon and the mean need no grid-length array.
    Every rho_r lies below one: the largest q, exp(0 dt) = 1, carries the
    positive stationary weight of the target, which the rank-one update
    moves down.
    """

    def __init__(self, rho: np.ndarray, a: np.ndarray, f0: float, grid: TimeGrid) -> None:
        self.rho, self.a, self.f0, self.grid = rho, a, f0, grid
        powers = ModeSum(a[None, :], grid.n - 1, lambda k: np.power.outer(rho, k))

        def span(lo: int, hi: int) -> np.ndarray:
            tail = powers.span(max(lo - 1, 0), hi - 1)[0]
            return np.concatenate([[f0], tail]) if lo == 0 else tail

        super().__init__(grid.n, span)

    def at(self, k: int) -> float:
        """F_k."""
        return self.f0 if k == 0 else float(self.a @ self.rho ** (k - 1))

    def moments(self, k: int) -> tuple[float, float]:
        """Trapezoid integrals of F and t F over grid points 0 .. k."""
        if k == 0:
            return 0.0, 0.0
        dt, rho = self.grid.dt, self.rho
        f_k = self.at(k)
        s0 = _geometric(rho, k)  # sum_{j=1..k} rho^(j-1)
        s1 = (s0 - k * rho**k) / (1.0 - rho)  # sum_{j=1..k} j rho^(j-1)
        return (float(dt * (0.5 * self.f0 + self.a @ s0 - 0.5 * f_k)),
                float(dt * dt * (self.a @ s1 - 0.5 * k * f_k)))

    def integrals(self, horizon: float) -> tuple[float, float]:
        """Trapezoid integrals of F and t F on [0, horizon], as mean_fpt takes them.

        That is over the grid points up to the horizon, then the horizon
        itself with F linearly interpolated there when it falls between two.
        """
        dt = self.grid.dt
        k = self.grid.last_index(horizon)
        mass, moment = self.moments(k)
        t_k = k * dt
        if t_k < horizon:
            f_k = self.at(k)
            f_h = f_k + (self.at(k + 1) - f_k) * (horizon - t_k) / dt
            mass += 0.5 * (horizon - t_k) * (f_k + f_h)
            moment += 0.5 * (horizon - t_k) * (t_k * f_k + horizon * f_h)
        return mass, moment


def solve_exp_sum(
    rates: np.ndarray, coefs: np.ndarray, grid: TimeGrid, f0: float
) -> ModalDensity:
    """Product-trapezoid solution for exponential-sum series, in closed form.

    coefs holds the rows (c, w) of P_ab(t) = sum_j c_j exp(rates_j t) and
    P_bb(t) = sum_j w_j exp(rates_j t), with real rates, w_j >= 0 and
    c_j = 0 wherever w_j = 0; f0 is F(0). With q_j = exp(rates_j dt) and
    v_j = sqrt(w_j q_j) the system deconvolve solves has the exact solution
    F_k = v^T A^(k-1) g for k >= 1, where A = diag(q) - 2 v v^T is a
    rank-one update of a diagonal (Golub 1973) and
    g_j = (2 c_j / dt - f0 w_j) q_j / v_j. One eigh of A turns F into a
    sum of powers a_r rho_r^(k-1) of its eigenvalues.
    """
    c, w = coefs
    q = np.exp(rates * grid.dt)
    v = np.sqrt(w * q)
    g = np.divide((2.0 * c / grid.dt - f0 * w) * q, v, out=np.zeros_like(v), where=v > 0.0)
    rho, basis = np.linalg.eigh(np.diag(q) - 2.0 * np.outer(v, v))
    return ModalDensity(rho, (v @ basis) * (g @ basis), f0, grid)


def modal_residual(rates: np.ndarray, coefs: np.ndarray, F: ModalDensity) -> float:
    """A bound on the round-trip residual max_k |reconstruct(F) - P_ab|, from the modes.

    With q_j = exp(rates_j dt) and (c, w) = coefs as for solve_exp_sum, the
    residual at grid index k >= 1 is
    R_k = sum_j beta_j q_j^k + sum_r alpha_r rho_r^(k-1), where
    beta_j = dt w_j (f0 / 2 + sum_r a_r / (q_j - rho_r)) - c_j and
    alpha_r = dt a_r (sum_j w_j / 2 - sum_j w_j q_j / (q_j - rho_r)); so
    sum |beta| + sum |alpha| bounds it. Near-equal q make those sums
    cancel badly, so they are deflated first (Bunch, Nielsen & Sorensen
    1978), and what each step leaves out of them is bounded whole and
    added, with S_F = sum_k |F_k| and S_P = sum_k P_bb over the grid:
    - q within MERGE_TOL merge onto the group's smallest, each moved q_j
      adding (|c_j| + dt w_j S_F) n |q_j - q_merged|;
    - merged modes with w <= LIGHT_WEIGHT leave, adding |c| + dt w S_F;
    - F modes within MERGE_TOL of a merged q leave, adding
      |a_r| dt (S_P + 1).
    """
    c, w = coefs
    rho, a, f0, dt, n = F.rho, F.a, F.f0, F.grid.dt, F.grid.n
    q = np.exp(rates * dt)
    s_f = abs(f0) + np.abs(a) @ _geometric(np.abs(rho), n - 1)
    s_p = w @ _geometric(q, n)
    order = np.argsort(q)
    q, c, w = q[order], c[order], w[order]
    group = np.concatenate([[0], np.cumsum(np.diff(q) > MERGE_TOL)])
    q_merged = q[np.searchsorted(group, np.arange(group[-1] + 1))]
    bound = (np.abs(c) + dt * w * s_f) @ (n * np.abs(q - q_merged[group]))
    c, w = np.bincount(group, c), np.bincount(group, w)
    light = w <= LIGHT_WEIGHT
    bound += np.sum(np.abs(c[light]) + dt * w[light] * s_f)
    q, c, w = q_merged[~light], c[~light], w[~light]
    on_q = np.min(np.abs(q[:, None] - rho), axis=0, initial=np.inf) <= MERGE_TOL
    bound += np.abs(a[on_q]).sum() * dt * (s_p + 1.0)
    rho, a = rho[~on_q], a[~on_q]
    d = q[:, None] - rho
    beta = dt * w * (0.5 * f0 + (a / d).sum(axis=1)) - c
    alpha = dt * a * (0.5 * w.sum() - (w * q) @ (1.0 / d))
    # rounding can put a rho a hair above one in modulus
    growth = np.maximum(1.0, np.abs(rho)) ** (n - 2)
    return float(bound + np.abs(beta).sum() + np.abs(alpha) @ growth)


def deconvolve(p_ab: np.ndarray, p_bb: np.ndarray, grid: TimeGrid, f0: float) -> np.ndarray:
    """Solve the renewal relation for F on the shared grid, given F(0) = f0.

    Blocked forward substitution: one shared inverse of the SOLVE_BLOCK-point
    diagonal block, and one product per block that moves it into the later
    rows.
    """
    p_ab = np.asarray(p_ab, dtype=float)
    p_bb = np.asarray(p_bb, dtype=float)
    _check_inputs(p_ab, p_bb)
    if len(p_ab) != grid.n:
        raise ValidationError(f"series length {len(p_ab)} != grid length {grid.n}")
    return _solve_blocked(p_ab, p_bb, grid.dt, f0)


def reconstruct(F: np.ndarray, p_bb: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Forward trapezoid convolution of F with the kernel; inverse of deconvolve.

    Returns the reconstructed P_ab series; comparing it with the original
    input bounds the solve error without re-using the solver.
    """
    F = np.asarray(F, dtype=float)
    p_bb = np.asarray(p_bb, dtype=float)
    if F.shape != p_bb.shape:
        raise ValidationError(f"shape mismatch {F.shape} vs {p_bb.shape}")
    if len(F) != grid.n:
        raise ValidationError(f"series length {len(F)} != grid length {grid.n}")
    full = _conv_trunc(F, p_bb, grid.n)
    out = grid.dt * (full - 0.5 * (F[0] * p_bb + F * p_bb[0]))
    out[0] = 0.0
    return out


def detect_tau0(F: np.ndarray, grid: TimeGrid) -> float:
    """Quantum integration horizon: the first zero of F after its first peak.

    Local maxima below PEAK_FRACTION of the global maximum are treated as
    noise; the crossing is located by linear interpolation between the
    bracketing grid points. Raises NoZeroCrossingError when F stays
    positive; callers should extend the grid.
    """
    F = np.asarray(F, dtype=float)
    if len(F) != grid.n:
        raise ValidationError(f"series length {len(F)} != grid length {grid.n}")
    fmax = float(F.max())
    if fmax <= 0.0:
        raise NoZeroCrossingError("F has no positive values; no peak to anchor on")
    thresh = PEAK_FRACTION * fmax
    interior = np.nonzero(
        (F[1:-1] >= thresh) & (F[1:-1] >= F[:-2]) & (F[1:-1] > F[2:])
    )[0]
    if len(interior) == 0:
        raise NoZeroCrossingError("no peak found on the grid; extend the horizon")
    i_peak = int(interior[0]) + 1
    after = np.nonzero(F[i_peak + 1:] <= 0.0)[0]
    if len(after) == 0:
        raise NoZeroCrossingError(
            "F never crosses zero after its first peak; extend the grid"
        )
    j = i_peak + 1 + int(after[0])
    f_lo, f_hi = F[j - 1], F[j]
    if f_lo == f_hi:
        return float(grid.times[j])
    return float(grid.times[j - 1] + grid.dt * f_lo / (f_lo - f_hi))


def mean_fpt(F: np.ndarray, grid: TimeGrid, tau0: float) -> FirstPassageResult:
    """Normalized first moment of F on [0, tau0] by trapezoid quadrature.

    The horizon is honored exactly: when tau0 falls between grid points the
    integrand is linearly interpolated at tau0.
    """
    F = np.asarray(F, dtype=float)
    if len(F) != grid.n:
        raise ValidationError(f"series length {len(F)} != grid length {grid.n}")
    tt, ff = grid.up_to(F, tau0)
    norm = float(np.trapezoid(ff, tt))
    if abs(norm) <= 1e-12:
        raise NumericsError(f"F integrates to {norm}; mean undefined")
    tau = float(np.trapezoid(tt * ff, tt)) / norm
    return FirstPassageResult(grid=grid, F=F, tau0=float(tau0), tau=tau, norm=norm)


def extract_first_passage(
    p_ab: np.ndarray, p_bb: np.ndarray, grid: TimeGrid, f0: float
) -> FirstPassageResult:
    """Quantum deconvolve -> tau0 -> mean pipeline with a round-trip residual."""
    F = deconvolve(p_ab, p_bb, grid, f0)
    result = mean_fpt(F, grid, detect_tau0(F, grid))
    residual = float(np.max(np.abs(reconstruct(F, p_bb, grid) - p_ab)))
    return replace(result, reconstruction_error=residual, p_ab=p_ab, p_bb=p_bb)


def modal_first_passage(
    rates: np.ndarray, coefs: np.ndarray, grid: TimeGrid, f0: float, eps: float,
    t_eps: float,
) -> FirstPassageResult:
    """Classical solve -> horizon -> mean, from the modes alone, with the modal residual bound.

    tau0 is the first grid time at which the trapezoid survival mass
    1 - int_0^t F falls below eps, found by bisection over grid indices.
    The quadrature mass of the discrete F saturates ~1e-6 short of one at
    dt = 0.01, so its own epsilon crossing can sit far beyond the true one;
    when the grid ends above eps, the model's survival horizon t_eps stands
    in. F is a ModalDensity, evaluated only where it is read.
    """
    F = solve_exp_sum(rates, coefs, grid, f0)
    last = grid.n - 1
    if 1.0 - F.moments(last)[0] < eps:
        lo, hi = 0, last  # survival at lo is above eps, at hi below
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if 1.0 - F.moments(mid)[0] < eps:
                hi = mid
            else:
                lo = mid
        tau0 = hi * grid.dt
    else:
        tau0 = t_eps
    norm, moment = F.integrals(tau0)
    if abs(norm) <= 1e-12:
        raise NumericsError(f"F integrates to {norm}; mean undefined")
    return FirstPassageResult(
        grid=grid, F=F, tau0=tau0, tau=moment / norm, norm=norm,
        reconstruction_error=modal_residual(rates, coefs, F), residual_kind="modal_bound",
    )
