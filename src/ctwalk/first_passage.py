"""First-passage extraction from occupation probabilities.

The first-passage density F(t) from vertex a to b is defined implicitly by
the renewal relation

    P_ab(t) = integral_0^t F(t') P_bb(t - t') dt',

a first-kind Volterra equation with kernel value one on the diagonal
(P_bb(0) = 1). Discretized with the product trapezoid rule on a uniform
grid it becomes a lower-triangular Toeplitz system, solved either by
forward substitution or, for long grids, by a Newton power-series
reciprocal with FFT convolutions (identical solution, O(T log T)).

The value at t = 0 is taken from the initial slope of P_ab: a three-point
forward difference of P_ab at the origin. That slope is exactly zero
whenever start and target are not adjacent (every chain case with N >= 3,
and all quantum cases), matching the F(0) = 0 convention; for adjacent
pairs it supplies the correct nonzero limit.

The mean first-passage time is the normalized first moment of F on
[0, tau0], where tau0 is infinity (in practice an epsilon cutoff of the
survival mass) for the classical walk and the first zero of F after its
first peak for the quantum walk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    GridMismatchError,
    NoZeroCrossingError,
    NumericsError,
    ValidationError,
    ZeroNormError,
)
from .grid import TimeGrid

DIRECT_SOLVE_MAX = 4096
# local maxima of F below this fraction of its global maximum are noise
PEAK_FRACTION = 0.01


@dataclass(frozen=True, eq=False)
class FirstPassageResult:
    """F series with its horizon, mean, normalization and round-trip residual.

    p_ab and p_bb are the occupation series F was solved from, when known.
    """

    grid: TimeGrid
    F: np.ndarray
    tau0: float
    tau: float
    norm: float
    reconstruction_error: float | None = None
    p_ab: np.ndarray | None = None
    p_bb: np.ndarray | None = None


def _initial_rate(p_ab: np.ndarray, dt: float) -> float:
    """F(0) = d/dt P_ab at t = 0, three-point forward difference.

    Estimates below the stencil's own error scale are snapped to the
    F(0) = 0 convention: a genuinely nonzero slope (start adjacent to the
    target) is an O(1) hop rate, while the stencil noise on a flat start
    is O(dt^2) or smaller.
    """
    slope = float((-3.0 * p_ab[0] + 4.0 * p_ab[1] - p_ab[2]) / (2.0 * dt))
    return slope if abs(slope) > dt else 0.0


def _check_inputs(p_ab: np.ndarray, p_bb: np.ndarray) -> None:
    if p_ab.shape != p_bb.shape or p_ab.ndim != 1:
        raise GridMismatchError(
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
    size = 1
    while size < n:
        size *= 2
    return size


def _conv_trunc(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the linear convolution a * b."""
    size = _fft_size(len(a) + len(b))
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def _reciprocal_series(c: np.ndarray) -> np.ndarray:
    """Power-series reciprocal of c (c[0] != 0) to the same truncation order.

    Newton doubling: r <- 2r - c r^2, each round via FFT. The result is the
    first column of the inverse of the lower-triangular Toeplitz matrix
    whose first column is c.
    """
    T = len(c)
    r = np.array([1.0 / c[0]])
    m = 1
    while m < T:
        m2 = min(2 * m, T)
        e = _conv_trunc(c[:m2], _conv_trunc(r, r, m2), m2)
        r_new = -e
        r_new[:m] += 2.0 * r
        r = r_new
        m = m2
    return r


def _solve_direct(b: np.ndarray, p_bb: np.ndarray, dt: float, f0: float) -> np.ndarray:
    T = len(b)
    F = np.empty(T)
    F[0] = f0
    for n in range(1, T):
        acc = 0.5 * f0 * p_bb[n]
        if n > 1:
            acc += np.dot(F[1:n], p_bb[n - 1:0:-1])
        F[n] = 2.0 * (b[n] / dt - acc)
    return F


def _solve_toeplitz(b: np.ndarray, p_bb: np.ndarray, dt: float, f0: float) -> np.ndarray:
    T = len(b)
    c = dt * p_bb.copy()
    c[0] = 0.5 * dt
    rhs = b - (0.5 * dt * f0) * p_bb
    rhs[0] = 0.0
    r = _reciprocal_series(c)
    F = _conv_trunc(r, rhs, T)
    # one step of iterative refinement pushes the residual to rounding level
    res = rhs - _conv_trunc(c, F, T)
    F = F + _conv_trunc(r, res, T)
    F[0] = f0
    return F


def deconvolve(
    p_ab: np.ndarray, p_bb: np.ndarray, grid: TimeGrid, method: str = "auto"
) -> np.ndarray:
    """Solve the renewal relation for F on the shared grid.

    method: "direct" forward substitution, "fft" Toeplitz reciprocal, or
    "auto" (direct up to DIRECT_SOLVE_MAX points). Both methods solve the
    same product-trapezoid system and agree to rounding error.
    """
    p_ab = np.asarray(p_ab, dtype=float)
    p_bb = np.asarray(p_bb, dtype=float)
    _check_inputs(p_ab, p_bb)
    if len(p_ab) != grid.n:
        raise GridMismatchError(f"series length {len(p_ab)} != grid length {grid.n}")
    f0 = _initial_rate(p_ab, grid.dt)
    if method == "auto":
        method = "direct" if grid.n <= DIRECT_SOLVE_MAX else "fft"
    if method == "direct":
        return _solve_direct(p_ab, p_bb, grid.dt, f0)
    if method == "fft":
        return _solve_toeplitz(p_ab, p_bb, grid.dt, f0)
    raise ValidationError(f"unknown method {method!r}")


def reconstruct(F: np.ndarray, p_bb: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Forward trapezoid convolution of F with the kernel; inverse of deconvolve.

    Returns the reconstructed P_ab series; comparing it with the original
    input bounds the solve error without re-using the solver.
    """
    F = np.asarray(F, dtype=float)
    p_bb = np.asarray(p_bb, dtype=float)
    if F.shape != p_bb.shape:
        raise GridMismatchError(f"shape mismatch {F.shape} vs {p_bb.shape}")
    if len(F) != grid.n:
        raise GridMismatchError(f"series length {len(F)} != grid length {grid.n}")
    full = _conv_trunc(F, p_bb, grid.n)
    out = grid.dt * (full - 0.5 * (F[0] * p_bb + F * p_bb[0]))
    out[0] = 0.0
    return out


def detect_tau0(
    F: np.ndarray,
    grid: TimeGrid,
    mode: str,
    eps: float = 1e-6,
) -> float:
    """Integration horizon for the mean first-passage time.

    Quantum mode: the first time F crosses zero after its first genuine
    peak (local maxima below PEAK_FRACTION of the global maximum are
    treated as noise), located by linear interpolation between the
    bracketing grid points. Raises NoZeroCrossingError when F stays
    positive; callers should extend the grid.

    Classical mode: the first time the survival mass 1 - int_0^t F drops
    below eps, the practical stand-in for an infinite horizon. If the grid
    ends first, the grid end is returned with a truncation warning.
    """
    F = np.asarray(F, dtype=float)
    if len(F) != grid.n:
        raise GridMismatchError(f"series length {len(F)} != grid length {grid.n}")
    t = grid.times
    if mode == "quantum":
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
            return float(t[j])
        return float(t[j - 1] + grid.dt * f_lo / (f_lo - f_hi))
    if mode == "classical":
        mass = cumulative_mass(F, grid)
        below = np.nonzero(1.0 - mass < eps)[0]
        if len(below) == 0:
            warnings.warn(
                f"survival mass still above eps={eps} at the grid end; "
                "horizon truncated",
                stacklevel=2,
            )
            return float(t[-1])
        return float(t[below[0]])
    raise ValidationError(f"mode must be 'quantum' or 'classical', got {mode!r}")


def cumulative_mass(F: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Trapezoid cumulative integral of F from zero, on every grid point."""
    inc = 0.5 * (F[1:] + F[:-1]) * grid.dt
    return np.concatenate([[0.0], np.cumsum(inc)])


def mean_fpt(F: np.ndarray, grid: TimeGrid, tau0: float) -> FirstPassageResult:
    """Normalized first moment of F on [0, tau0] by trapezoid quadrature.

    The horizon is honored exactly: when tau0 falls between grid points the
    integrand is linearly interpolated at tau0.
    """
    F = np.asarray(F, dtype=float)
    if len(F) != grid.n:
        raise GridMismatchError(f"series length {len(F)} != grid length {grid.n}")
    tt, ff = grid.up_to(F, tau0)
    norm = float(np.trapezoid(ff, tt))
    if abs(norm) <= 1e-12:
        raise ZeroNormError(f"F integrates to {norm}; mean undefined")
    tau = float(np.trapezoid(tt * ff, tt)) / norm
    return FirstPassageResult(grid=grid, F=F, tau0=float(tau0), tau=tau, norm=norm)


def first_passage_result(
    p_ab: np.ndarray, p_bb: np.ndarray, F: np.ndarray, grid: TimeGrid, tau0: float
) -> FirstPassageResult:
    """Mean on [0, tau0] and round-trip residual of a solved F, with its series."""
    result = mean_fpt(F, grid, tau0)
    residual = float(np.max(np.abs(reconstruct(F, p_bb, grid) - p_ab)))
    return replace(result, reconstruction_error=residual, p_ab=p_ab, p_bb=p_bb)


def extract_first_passage(
    p_ab: np.ndarray,
    p_bb: np.ndarray,
    grid: TimeGrid,
    mode: str,
    eps: float = 1e-6,
    method: str = "auto",
) -> FirstPassageResult:
    """Full deconvolve -> tau0 -> mean pipeline with a round-trip residual."""
    F = deconvolve(p_ab, p_bb, grid, method=method)
    tau0 = detect_tau0(F, grid, mode=mode, eps=eps)
    return first_passage_result(p_ab, p_bb, F, grid, tau0)
