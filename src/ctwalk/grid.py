"""Uniform time grids, quadrature up to a horizon, and exponential sums.

All dynamical quantities in this package live on a uniform grid starting
at t = 0. Time is measured in units of the inverse hop rate (classical)
or hbar over the hop amplitude (quantum); both are set to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import ValidationError


def _check_positive(name: str, x: float) -> None:
    if not (x > 0.0) or not math.isfinite(x):
        raise ValidationError(f"{name} must be positive and finite, got {x}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt for k = 0 .. n - 1."""

    dt: float
    n: int

    def __post_init__(self) -> None:
        _check_positive("dt", self.dt)
        if self.n < 2:
            raise ValidationError(f"grid needs at least 2 points, got n={self.n}")

    @classmethod
    def from_span(cls, t_end: float, dt: float) -> "TimeGrid":
        """Grid covering [0, t_end] with spacing dt (end point included)."""
        _check_positive("t_end", t_end)
        _check_positive("dt", dt)
        return cls(dt=dt, n=int(math.ceil(t_end / dt)) + 1)

    @cached_property
    def times(self) -> np.ndarray:
        t = np.arange(self.n, dtype=float) * self.dt
        t.setflags(write=False)
        return t

    @property
    def t_end(self) -> float:
        return (self.n - 1) * self.dt

    def up_to(self, y: np.ndarray, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """Abscissae and samples of y on [0, horizon] for trapezoid quadrature.

        The grid points up to the horizon, then the horizon itself with y
        linearly interpolated there when it falls between two points.
        """
        if not (0.0 < horizon <= self.t_end + 1e-12):
            raise ValidationError(f"horizon {horizon} outside grid span (0, {self.t_end}]")
        t = self.times
        mask = t <= horizon + 1e-12
        tt, yy = t[mask], y[mask]
        if tt[-1] < horizon:
            tt = np.append(tt, horizon)
            yy = np.append(yy, np.interp(horizon, t, y))
        return tt, yy


def exp_sum(rates: np.ndarray, coefs: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Rows sum_j coefs[i, j] exp(rates[j] t) on the grid; shape (len(coefs), grid.n).

    Accumulates one mode at a time in two reused buffers, so memory stays
    O(n_times) per row on grids of millions of points. The dtype follows
    rates and coefs: real decay rates give real series, imaginary phases
    complex amplitudes.
    """
    t = grid.times
    out = np.zeros((coefs.shape[0], grid.n), dtype=np.result_type(rates, coefs))
    ph = np.empty(grid.n, dtype=np.result_type(rates, t))
    term = np.empty_like(out[0])
    for j, rate in enumerate(rates):
        np.exp(np.multiply(rate, t, out=ph), out=ph)
        for i in range(coefs.shape[0]):
            out[i] += np.multiply(coefs[i, j], ph, out=term)
    return out
