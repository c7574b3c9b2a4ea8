"""Uniform time grids, quadrature to a horizon, blocked mode sums and walk spectra.

All dynamical quantities in this package live on a uniform grid starting
at t = 0. Time is measured in units of the inverse hop rate (classical)
or hbar over the hop amplitude (quantum); both are set to 1.

Every series of a walk is a row of a ModeSum, an exponential sum over the
walk's Spectrum evaluated block by block only where it is read: span()
evaluates rows over a range of grid indices, and row() gives one row, or a
part of it such as its squared modulus, as a LazyRow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math
from typing import Callable

import numpy as np

from .errors import ValidationError

# time points per block of a blocked exponential or power sum
BLOCK = 4096


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
        """Grid covering [0, t_end] with spacing dt (end point included).

        Raises ValidationError when t_end / dt is 2**53 or more.
        """
        _check_positive("t_end", t_end)
        _check_positive("dt", dt)
        steps = t_end / dt  # inf for a subnormal dt
        if not steps < 2.0**53:  # far above every budget, and past exact counting
            raise ValidationError(
                f"the grid over [0, {t_end:.6g}] at dt = {dt} would hold {steps:.3g} points, "
                "2**53 or more; raise dt"
            )
        return cls(dt=dt, n=int(math.ceil(steps)) + 1)

    @cached_property
    def times(self) -> np.ndarray:
        t = np.arange(self.n, dtype=float) * self.dt
        t.setflags(write=False)
        return t

    def lazy_times(self) -> "LazyRow":
        """times as a LazyRow: the same values, computed per span."""
        return LazyRow(self.n, lambda lo, hi: np.arange(lo, hi) * self.dt)

    @property
    def t_end(self) -> float:
        return (self.n - 1) * self.dt

    def last_index(self, horizon: float) -> int:
        """Index of the last grid point up to the horizon, within 1e-12 of it.

        Raises ValidationError unless the horizon lies in (0, t_end].
        """
        if not (0.0 < horizon <= self.t_end + 1e-12):
            raise ValidationError(f"horizon {horizon} outside grid span (0, {self.t_end}]")
        bound = horizon + 1e-12
        k = min(int(bound / self.dt), self.n - 1)
        while k + 1 < self.n and (k + 1) * self.dt <= bound:
            k += 1
        while k * self.dt > bound:
            k -= 1
        return k

    def up_to(self, y: np.ndarray, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """Abscissae and samples of y on [0, horizon] for trapezoid quadrature.

        The grid points up to the horizon, then the horizon itself with y
        linearly interpolated there when it falls between two points.
        """
        k = self.last_index(horizon)
        t = self.times
        # copies: with views the quantum sweep's peak RSS rose 1.8 MB (heap layout)
        tt, yy = t[:k + 1].copy(), y[:k + 1].copy()
        if tt[-1] < horizon:
            tt = np.append(tt, horizon)
            yy = np.append(yy, np.interp(horizon, t, y))
        return tt, yy


class LazyRow:
    """A series on n grid points, evaluated only over the spans sliced out of it.

    span(lo, hi) returns the values at k = lo .. hi - 1. A step-1 slice
    evaluates that span and np.asarray the whole row, and neither keeps
    what it evaluated, so a grid-length series costs no grid-length array
    until one is requested.
    """

    def __init__(self, n: int, span: Callable[[int, int], np.ndarray]) -> None:
        self.n = n
        self.span = span

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, key: slice) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError(f"a LazyRow takes only step-1 slices, got {key!r}")
        lo, hi, _ = key.indices(self.n)
        return self.span(lo, max(lo, hi))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.span(0, self.n), dtype=dtype)


class ModeSum:
    """Rows sum_j coefs[i, j] m_j(k) for k = 0 .. n - 1, evaluated block by block.

    modes(k) returns the (n_modes, len(k)) values m_j(k) of geometric modes,
    m_j(a + b) = m_j(a) m_j(b). One (n_modes, BLOCK) block is computed once,
    from modes at 64 + BLOCK / 64 points: m_j(64 a + b) is the product of
    m_j(64 a) and m_j(b) for b < 64. The output block at lo is that block
    rescaled by m_j(lo), itself taken from modes, in one vector-matrix
    product per row. A span is cut out of the BLOCK-aligned blocks that
    cover it, each computed at its full width, so a value's bits depend
    neither on the span asked for nor on which other rows were requested.
    """

    def __init__(
        self, coefs: np.ndarray, n: int, modes: Callable[[np.ndarray], np.ndarray]
    ) -> None:
        self.coefs = coefs
        self.n = n
        self.modes = modes

    @cached_property
    def _block(self) -> np.ndarray:
        width = min(BLOCK, -(-self.n // 64) * 64)
        step = min(64, width)
        inner, outer = self.modes(np.arange(step)), self.modes(np.arange(0, width, step))
        return (outer[:, :, None] * inner[:, None, :]).reshape(-1, width)

    def span(self, lo: int, hi: int, rows: list[int] | None = None) -> np.ndarray:
        """Rows (all, or those listed) at k = lo .. hi - 1; shape (len(rows), hi - lo)."""
        coefs = self.coefs if rows is None else self.coefs[rows]
        block = self._block
        out = np.empty((coefs.shape[0], hi - lo), dtype=np.result_type(coefs, block))
        for start in range(lo - lo % BLOCK, hi, BLOCK):
            # a multiple of 64 columns, the padding sliced off: OpenBLAS rounds a complex
            # product alike on one thread and several only at widths divisible by 8
            width = min(BLOCK, -(-(self.n - start) // 64) * 64)
            a, b = max(lo, start), min(hi, start + width)
            scaled = coefs * self.modes(np.array([start]))[:, 0]
            for i in range(coefs.shape[0]):
                if b - a == width:
                    np.matmul(scaled[i], block[:, :width], out=out[i, a - lo:b - lo])
                else:
                    out[i, a - lo:b - lo] = (scaled[i] @ block[:, :width])[a - start:b - start]
        return out

    def row(self, i: int, part: Callable[[np.ndarray], np.ndarray] | None = None) -> LazyRow:
        """Row i as a LazyRow; part, when given, maps each evaluated span (np.real, say)."""

        def span(lo: int, hi: int) -> np.ndarray:
            values = self.span(lo, hi, [i])[0]
            return values if part is None else part(values)

        return LazyRow(self.n, span)


def exp_modes(rates: np.ndarray, coefs: np.ndarray, grid: TimeGrid) -> ModeSum:
    """Rows sum_j coefs[i, j] exp(rates[j] t) on the grid, unevaluated.

    The dtype follows rates and coefs: real decay rates give real series,
    imaginary phases complex amplitudes.
    """

    def modes(k: np.ndarray) -> np.ndarray:
        return np.exp(np.multiply.outer(rates, k * grid.dt))

    return ModeSum(coefs, grid.n, modes)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of a walk's generator, from which every series of the walk is summed.

    The series at v from s is sum_j scale_v u_vj u_sj / scale_s exp(rates_j t)
    with u = vectors: the quantum amplitude (rates -i lambda, unit scale) or
    the classical occupation (rates lambda, scale sqrt(deg)).
    """

    rates: np.ndarray
    vectors: np.ndarray
    scale: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def modes(self, start: int, targets: tuple[int, ...]) -> np.ndarray:
        """Coefficient rows c[i, j] of the series at targets[i]; shape (len(targets), n)."""
        for v in (start, *targets):
            if not (1 <= v <= self.n):
                raise ValidationError(f"vertex {v} out of range 1..{self.n}")
        w = self.vectors[start - 1, :] / self.scale[start - 1]
        idx = np.array(targets, dtype=int) - 1
        return self.scale[idx, None] * self.vectors[idx, :] * w

    def series(self, start: int, targets: tuple[int, ...], grid: TimeGrid) -> ModeSum:
        """The series at each target on the grid, unevaluated: row i is targets[i]."""
        return exp_modes(self.rates, self.modes(start, targets), grid)
