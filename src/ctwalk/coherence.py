"""Two-class reduced density matrix and von Neumann entropy.

A bipartite coloring splits the vertices into two classes. Aggregating the
wavefunction over the classes gives a 2x2 Hermitian matrix

    rho_11 = sum_{a in class 1} |psi_a|^2
    rho_22 = sum_{a in class 2} |psi_a|^2
    rho_12 = (sum_{a1} psi_a1) (sum_{a2} psi_a2)^* / sqrt(n1 n2)

whose square-root denominator keeps it nonnegative-definite. Its base-2
von Neumann entropy lies in [0, 1] and tracks how much coherence the walk
maintains between the two sublattices.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .graphs import ColorAssignment
from .grid import TimeGrid


def reduce_density(psi: np.ndarray, coloring: ColorAssignment) -> np.ndarray:
    """Aggregate a normalized state into the 2x2 class-reduced density matrix."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or len(psi) != len(coloring.colors):
        raise ValidationError(
            f"state length {psi.shape} does not match coloring size {len(coloring.colors)}"
        )
    nrm = float(np.sum(np.abs(psi) ** 2))
    if abs(nrm - 1.0) > 1e-6:
        raise ValidationError(f"state norm^2 = {nrm}, expected 1")
    idx1 = coloring.class_indices(1)
    idx2 = coloring.class_indices(2)
    a1 = psi[idx1]
    a2 = psi[idx2]
    r11 = float(np.sum(np.abs(a1) ** 2))
    r22 = float(np.sum(np.abs(a2) ** 2))
    r12 = complex(a1.sum() * np.conj(a2.sum()) / np.sqrt(coloring.n1 * coloring.n2))
    return np.array([[r11, r12], [np.conj(r12), r22]], dtype=complex)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 entropy -tr(rho log2 rho), with eigenvalues clamped to [0, 1]."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    nz = lam[lam > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def entropy_series(psi: np.ndarray, coloring: ColorAssignment) -> np.ndarray:
    """von Neumann entropy of the class reduction at every grid point.

    psi holds the amplitudes with shape (n_times, n). Uses the closed form
    for 2x2 eigenvalues, (1 +- d)/2 with
    d = sqrt((rho_11 - rho_22)^2 + 4 |rho_12|^2), vectorized over time.
    """
    if psi.shape[1] != len(coloring.colors):
        raise ValidationError("series dimension does not match coloring size")
    idx1 = coloring.class_indices(1)
    idx2 = coloring.class_indices(2)
    r11 = (np.abs(psi[:, idx1]) ** 2).sum(axis=1)
    r22 = (np.abs(psi[:, idx2]) ** 2).sum(axis=1)
    r12 = psi[:, idx1].sum(axis=1) * np.conj(psi[:, idx2].sum(axis=1))
    r12 /= np.sqrt(coloring.n1 * coloring.n2)
    disc = np.sqrt((r11 - r22) ** 2 + 4.0 * np.abs(r12) ** 2)
    lam_hi = np.clip(0.5 * (r11 + r22 + disc), 0.0, 1.0)
    lam_lo = np.clip(0.5 * (r11 + r22 - disc), 0.0, 1.0)

    def xlog2x(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = x[pos] * np.log2(x[pos])
        return out

    return -(xlog2x(lam_hi) + xlog2x(lam_lo))


def average_entropy(entropy: np.ndarray, grid: TimeGrid, tau0: float) -> float:
    """Trapezoid time average of the entropy over [0, tau0]."""
    if len(entropy) != grid.n:
        raise ValidationError("entropy series does not match the grid")
    tt, ee = grid.up_to(entropy, tau0)
    return float(np.trapezoid(ee, tt) / tau0)
