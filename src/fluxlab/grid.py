"""Radial grid and the symmetric discretization of one channel's operator.

The channel quadratic form is <d_r phi, d_r psi> + <phi, V_j psi> on
L^2(R+, r dr).  We discretize with the cell-centered finite-volume scheme:
nodes r_i = (i - 1/2) h sit at cell midpoints, flux faces at f_i = i h, the
inner face r = 0 carries no flux (the natural regularity condition), and a
Dirichlet wall sits at r_max = n_r h.  Conjugating by sqrt(r) maps to the
flat measure, where the operator is symmetric tridiagonal:

    diagonal_i     = 2/h^2 + V_j(r_i)
    off_diagonal_i = -(1/h^2) * i / sqrt(i^2 - 1/4)

The off-diagonal weights carry the metric correction that the usual
Liouville transform puts into a -1/(4r^2) potential; folding it into the
stencil keeps second-order eigenvalue convergence in every channel,
including j = 0.  The cell measure r_i h integrates r dr exactly, so the
weighted norm sum_i |phi(r_i)|^2 r_i h is the exact L^2(r dr) norm of the
piecewise representation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .flux import FluxProfile

__all__ = ["RadialGrid", "ChannelOperator", "build_grid",
           "build_channel_operator", "truncation_margin", "check_truncation"]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform cell-centered radial grid on (0, r_max] with a Dirichlet wall."""

    n_r: int
    r_max: float

    @property
    def h(self) -> float:
        return self.r_max / self.n_r

    @property
    def nodes(self) -> np.ndarray:
        h = self.h
        return h * (np.arange(1, self.n_r + 1) - 0.5)

    def kinetic_tridiagonal(self):
        """(diagonal, off_diagonal) of the flat-measure radial kinetic stencil."""
        h = self.h
        i = np.arange(1, self.n_r, dtype=float)
        diag = np.full(self.n_r, 2.0 / h ** 2)
        off = -(i / np.sqrt(i * i - 0.25)) / h ** 2
        return diag, off

    def to_flat(self, phi: np.ndarray) -> np.ndarray:
        """Weighted representation phi -> flat u = sqrt(r) phi (last axis radial)."""
        return phi * np.sqrt(self.nodes)

    def to_weighted(self, u: np.ndarray) -> np.ndarray:
        """Flat u -> weighted phi = u / sqrt(r) (last axis radial)."""
        return u / np.sqrt(self.nodes)


def build_grid(n_r: int, r_max: float) -> RadialGrid:
    """Build the uniform radial grid; n_r >= 8 and r_max > 0 required."""
    if n_r < 8:
        raise ValueError("build_grid requires n_r >= 8")
    if r_max <= 0:
        raise ValueError("build_grid requires r_max > 0")
    return RadialGrid(n_r=int(n_r), r_max=float(r_max))


@dataclass(frozen=True)
class ChannelOperator:
    """Symmetric tridiagonal discretization of one channel, flat representation."""

    j: int
    grid: RadialGrid
    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def eigenpairs(self, n_lowest: int = None, value_range=None):
        """Lowest eigenpairs (or all in a value range) of the channel operator.

        Returns (eigenvalues, u, phi): eigenvalues ascending, ``u`` the flat
        eigenvectors as columns normalized to sum |u_i|^2 h = 1, and ``phi``
        the weighted representation u / sqrt(r).
        """
        if (n_lowest is None) == (value_range is None):
            raise ValueError("specify exactly one of n_lowest, value_range")
        if n_lowest is not None:
            k = min(int(n_lowest), self.grid.n_r)
            vals, vecs = eigh_tridiagonal(
                self.diagonal, self.off_diagonal,
                select="i", select_range=(0, k - 1))
        else:
            vals, vecs = eigh_tridiagonal(
                self.diagonal, self.off_diagonal,
                select="v", select_range=tuple(value_range))
        u = vecs / np.sqrt(self.grid.h)
        return vals, u, self.grid.to_weighted(u.T).T

    def eigenvalues(self, n_lowest: int):
        k = min(int(n_lowest), self.grid.n_r)
        return eigh_tridiagonal(self.diagonal, self.off_diagonal,
                                eigvals_only=True, select="i",
                                select_range=(0, k - 1))


def build_channel_operator(profile: FluxProfile, j: int, grid: RadialGrid) -> ChannelOperator:
    """Assemble the symmetric tridiagonal operator for channel j."""
    diag_k, off = grid.kinetic_tridiagonal()
    v = profile.effective_potential(j, grid.nodes)
    return ChannelOperator(j=int(j), grid=grid,
                           diagonal=diag_k + v, off_diagonal=off)


def truncation_margin(profile: FluxProfile, grid: RadialGrid, j_max: int,
                      energy: float) -> float:
    """r_max divided by the outer classical turning point of the worst channel.

    The turning point is scanned on the grid; if some channel is classically
    allowed at the wall the margin is 1.0.
    """
    channels = np.arange(-int(j_max), int(j_max) + 1)
    allowed = np.flatnonzero(
        np.any(profile.effective_potential(channels, grid.nodes) <= energy, axis=0))
    if not allowed.size:
        return np.inf
    return grid.r_max / grid.nodes[allowed[-1]]


def check_truncation(profile: FluxProfile, grid: RadialGrid, j_max: int,
                     energy: float, factor: float = 1.5) -> float:
    """Warn when r_max is within ``factor`` of the outermost turning point."""
    margin = truncation_margin(profile, grid, j_max, energy)
    if margin < factor:
        warnings.warn(
            f"r_max = {grid.r_max:g} is only {margin:.2f}x the outer classical "
            f"turning point at E = {energy:g} (want >= {factor:g}x); exterior "
            "tails may feel the wall", stacklevel=2)
    return margin
