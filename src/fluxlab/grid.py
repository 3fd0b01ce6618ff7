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

The stencil is positive definite, so no eigenvalue of a channel lies at or
below min_i V_j(r_i).  Eigenpairs in a value range come from
:func:`tridiagonal_eigenpairs`: Sturm bisection only to a coarse tolerance,
inverse iteration, and a Rayleigh-Ritz step that returns the accuracy the
bisection skipped.  Eigenvalue-only solves keep full-precision bisection.

Every tridiagonal eigensolve of the package, here and in
:mod:`fluxlab.spectral`, is one call of ``_tridiagonal_eigh``: LAPACK's
``?stebz`` bisection, and ``?stein`` inverse iteration for eigenvectors,
called directly with the arguments ``scipy.linalg.eigh_tridiagonal`` would
pass.  The results are the same bits; what goes is that wrapper's per-call
argument handling, which outweighs the bisection itself on a channel whose
value range holds few eigenvalues or none.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack as _lapack

from .flux import FluxProfile

__all__ = ["RadialGrid", "ChannelOperator", "build_grid",
           "build_channel_operator", "build_channel_operators",
           "tridiagonal_eigenpairs", "tridiagonal_matvec", "truncation_margin",
           "check_truncation"]

COARSE_TOL = 1e-6   # bisection tolerance relative to max(1, |top|) before Rayleigh-Ritz


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

    def eigenpairs(self, value_range):
        """The eigenpairs with eigenvalue in the half-open interval (lo, hi]
        of ``value_range``, solved by :func:`tridiagonal_eigenpairs` (Ritz
        values).

        Returns (eigenvalues, u): eigenvalues ascending and ``u`` the flat
        eigenvectors as columns normalized to sum |u_i|^2 h = 1; the weighted
        representation is u / sqrt(r).
        """
        vals, vecs, _ = tridiagonal_eigenpairs(self.diagonal, self.off_diagonal,
                                               *value_range)
        return vals, vecs / np.sqrt(self.grid.h)

    def eigenvalues(self, n_lowest: int = None, value_range=None) -> np.ndarray:
        """The ``n_lowest`` lowest eigenvalues, or those in the half-open
        interval (lo, hi] of ``value_range``; exactly one is given.

        Sturm-sequence bisection (``?stebz``) to LAPACK's default tolerance
        eps |T|_1, with no inverse iteration (``?stein``) and no Ritz step.
        """
        if (n_lowest is None) == (value_range is None):
            raise ValueError("specify exactly one of n_lowest, value_range")
        if n_lowest is not None:
            select, bounds = "i", (0, min(int(n_lowest), self.grid.n_r) - 1)
        else:
            select, bounds = "v", tuple(value_range)
        return _tridiagonal_eigh(self.diagonal, self.off_diagonal, select, bounds)


def _tridiagonal_eigh(d, e, select: str, bounds, tol: float = 0.0, vectors: bool = False):
    """Eigenvalues, or eigenpairs, of the symmetric tridiagonal T = (d, e)
    in a slice: ``select`` "v" takes the values in the half-open interval
    (lo, hi] of ``bounds``, "i" the 0-based indices lo..hi.

    One ``?stebz`` bisection to absolute tolerance ``tol`` (0 means LAPACK's
    default, eps |T|_1) and, for eigenpairs, one ``?stein`` inverse
    iteration, called with the arguments ``scipy.linalg.eigh_tridiagonal``
    passes them, so its values and vectors come back bit for bit, without
    its per-call argument handling.  Values are ascending; eigenvectors are
    the columns of the second result.  Non-finite entries and an empty or
    out-of-range slice raise ``ValueError`` before LAPACK is called, whose
    error handler would print to stderr; a LAPACK error raises
    ``ValueError`` and a failed convergence ``LinAlgError``.
    """
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("tridiagonal entries must be finite")
    if e.size != d.size - 1:
        raise ValueError(f"d ({d.size}) must have one more entry than e ({e.size})")
    lo, hi = bounds
    if select == "v":
        if not lo < hi:
            raise ValueError(f"value range ({lo}, {hi}] is empty")
        code, vl, vu, il, iu = 1, float(lo), float(hi), 1, 1
    else:
        if not 0 <= lo <= hi < d.size:
            raise ValueError(f"index range {lo}..{hi} out of 0..{d.size - 1}")
        code, vl, vu, il, iu = 2, 0.0, 1.0, int(lo) + 1, int(hi) + 1
    if d.size == 1:                 # LAPACK's wrappers reject an empty e
        w = d[:1] if code == 2 or vl < d[0] <= vu else d[:0]
        return (w.copy(), np.ones((1, w.size))) if vectors else w.copy()
    m, w, iblock, isplit, info = _lapack.dstebz(d, e, code, vl, vu, il, iu, float(tol),
                                                "B" if vectors else "E")
    _check_info(info, "?stebz")
    w = w[:m]
    if not vectors:
        return w
    v, info = _lapack.dstein(d, e, w, iblock, isplit)
    _check_info(info, "?stein")
    order = np.argsort(w)
    return w[order], v[:, order]


def _check_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} did not converge (LAPACK info={info})")


def tridiagonal_matvec(diagonal, off_diagonal, v):
    """T v for the symmetric tridiagonal T and the columns of v."""
    out = diagonal[:, None] * v
    out[:-1] += off_diagonal[:, None] * v[1:]
    out[1:] += off_diagonal[:, None] * v[:-1]
    return out


def tridiagonal_eigenpairs(diagonal, off_diagonal, lo: float, hi: float):
    """Every eigenpair of the symmetric tridiagonal T with eigenvalue in (lo, hi].

    The Sturm counts at lo and hi fix how many there are exactly; the
    bisection (``?stebz``) that locates them stops at the coarse tolerance
    ``COARSE_TOL max(1, |hi|)``, since inverse iteration (``?stein``) needs
    only an approximate shift.  A Rayleigh-Ritz step on the ``?stein``
    vectors V then restores full accuracy: the eigenpairs of V^T T V rotate
    V into Ritz vectors, whose Ritz values are accurate to the square of the
    vectors' error (Parlett, The Symmetric Eigenvalue Problem, ch. 11), and
    a near-degenerate cluster that ``?stein`` orthogonalized is resolved in
    its span.  Returns (values, V, T V), values ascending and V orthonormal,
    so a caller reads the residual T V - V diag(values) without another
    product.
    """
    vals, v = _tridiagonal_eigh(diagonal, off_diagonal, "v", (lo, hi),
                                tol=COARSE_TOL * max(1.0, abs(hi)), vectors=True)
    if not vals.size:               # nothing in (lo, hi]: no product, no Ritz step
        return vals, v, v.copy()
    tv = tridiagonal_matvec(diagonal, off_diagonal, v)
    g = v.T @ tv
    vals, q = np.linalg.eigh(0.5 * (g + g.T))
    return vals, v @ q, tv @ q


def build_channel_operators(profile: FluxProfile, channels,
                            grid: RadialGrid) -> list[ChannelOperator]:
    """The tridiagonal operators of several channels from one V_j table."""
    diag_k, off = grid.kinetic_tridiagonal()
    diagonals = diag_k + profile.effective_potential(np.asarray(channels), grid.nodes)
    return [ChannelOperator(j=int(j), grid=grid, diagonal=d, off_diagonal=off)
            for j, d in zip(channels, diagonals)]


def build_channel_operator(profile: FluxProfile, j: int, grid: RadialGrid) -> ChannelOperator:
    """Assemble the symmetric tridiagonal operator for channel j."""
    return build_channel_operators(profile, [int(j)], grid)[0]


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
