"""Block Hamiltonian assembly, window eigensolves, and spectral projections.

The truncated operator acts on channels j in [-J_max, J_max], each carrying
the tridiagonal radial operator of :mod:`fluxlab.grid`.  An angular
perturbation couples channels j and k through a block that is diagonal in
the radial index with entries W^(r_i, j - k) / sqrt(2 pi); its radial part
W^(r, 0) / sqrt(2 pi) joins the channel diagonals.  The normalization is
anchored by W = g(r) cos(theta), whose (j, j±1) blocks must carry g(r)/2.

Every eigensolve is a window solve: :func:`diagonalize` returns the
eigenpairs below a window top, and a projection onto [e0, E0] selects its
columns.  Uncoupled H takes per-channel tridiagonal solves (each channel's
pairs between its potential floor and the window top, by coarse bisection,
inverse iteration and a Rayleigh-Ritz step, see
:func:`~fluxlab.grid.tridiagonal_eigenpairs`).  The window is the bottom
of the spectrum, so coupled H, in its node-major band order, takes
shift-inverted Lanczos on one band Cholesky factor (:class:`BandCholesky`)
at a shift below the spectrum that the factor itself certifies: a trial
shift next to the channel tridiagonals' lowest eigenvalue, which bounds
H's from above, and Weyl's shift below the spectrum when the trial factor
is declined (:func:`_lowest_pairs`).  It keeps the pairs below the top.
Their number must equal the count, which is certified exactly
(:func:`_window_count`): Weyl's inequality brackets it by two Sturm counts
of the channel tridiagonals at the top shifted by the coupling bound, the
determinant sign of a pivoted band LU (:class:`BandLU`), built at the top
only for it and freed when the count returns, settles a real bracket one
wide, and every other bracket, or a sign too close to singular to trust,
takes the inertia of a block elimination over H's nodes
(:func:`band_inertia`).  A sweep of dim - 1 or more pairs, which ARPACK
cannot return, is solved densely instead, with no factor: that is how a
top above |H|_inf gives the whole spectrum.  The eigenvectors return to
channel-major order once, after the sweep.  Repeated runs are
deterministic (fixed start vectors, fixed assembly order).

A check that reads only the window's bottom e0 takes H's lowest eigenvalue
from :func:`lowest_eigenvalue` instead, which also gives the twisted
operator's: over the channel tridiagonals of H's band, one channel's lowest
eigenvalue as an upper bound, certified over the other channels by one
LDL^T sweep that bisects only a channel whose pivot fails, and, when W
couples the channels, the window sweep's route for a single pair, whose
residual must meet the same 1e-9 max(1, |A|) contract as the window
solve's pairs; the factor's shift is the certified lower bound.  Every
Lanczos run stops at ARPACK's tolerance ``SWEEP_TOL``, or after
``SWEEP_RESTARTS`` restarts (:func:`_shift_invert_lanczos`), and a
one-pair run starts from the channel tridiagonals' ground state.

An :class:`EigenSystem` stores its eigenvectors only in blocks
(:class:`BasisBlock`) whose rows tile the flat index: the per-channel route
keeps one block of tridiagonal eigenvectors per channel, so memory scales
with n_r k rather than dim k, and a coupled eigensystem is one block
holding every row and column.  A projection restricts them to its window
columns once (``SpectralProjection.blocks``), and every product with the
eigenvectors (projection, propagation, the Gram matrix) runs block by
block, so channel-pure eigenvectors never meet other channels' zero rows;
the dense ``EigenSystem.eigenvectors`` and ``SpectralProjection.basis``
are for tests.

The assembly evaluates V_j(r_i) once, as an (n_ch, n_r) table kept on the
Hamiltonian (``BlockHamiltonian.potential``) for the checks that compare it
with an energy.  :meth:`BlockHamiltonian.to_band` is the one place that
lays out H's entries: ordered node-major, a coupled H is a band matrix of
half-bandwidth n_ch.  The dense form and the max row sum are read back
from that band, :class:`BandLU` and :func:`band_inertia` factor it for the
window count, and :class:`BandCholesky` factors a shifted band matrix for
the sweep and certifies positive definiteness without an inertia count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .angular import SQRT_2PI, AngularPotential, GevreyEnvelope, xi_constant
from .flux import FluxProfile
from .grid import (RadialGrid, _tridiagonal_eigh, channel_map, coarse_eigenpairs,
                   rayleigh_ritz, tridiagonal_eigenpairs)

__all__ = [
    "BlockHamiltonian", "SpectralWindow", "EigenSystem", "SpectralProjection",
    "assemble_hamiltonian", "diagonalize", "make_window", "spectral_projection",
    "estimate_c0", "channel_projection_norm", "band_inertia", "BandLU", "BandCholesky",
    "basis_product", "BasisBlock", "block_product", "LowestEigenvalue",
    "lowest_eigenvalue",
]

WINDOW_MARGIN = 0.05    # a window solve to E0 covers E0 + WINDOW_MARGIN max(1, |E0|)
RANK_ZERO_WARNING = "spectral window selected no eigenvalues (rank-0 projection)"
PANEL_ROWS = 1024       # rows of a block one GEMM writes in block_product's V x
SWEEP_RESTARTS = 1000   # ARPACK restarts after which a shift-inverted Lanczos run stops short
SWEEP_TOL = 1e-12       # ARPACK's relative stopping tolerance for every shift-inverted Lanczos run
TRIAL_SHIFT_DIVISOR = 64    # the trial shift lies (w + guard) / 64 below t (_lowest_pairs)
EPS = float(np.finfo(float).eps)


@dataclass
class BlockHamiltonian:
    """Channel-block matrix: tridiagonal diagonals plus radial-diagonal couplings."""

    grid: RadialGrid
    channels: np.ndarray            # ascending j values
    diagonals: np.ndarray           # (n_ch, n_r) kinetic + V_j (+ W_s)
    off_diagonal: np.ndarray        # (n_r - 1,) shared kinetic off-diagonal
    couplings: dict                 # m -> (n_r,) array W^(., m)/sqrt(2 pi), m >= 1
    symmetric_part: np.ndarray      # (n_r,) W_s values on the diagonal (0 if none)
    potential: np.ndarray           # (n_ch, n_r) V_j(r_i), the table in the diagonals
    dropped_tail_bound: float = 0.0

    @property
    def n_ch(self) -> int:
        return len(self.channels)

    @property
    def dim(self) -> int:
        return self.n_ch * self.grid.n_r

    @property
    def m_max(self) -> int:
        return max(self.couplings) if self.couplings else 0

    @property
    def is_block_diagonal(self) -> bool:
        return not self.couplings

    @property
    def dtype(self):
        if any(np.iscomplexobj(w) for w in self.couplings.values()):
            return np.complex128
        return np.float64

    def to_band(self) -> Tuple[np.ndarray, np.ndarray]:
        """H in LAPACK upper band storage and the index order of the band.

        ``ab[kd + p - q, q] = H[p, q]`` for ``q - kd <= p <= q``, and band
        index p is channel-major index ``order[p]``.  Coupled H is ordered
        node-major, index ``i n_ch + c``, with ``kd = n_ch``: W couples the
        channels of one node (distance m <= 2 j_max < n_ch) and the kinetic
        term couples neighbouring nodes (distance n_ch).  Block-diagonal H
        keeps channel-major order with ``kd = 1``: one tridiagonal per
        channel, with zeros on the off-diagonal where channels meet.
        """
        n, n_ch = self.grid.n_r, self.n_ch
        if self.is_block_diagonal:
            ab = np.zeros((2, self.dim))
            ab[1] = self.diagonals.reshape(-1)
            ab[0].reshape(n_ch, n)[:, 1:] = self.off_diagonal
            return ab, np.arange(self.dim)
        ab = np.zeros((n_ch + 1, self.dim), dtype=self.dtype)
        ab[n_ch] = self.diagonals.T.reshape(-1)
        ab[0, n_ch:] = np.repeat(self.off_diagonal, n_ch)
        for m, w in self.couplings.items():
            # node i, channels c < c + m: the upper entry of the (c + m, c) block is conj(w)
            ab[n_ch - m].reshape(n, n_ch)[:, m:] = np.conj(w)[:, None]
        return ab, np.arange(self.dim).reshape(n_ch, n).T.reshape(-1)

    def to_dense(self) -> np.ndarray:
        """H as a dense channel-major array, read back from :meth:`to_band`."""
        ab, order = self.to_band()
        back = np.argsort(order)                # band index of each channel-major index
        return _band_diagonal_blocks(ab, ab.shape[1])[0][np.ix_(back, back)]

    def norm_inf(self) -> float:
        """max absolute row sum, an upper bound for the operator 2-norm."""
        return _band_norm_inf(self.to_band()[0])


def _band_diagonal_blocks(ab: np.ndarray, size: int) -> np.ndarray:
    """The diagonal size x size blocks, dense, of the Hermitian matrix held
    in upper band storage (band row kd - s holds the s-th superdiagonal):
    shape (n // size, size, size), the whole matrix for a size of n."""
    kd = ab.shape[0] - 1
    blocks = np.zeros((ab.shape[1] // size, size, size), dtype=ab.dtype)
    for s in range(min(kd, size - 1) + 1):
        p = np.arange(size - s)
        upper = ab[kd - s].reshape(-1, size)[:, s:]
        blocks[:, p + s, p] = np.conj(upper)
        blocks[:, p, p + s] = upper             # last, so the diagonal is stored as is
    return blocks


def _add_band_row_sums(ab: np.ndarray, rows, *totals: np.ndarray) -> None:
    """Add to each of ``totals`` the absolute row sums of the Hermitian matrix
    held in upper band storage, counting only the entries of the band rows
    ``rows`` (row kd is the diagonal), added in the order given."""
    kd = ab.shape[0] - 1
    for r in rows:
        entries = np.abs(ab[r, kd - r:])
        for total in totals:
            if r == kd:
                total += entries
            else:
                total[:r - kd] += entries
                total[kd - r:] += entries


def _band_norm_inf(ab: np.ndarray) -> float:
    """Max absolute row sum of the Hermitian matrix held in upper band storage."""
    kd = ab.shape[0] - 1
    total = np.zeros(ab.shape[1])
    _add_band_row_sums(ab, (kd, *range(kd)), total)
    return float(total.max())


def assemble_hamiltonian(profile: FluxProfile, w: Optional[AngularPotential],
                         grid: RadialGrid, j_max: int,
                         m_max: Optional[int] = None) -> BlockHamiltonian:
    """Assemble the truncated block Hamiltonian for channels |j| <= j_max."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    channels = np.arange(-int(j_max), int(j_max) + 1)
    diag_k, off_k = grid.kinetic_tridiagonal()
    potential = profile.effective_potential(channels, grid.nodes)
    diagonals = diag_k + potential

    couplings = {}
    w_s = np.zeros(grid.n_r)
    dropped = 0.0
    if w is not None:
        if m_max is None:
            if w.table is not None:
                m_max = w.table.m_max
            elif w.envelope is not None:
                from .angular import default_m_max
                m_max = default_m_max(w.envelope, grid)
            else:
                raise ValueError("m_max is required for a closed-form W without envelope")
        if m_max > 2 * j_max:
            m_max = 2 * j_max
        table = w.coefficients(grid, m_max)
        if table.r.shape != grid.nodes.shape or not np.allclose(table.r, grid.nodes):
            raise ValueError("coefficient table grid does not match the radial grid")
        herm = table.hermitian_error()
        if herm > 1e-10 * max(1.0, table.max_abs()):
            raise ValueError(f"coefficient table is not Hermitian-symmetric (error {herm:.2e}); "
                             "W must be real-valued")
        col0 = table.column(0) / SQRT_2PI
        w_s = col0.real.copy()
        diagonals += w_s[None, :]
        drop = 1e-13 * max(1.0, table.max_abs())
        for m in range(1, m_max + 1):
            col = table.column(m) / SQRT_2PI
            if np.max(np.abs(col)) <= drop:
                continue
            if np.max(np.abs(col.imag)) <= 1e-14 * max(1.0, np.max(np.abs(col.real))):
                col = col.real.copy()
            couplings[m] = col
        if w.envelope is not None:
            env = w.envelope
            b_max = float(np.max(np.abs(env.b(grid.nodes))))
            mm = np.arange(m_max + 1, m_max + 2000)
            dropped = float(b_max * np.sum(np.exp(-env.a * mm ** env.zeta)))

    return BlockHamiltonian(
        grid=grid, channels=channels, diagonals=diagonals,
        off_diagonal=off_k, couplings=couplings,
        symmetric_part=w_s, potential=potential, dropped_tail_bound=dropped,
    )


@dataclass(frozen=True)
class SpectralWindow:
    """Energy window I = [e0, E0] with the boosted threshold E~ = E0 + c0 + delta0."""

    e0: float
    E0: float
    delta0: float
    c0: float

    def __post_init__(self):
        if self.E0 < self.e0:
            raise ValueError("window requires e0 <= E0")
        if self.delta0 <= 0:
            raise ValueError("window requires delta0 > 0")

    @property
    def e_tilde(self) -> float:
        return self.E0 + self.c0 + self.delta0


@dataclass(frozen=True, eq=False)
class BasisBlock:
    """Flat rows, the eigenvector columns that live in them, and their entries.

    The columns are zero outside ``rows``, so ``vectors``, shape (rows,
    len(cols)), holds all of them, in the column-major order the solvers
    return: a cut to a column range stays contiguous.  ``cols`` ascends, and
    so do the columns' eigenvalues.
    """

    rows: slice
    cols: np.ndarray
    vectors: np.ndarray

    def restrict(self, lo: int, hi: int) -> "BasisBlock":
        """The block on columns lo..hi-1, renumbered from 0: a view of ``vectors``."""
        start, stop = np.searchsorted(self.cols, (lo, hi))
        return BasisBlock(self.rows, self.cols[start:stop] - lo,
                          self.vectors[:, start:stop])


@dataclass
class EigenSystem:
    """Eigenpairs of a block Hamiltonian in the flat representation.

    The eigenvectors live in ``blocks`` (:class:`BasisBlock`), whose rows
    tile the flat index in order.  Columns are h-orthonormal (h v^H v = 1)
    and reshape channel-major to (n_ch, n_r).  The h-weighted Gram matrix
    is formed once, block by block, and both orthonormality diagnostics
    read it.
    """

    grid: RadialGrid
    channels: np.ndarray
    eigenvalues: np.ndarray
    residual_max: float
    norm_h: float
    method: str
    blocks: Tuple[BasisBlock, ...]
    count_certificate: str          # channel_sturm, or _window_count's certificate when coupled
    lowest: float                   # H's lowest eigenvalue, also when no pair lies below the top
    factor_nnz: int = 0             # entries the window's band LU stores, 0 without one
    lu_solves: int = 0              # solves of that LU: the count's inverse-power steps
    sweep_shift: Optional[float] = None     # the shift below H's spectrum of the sweep
    sweep_shift_route: Optional[str] = None     # trial or weyl: where that shift came from
    cholesky_solves: int = 0        # solves of the sweep's band Cholesky factor there
    weyl_bracket: Optional[Tuple[int, int]] = None  # Weyl's bounds on a coupled window count
    coupling_bound: Optional[float] = None      # w, the bound on |W_off|_2 they rest on

    @property
    def k(self) -> int:
        return self.eigenvalues.size

    @property
    def eigenvectors(self) -> np.ndarray:
        """The dense (dim, k) basis, for tests only; a single block returns its array."""
        if len(self.blocks) == 1:
            return self.blocks[0].vectors
        v = np.zeros((self.blocks[-1].rows.stop, self.k), dtype=self.blocks[0].vectors.dtype)
        for b in self.blocks:
            v[b.rows, b.cols] = b.vectors
        return v

    @cached_property
    def gram(self) -> np.ndarray:
        """h V^H V, zero between columns of different blocks."""
        g = np.zeros((self.k, self.k), dtype=self.blocks[0].vectors.dtype)
        for b in self.blocks:
            g[np.ix_(b.cols, b.cols)] = basis_product(b.vectors.conj().T, b.vectors)
        return self.grid.h * g

    def gram_error(self) -> float:
        """|h V^H V - I|_2, block by block."""
        if not self.k:
            return 0.0
        return _blockwise_norm2(self.gram, self.blocks, lambda g: g - np.eye(len(g)))


def _blockwise_norm2(m: np.ndarray, blocks, defect) -> float:
    """|defect(m)|_2 for a square m that is zero between the columns of
    different ``blocks``, every column in one block, and a defect that
    keeps that structure: the largest 2-norm over the diagonal blocks.
    """
    return max(float(np.linalg.norm(defect(m[np.ix_(b.cols, b.cols)]), 2))
               for b in blocks if b.cols.size)


def _block_diagonal_eigensystem(h: BlockHamiltonian, top: float) -> EigenSystem:
    """Every eigenpair below ``top`` by per-channel tridiagonal solves; each
    channel's eigenvectors are its block, which records where one stable
    argsort puts its columns.

    Channel c's pairs in (floor_c, top] come from
    :func:`~fluxlab.grid.tridiagonal_eigenpairs`, whose Sturm counts fix
    how many there are (``channel_sturm``): its bisection and inverse
    iteration for every channel in one :func:`~fluxlab.grid.channel_map`
    batch over the CPUs, then its Rayleigh-Ritz step per channel, in
    channel order, on the calling thread;
    floor_c = min_i (V_j + W_s)(r_i), read as the channel's diagonal
    less the kinetic one, minus a relative guard: the kinetic stencil is
    positive definite, so no eigenvalue of the channel lies at or below it,
    and a channel whose floor lies above the top has no pair to solve.
    When no channel has a pair below the top, ``lowest`` comes from
    :func:`lowest_eigenvalue` on H's band.
    """
    n = h.grid.n_r
    floors = np.min(h.diagonals - h.grid.kinetic_tridiagonal()[0], axis=1)
    floors -= 1e-9 * np.maximum(1.0, np.abs(floors))
    active = np.flatnonzero(floors < top).tolist()
    coarse = dict(zip(active, channel_map(
        lambda c: coarse_eigenpairs(h.diagonals[c], h.off_diagonal, floors[c], top), active)))
    vals_c, vecs_c = [], []
    res_max = 0.0
    for c in range(h.n_ch):
        if c in coarse:
            vals, vecs, tv = rayleigh_ritz(h.diagonals[c], h.off_diagonal, *coarse.pop(c))
        else:
            vals, vecs = np.zeros(0), np.zeros((n, 0))
        if vals.size:
            resid = tv - vecs * vals[None, :]
            res_max = max(res_max, float(np.max(np.sqrt(np.sum(resid ** 2, axis=0)))))
        vals_c.append(vals)
        vecs_c.append(vecs)
    vals_all = np.concatenate(vals_c)
    order = np.argsort(vals_all, kind="stable")
    cols = np.split(np.argsort(order), np.cumsum([v.size for v in vals_c])[:-1])
    blocks = tuple(BasisBlock(slice(c * n, (c + 1) * n), cols[c], vecs / np.sqrt(h.grid.h))
                   for c, vecs in enumerate(vecs_c))
    return EigenSystem(
        grid=h.grid, channels=h.channels, eigenvalues=vals_all[order],
        residual_max=res_max, norm_h=h.norm_inf(),
        method="channel_tridiagonal", blocks=blocks,
        count_certificate="channel_sturm",
        lowest=(float(vals_all[order[0]]) if vals_all.size
                else lowest_eigenvalue(h.to_band()[0]).value),
    )


def band_inertia(ab: np.ndarray, sigma: float) -> int:
    """The number of eigenvalues of the Hermitian band A below sigma.

    ``ab`` holds A in the layout of :meth:`BlockHamiltonian.to_band`: its
    kd x kd node blocks A_i are linked only by the kinetic term diag(b_i),
    band row 0.  Block elimination of A - sigma I leaves the Schur
    complements S_i = A_i - sigma I - diag(b_i)^H S_{i-1}^-1 diag(b_i), and
    by Haynsworth's inertia additivity (Linear Algebra Appl. 1, 1968) the
    count is the number of their negative eigenvalues, one ``eigh`` per
    node.  An eigenvalue of some S_i at most ``1e-12 max(1, |A|)`` in
    modulus raises: that close to singular the count is not trustworthy.
    """
    kd = ab.shape[0] - 1
    links = ab[0].reshape(-1, kd)           # b_i, at node i's columns
    tiny = 1e-12 * max(1.0, _band_norm_inf(ab))
    n_below, s_inv = 0, None
    for i, schur in enumerate(_band_diagonal_blocks(ab, kd)):
        schur[np.diag_indices(kd)] -= sigma
        if s_inv is not None:
            schur -= np.conj(links[i])[:, None] * s_inv * links[i][None, :]
        vals, vecs = np.linalg.eigh(schur)
        if np.min(np.abs(vals)) <= tiny:
            raise RuntimeError(
                f"Schur complement eigenvalue {np.min(np.abs(vals)):.3e} at node {i}, "
                f"shift {float(sigma):.17g}, is below 1e-12 |A| = {tiny:.3e}; the inertia "
                "count is not trustworthy")
        n_below += int(np.count_nonzero(vals < 0))
        s_inv = (vecs / vals) @ vecs.conj().T
    return n_below


class BandLU:
    """Pivoted band LU factor P (A - sigma I) = L U of a Hermitian band matrix A.

    ``ab`` holds A in LAPACK upper band storage (see
    :meth:`BlockHamiltonian.to_band`), whose conjugate transpose gives the
    lower band.  ``?gbtrf`` factors A - sigma I in general band storage with
    3 kd + 1 rows, kd of them for the fill that row interchanges bring, and
    ``nnz`` counts that storage; ``solve`` applies the factor with
    ``?gbtrs`` and counts the solves in ``solves``.  Partial pivoting gives
    no inertia, but every LU gives det(A - sigma I), the product of
    lambda_i - sigma over A's eigenvalues, whose sign is (-1) to the number
    of them below sigma (Golub & Van Loan, Matrix Computations, 4th ed.,
    sections 3.4 and 4.3); :meth:`det_sign` reads it for a real A.  An
    exactly zero pivot (sigma is an eigenvalue) raises.
    """

    def __init__(self, ab: np.ndarray, sigma: float):
        kd, n = ab.shape[0] - 1, ab.shape[1]
        self.kd, self.sigma = kd, float(sigma)
        # Fortran order, so ?gbtrf factors it in place; A[p, q] sits at row 2 kd + p - q
        gb = np.zeros((n, 3 * kd + 1), dtype=ab.dtype).T
        gb[kd:2 * kd + 1] = ab
        gb[2 * kd] -= self.sigma
        for s in range(1, kd + 1):
            gb[2 * kd + s, :n - s] = np.conj(ab[kd - s, s:])
        gbtrf, self._gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        self.lu, self.piv, info = gbtrf(gb, kd, kd, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"?gbtrf rejected argument {-info}")
        if info > 0:
            raise RuntimeError(f"A - {self.sigma:.17g} I is singular: pivot {info} is zero")
        self.nnz = self.lu.size
        self.solves = 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(A - sigma I)^-1 b, counted in ``solves``."""
        self.solves += 1
        x, info = self._gbtrs(self.lu, self.kd, self.kd, b, self.piv)
        if info < 0:
            raise ValueError(f"?gbtrs rejected argument {-info}")
        return x

    def det_sign(self) -> int:
        """The sign of det(A - sigma I) for a real A: (-1) to the number of
        row interchanges plus the number of negative u_ii.  Only signs
        enter, never the magnitudes, whose product over and underflows."""
        u = self.lu[2 * self.kd]
        swaps = int(np.count_nonzero(self.piv != np.arange(self.piv.size)))
        return -1 if (swaps + np.count_nonzero(u < 0)) % 2 else 1


# The window solve builds its band LU through this name, which the benchmark
# tracer (bench/tracing.py) wraps: it times the factorization as
# spectral.factorize and counts the solves as spectral.lu_solves.
splu = BandLU


def _band_operator(ab: np.ndarray) -> LinearOperator:
    """The Hermitian matrix held in upper band storage, as an operator whose
    products are ``?sbmv`` / ``?hbmv`` calls, one per column, on one
    Fortran-order copy of ``ab``."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    ab = np.asfortranarray(ab)
    band_mv = scipy.linalg.get_blas_funcs("hbmv" if np.iscomplexobj(ab) else "sbmv", (ab,))
    return LinearOperator((n, n), matvec=lambda x: band_mv(kd, 1.0, ab, x), dtype=ab.dtype)


class BandCholesky:
    """Band Cholesky factor U^H U = A - sigma I of a Hermitian band matrix A.

    ``ab`` holds A in LAPACK upper band storage (see
    :meth:`BlockHamiltonian.to_band`).  ``?pbtrf`` completes exactly when
    A - sigma I is positive definite, that is when every eigenvalue of A
    lies above sigma, so that verdict needs no inertia count
    (Golub & Van Loan, Matrix Computations, 4th ed., section 4.3).  A
    completed factor whose smallest pivot r_kk^2 is at most
    ``1e-12 max(1, |A|)`` raises: that close to singular the verdict is
    not trustworthy.  ``norm_a`` is |A|_inf when the caller has it
    already (:func:`_channel_tridiagonal` returns it); None reads it off
    ``ab``.
    """

    def __init__(self, ab: np.ndarray, sigma: float, norm_a: Optional[float] = None):
        self.sigma = float(sigma)
        self.norm_a = _band_norm_inf(ab) if norm_a is None else norm_a
        self.solves = 0
        kd = ab.shape[0] - 1
        shifted = np.array(ab, order="F")        # ?pbtrf factors it in place
        shifted[kd] -= self.sigma
        pbtrf, self._pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
        self.factor, info = pbtrf(shifted, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"?pbtrf rejected argument {-info}")
        self.positive_definite = info == 0
        if self.positive_definite:
            pivot = float(np.min(self.factor[kd].real)) ** 2
            tiny = 1e-12 * max(1.0, self.norm_a)
            if pivot <= tiny:
                raise RuntimeError(
                    f"Cholesky pivot {pivot:.3e} at shift {self.sigma:.17g} is below "
                    f"1e-12 |A| = {tiny:.3e}; positive definiteness is not trustworthy")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(A - sigma I)^-1 b, counted in ``solves``; A - sigma I must be
        positive definite."""
        if not self.positive_definite:
            raise ValueError(f"A - {self.sigma:.17g} I is not positive definite")
        self.solves += 1
        return self._pbtrs(self.factor, b)[0]


def _shift_invert_lanczos(a: LinearOperator, factor: BandCholesky, k: int,
                          ncv: Optional[int] = None,
                          v0: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """The k eigenpairs of the Hermitian ``a`` nearest the ``sigma`` of
    ``factor``, ascending, by shift-inverted Lanczos (Ericsson & Ruhe, Math.
    Comp. 35, 1980) on the factor's solves.  The run starts from ``v0``, or
    from (1, ..., 1) / sqrt(n) when None, and stops after ``SWEEP_RESTARTS``
    restarts with the pairs converged by then, which may be fewer than k.
    ``ncv`` is the number of Lanczos vectors, ARPACK's default when None.

    ARPACK accepts a Ritz pair (theta, y) of OP = (A - sigma I)^-1 once
    |OP y - theta y| <= ``SWEEP_TOL`` |theta|, which bounds the pair
    lambda = sigma + 1 / theta of A by |A y - lambda y| <= ``SWEEP_TOL``
    |A - sigma I| (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM
    1998): 1000 times inside the 1e-9 max(1, |A|_inf) contract every
    caller checks the measured residual against.  A tolerance of 0 is
    ARPACK's default, machine epsilon, whose last restarts move no
    measured residual (Parlett, The Symmetric Eigenvalue Problem, ch. 11).
    """
    n = a.shape[0]
    op_inv = LinearOperator(a.shape, matvec=factor.solve, dtype=a.dtype)
    if v0 is None:
        v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        vals, vecs = eigsh(a, k=k, sigma=factor.sigma, which="LM", v0=v0, OPinv=op_inv,
                           ncv=ncv, maxiter=SWEEP_RESTARTS, tol=SWEEP_TOL)
    except ArpackNoConvergence as exc:
        vals, vecs = np.real(exc.eigenvalues), exc.eigenvectors
    ascending = np.argsort(vals, kind="stable")
    return vals[ascending], vecs[:, ascending]


class _TridiagonalLowest(NamedTuple):
    """The lowest eigenvalue of a split tridiagonal T, bisected to
    ``?stebz``'s tolerance, and the block of T that holds it: its index
    among the blocks that zero off-diagonals split T into, and its rows."""

    value: float
    block: int
    rows: slice


def _tridiagonal_lowest(ab: np.ndarray) -> _TridiagonalLowest:
    """The lowest eigenvalue of the Hermitian tridiagonal in upper band
    storage (``kd == 1``), and the block that holds it.

    It is unitarily similar to the real tridiagonal T with the moduli of its
    off-diagonals, which its zero off-diagonals split into blocks.  The
    lowest eigenvalue ub of the block with the lowest diagonal entry is an
    eigenvalue of T, so it bounds lambda_min from above; that block alone is
    bisected for it, in index mode, and ``top`` starts there.  By
    Sylvester's law of inertia a block has an eigenvalue below s exactly
    when the LDL^T factorization of its rows minus s I meets a pivot that is
    not positive (Parlett, The Symmetric Eigenvalue Problem, ch. 3).  So one
    ``?pttrf`` sweep of T - (top + guard) I over the other blocks' rows
    certifies that none of them goes lower.  The zero off-diagonals restart
    the elimination at every block, so a failing pivot names its block;
    only that block is bisected, over its own rows, for its eigenvalues in
    (-inf, ub + guard], ``top`` falls to the lowest if lower, and the sweep
    restarts after the block at the new shift, where every block it passed
    is still positive definite.  Each restart re-reads only the rows left.
    The guard covers the block solve's tolerance, so a block tied with
    ``top`` within rounding is bisected too, and a failing block's values
    are those a single value slice (-inf, ub + guard] over all of T gives.
    """
    d, e = ab[1].real, np.abs(ab[0, 1:])
    bounds = np.concatenate(([0], np.flatnonzero(e == 0.0) + 1, [d.size]))
    best = int(np.searchsorted(bounds, np.argmin(d), side="right")) - 1
    lo, hi = bounds[best], bounds[best + 1]
    ub = float(_tridiagonal_eigh(d[lo:hi], e[lo:hi - 1], "i", (0, 0))[0])
    # ?stebz bisects to about eps times the block's largest Gershgorin bound
    guard = 16 * EPS * max(1.0, float(np.max(np.abs(d[lo:hi]))
                                      + 2 * np.max(e[lo:hi - 1], initial=0.0)))
    top = ub
    e_pad = np.append(e, 0.0)               # ?pttrf's wrapper wants len(e) = max(n - 1, 1)
    for start, stop in ((0, lo), (hi, d.size)):
        while start < stop:
            info = scipy.linalg.lapack.dpttrf(
                d[start:stop] - (top + guard), e_pad[start:max(stop - 1, start + 1)],
                overwrite_d=1)[2]
            if info == 0:
                break
            k = int(np.searchsorted(bounds, start + info - 1, side="right")) - 1
            b_lo, b_hi = bounds[k], bounds[k + 1]
            # empty when ?stebz's count puts the pivot's eigenvalue above ub + guard
            block_min = float(np.min(_tridiagonal_eigh(
                d[b_lo:b_hi], e[b_lo:b_hi - 1], "v", (-np.inf, ub + guard)),
                initial=np.inf))
            if block_min < top:
                top, best = block_min, k
            start = b_hi
    return _TridiagonalLowest(top, best, slice(int(bounds[best]), int(bounds[best + 1])))


def _channel_ground_state(tri: np.ndarray, low: _TridiagonalLowest,
                          scale: float) -> Tuple[float, np.ndarray]:
    """The lowest eigenpair of the channel tridiagonals D (kd = 1 upper band
    storage) in the block ``low`` holds: the Ritz value that
    :func:`~fluxlab.grid.tridiagonal_eigenpairs`, the window solve's kernel,
    gives in (t - g, t + g], g = 16 eps ``scale``, with t = ``low.value``,
    and its unit eigenvector on the block's rows.

    The kernel solves the real tridiagonal T with the moduli |e_i| of the
    block's off-diagonals e_i = D[i - 1, i].  D = S T S^H with S = diag(s),
    s_0 = 1 and s_i = s_(i-1) conj(e_i) / |e_i|, so S carries T's
    eigenvector u into D's, S u.
    """
    d, e = tri[1, low.rows].real, tri[0, low.rows][1:]
    guard = 16 * EPS * scale
    vals, vecs, _ = tridiagonal_eigenpairs(d, np.abs(e), low.value - guard, low.value + guard)
    phases = np.cumprod(np.concatenate(([1.0], np.conj(e) / np.abs(e))))
    return float(vals[0]), vecs[:, 0] * phases


def _channel_tridiagonal(ab: np.ndarray) -> Tuple[np.ndarray, float, float]:
    """The channel tridiagonals D of a Hermitian band A in the layout of
    :meth:`BlockHamiltonian.to_band`, the max row sum w of the rest of A,
    and |A|_inf.

    D is rows 0 and kd of ``ab``, node-major (n, kd) read as channel-major
    (kd, n) in kd = 1 upper band storage, with a zero off-diagonal where
    channels meet.  For ``kd == 1`` D is A and w = 0; otherwise rows
    1..kd-1 hold only node-local couplings W_off, and w, their max row sum,
    bounds |W_off|_2, so Weyl's inequality puts each eigenvalue of A within
    w of the same-index eigenvalue of D.  w and |A|_inf (added in
    :func:`_band_norm_inf`'s order) come from one pass over the band rows.
    """
    kd, n = ab.shape[0] - 1, ab.shape[1]
    tri = ab[[0, kd]].reshape(2, -1, kd).transpose(0, 2, 1).reshape(2, -1)
    tri[0, ::n // kd] = 0.0
    total, off = np.zeros(n), np.zeros(n)
    _add_band_row_sums(ab, (kd, 0), total)
    _add_band_row_sums(ab, range(1, kd), total, off)
    return tri, float(off.max()), float(total.max())


def _lowest_pairs(ab: np.ndarray, channels, k: int):
    """The k >= 1 lowest eigenpairs of a Hermitian band A laid out as
    :meth:`BlockHamiltonian.to_band` lays out a coupled H: their values,
    ascending, vectors and residuals |A v - lambda v| / |v|, the band
    Cholesky factor whose solves found them, its shift's route (``trial``
    or ``weyl``), both None when the pairs are solved densely, and D's
    :class:`_TridiagonalLowest`.

    ``channels`` is :func:`_channel_tridiagonal` of ``ab``: A = D + W_off
    with |W_off|_2 <= w, and t, the lowest eigenvalue of D, bounds
    lambda_min(A) from above (D's channel-pure lowest eigenvector has
    Rayleigh quotient t in A too).  With g = 1e-9 max(1, |A|_inf), which
    covers ``?stebz``'s tolerance many times over, Weyl's inequality puts
    every eigenvalue of A at or above sigma_W = t - w - g.  The
    shift is first tried at sigma_try = t - (w + g) / ``TRIAL_SHIFT_DIVISOR``,
    next to lambda_min: shift-inverted Lanczos converges at the rate
    (lambda_1 - sigma) / (lambda_2 - sigma), so a close shift needs far
    fewer solves.  A band Cholesky factor of A - sigma_try I that completes
    proves sigma_try < lambda_min (``trial``); one that is indefinite or
    trips its pivot floor declines the trial, and the factor is built at
    sigma_W instead (``weyl``), where a failure means a theorem failed, and
    raises.  Either way the returned factor's shift is a certified lower
    bound on lambda_min.  The factor reads |A|_inf from ``channels``.
    Shift-inverted Lanczos on its solves returns the k pairs nearest the
    shift, the k lowest, stopped at ``SWEEP_TOL`` (see
    :func:`_shift_invert_lanczos`); fewer converged pairs raise.  A run for
    k = 1 starts from D's lowest eigenvector, the block of ``low`` with
    the phases of its off-diagonals (:func:`_channel_ground_state`), in
    band order: A's ground state is near it when the coupling is weak; k >
    1 starts from (1, ..., 1).  A k of dim - 1 or more, which ARPACK cannot
    return, is solved densely, and builds no factor.
    """
    tri, w, norm = channels
    low = _tridiagonal_lowest(tri)
    a = _band_operator(ab)
    kd, n = ab.shape[0] - 1, ab.shape[1]
    if k >= n - 1:
        vals, vecs = scipy.linalg.eigh(_band_diagonal_blocks(ab, n)[0],
                                       subset_by_index=(0, k - 1))
        factor = route = None
    else:
        spread = w + 1e-9 * max(1.0, norm)
        try:
            factor = BandCholesky(ab, low.value - spread / TRIAL_SHIFT_DIVISOR, norm)
        except RuntimeError:            # completed, but past its pivot floor
            factor = None
        route = "trial"
        if factor is None or not factor.positive_definite:
            del factor
            route, sigma = "weyl", low.value - spread
            factor = BandCholesky(ab, sigma, norm)
            if not factor.positive_definite:
                raise RuntimeError(f"A - {sigma:.17g} I is not positive definite, yet Weyl's "
                                   "inequality bounds lambda_min(A) below by that shift")
        v0 = None
        if k == 1:
            # D's ground state, from channel-major row c n_r + i to band row i kd + c
            channel, node = np.divmod(np.arange(low.rows.start, low.rows.stop), n // kd)
            v0 = np.zeros(n, dtype=ab.dtype)
            v0[node * kd + channel] = _channel_ground_state(tri, low, max(1.0, norm))[1]
        # next to lambda_min one pair converges in a basis of 3 Lanczos
        # vectors; from Weyl's shift, or for more pairs, a smaller basis
        # than ARPACK's default took more solves from (1, ..., 1)
        vals, vecs = _shift_invert_lanczos(a, factor, k,
                                           3 if k == 1 and route == "trial" else None, v0)
        if vals.size < k:
            raise RuntimeError(f"shift-inverted Lanczos at {factor.sigma:.17g} converged to "
                               f"{vals.size} of {k} eigenpairs within {SWEEP_RESTARTS} "
                               "restarts")
    r = a @ vecs - vecs * vals[None, :]
    residuals = np.sqrt(np.sum(np.abs(r) ** 2, axis=0) / np.sum(np.abs(vecs) ** 2, axis=0))
    return vals, vecs, residuals, factor, route, low


class LowestEigenvalue(NamedTuple):
    """A band matrix's lowest eigenvalue, a certified lower bound on it, the
    route (``channel_tridiagonal`` or ``band_cholesky_lanczos``), the
    channel whose tridiagonal holds the channel tridiagonals' lowest
    eigenvalue t, the band Cholesky factor's solves (0 on the tridiagonal
    route), and the route of that factor's shift (``trial`` or ``weyl``,
    None on the tridiagonal route).  The bound is that shift, certified by
    the factor, on the coupled route, and the bisected t less its tolerance
    on the tridiagonal one."""

    value: float
    lower_bound: float
    method: str
    channel: int
    cholesky_solves: int
    shift_route: Optional[str]


def lowest_eigenvalue(ab: np.ndarray) -> LowestEigenvalue:
    """The lowest eigenvalue of a Hermitian band A, without eigenvectors.

    ``ab`` holds A in upper band storage in the layout of
    :meth:`BlockHamiltonian.to_band` (H, or the twisted operator of
    :func:`~fluxlab.weights.twisted_gap_check`): channel-major tridiagonal
    with ``kd = 1``, or node-major with ``kd = n_ch``.  Over the channel
    tridiagonals D (:func:`_channel_tridiagonal`), :func:`_tridiagonal_lowest`
    gives their lowest eigenvalue t, bisected in the channel that holds it
    and certified over the others by one LDL^T sweep.  Its block is the
    returned ``channel``.
    For ``kd == 1`` D is A.  t is the midpoint of a ``?stebz`` interval,
    which stops at a width of eps |D|_1 or 2 eps |t|, so the lower bound is
    t - 4 eps max(1, |A|_inf).  The value is the Ritz value that
    :func:`~fluxlab.grid.tridiagonal_eigenpairs`, the window solve's kernel,
    gives on that channel in (t - g, t + g], g = 16 eps max(1, |A|_inf):
    one inverse-iteration vector.  On H it equals the window solve's e0 to
    rounding, not bit for bit: that solve's Ritz step spans all of the
    channel's window pairs (3.6e-14 apart on a uniform field, B0 = 2).
    Otherwise the value is the k = 1 case of :func:`_lowest_pairs`, the
    window sweep's route, and the shift of its band Cholesky factor, the
    trial shift next to t when that factor completes and Weyl's otherwise,
    the lower bound.  Its Lanczos run starts from the eigenvector of t's
    channel tridiagonal and stops at ``SWEEP_TOL``, whose a-priori residual
    bound 1e-12 |A - sigma I| lies 1000 times inside the contract the
    measured residual is checked against: a residual above
    1e-9 max(1, |A|_inf) raises.
    """
    channels = _channel_tridiagonal(ab)
    tri, _, norm = channels
    scale = max(1.0, norm)
    if ab.shape[0] - 1 == 1:
        low = _tridiagonal_lowest(tri)
        return LowestEigenvalue(_channel_ground_state(tri, low, scale)[0],
                                low.value - 4 * EPS * scale,
                                "channel_tridiagonal", low.block, 0, None)
    vals, _, (res,), factor, route, low = _lowest_pairs(ab, channels, 1)
    if res > 1e-9 * scale:
        raise RuntimeError(f"lowest eigenpair residual {res:.3e} exceeds "
                           f"1e-9 max(1, |A|) = {1e-9 * scale:.3e}")
    return LowestEigenvalue(float(vals[0]), factor.sigma, "band_cholesky_lanczos",
                            low.block, factor.solves, route)


class WindowCount(NamedTuple):
    """The number of eigenvalues of A below a shift, the certificate that
    fixes it (``weyl``, ``weyl_determinant_sign`` or ``inertia``), Weyl's
    bracket (k_lo, k_hi) around it, the coupling bound w of that bracket,
    and the storage and solves of the band LU built for a determinant sign
    (both 0 when the bracket is not one wide or A is complex)."""

    n: int
    certificate: str
    bracket: Tuple[int, int]
    coupling_bound: float
    lu_nnz: int = 0
    lu_solves: int = 0


def _window_count(ab: np.ndarray, top: float, channels) -> WindowCount:
    """The number of eigenvalues of the Hermitian band A below ``top``.

    ``ab`` is in the layout of :meth:`BlockHamiltonian.to_band` and
    ``channels`` the
    :func:`_channel_tridiagonal` of ``ab``: A = D + W_off with D the channel
    tridiagonals and |W_off|_2 <= w.  So Weyl's inequality (Math. Ann. 71,
    1912) brackets the count between k_lo = N_D(top - w - g) and
    k_hi = N_D(top + w + g), where N_D(s) is D's Sturm count of eigenvalues
    at or below s (one ``?stebz`` value count over all of D's rows, which
    stops bisecting where the count is known) and g = 1e-9 max(1, |A|_inf)
    is the guard of :func:`_lowest_pairs`, which covers the counts'
    rounding.

    - k_lo == k_hi: that is the count (``weyl``).
    - k_hi == k_lo + 1 and A real: the sign of det(A - top I),
      (-1)^count, read off a band LU of A - top I built here through the
      name ``splu`` (:class:`BandLU`), picks the end of the bracket with
      its parity (``weyl_determinant_sign``).  The factor's sign is the
      exact one of a matrix within rounding of A - top I, so it is A's own
      only if no eigenvalue lies near top: the sign is declined when two
      inverse-power steps show |(A - top I)^-1| >= 1 / g.  The pivots give
      no such guard: at a top 1e-13 above an eigenvalue of the 270 x 12
      reference model's H, min |u_ii| still reads 225.
    - Otherwise, or when the sign is declined, the inertia of the block
      elimination over A's nodes (:func:`band_inertia`) gives it
      (``inertia``).
    """
    tri, w, norm = channels
    g = 1e-9 * max(1.0, norm)
    d, e = tri[1].real, np.abs(tri[0, 1:])
    # tol = inf stops every bisection at its first step: ?stebz's count of
    # the values in (-inf, s] comes from its Sturm counts, whatever the tol
    k_lo, k_hi = (_tridiagonal_eigh(d, e, "v", (-np.inf, s), tol=np.inf).size
                  for s in (top - w - g, top + w + g))
    bracket = (int(k_lo), int(k_hi))
    if k_lo == k_hi:
        return WindowCount(k_lo, "weyl", bracket, w)
    lu_counts = ()
    if k_hi == k_lo + 1 and not np.iscomplexobj(ab):
        lu = splu(ab, top)
        # two inverse-power steps from a fixed pseudo-random unit vector:
        # |x| is a lower bound on |(A - top I)^-1|_2, close to it unless
        # the start is nearly orthogonal to the eigenvector nearest top
        x = np.random.default_rng(0).standard_normal(ab.shape[1])
        for _ in range(2):
            x = lu.solve(x / np.linalg.norm(x))
        lu_counts = (lu.nnz, lu.solves)
        if np.linalg.norm(x) < 1.0 / g:
            n = k_lo if lu.det_sign() == (-1) ** k_lo else k_hi
            return WindowCount(n, "weyl_determinant_sign", bracket, w, *lu_counts)
    return WindowCount(band_inertia(ab, top), "inertia", bracket, w, *lu_counts)


def _windowed_eigensystem(h: BlockHamiltonian, upper: float,
                          margin: float) -> EigenSystem:
    """Every eigenpair with eigenvalue below top = upper + margin.

    H's channel tridiagonals, read once (:func:`_channel_tridiagonal`), give
    Weyl's bracket (k_lo, k_hi) on the count N below the top and the shift
    below the spectrum.  A band LU at the top (:class:`BandLU`), built only
    for a real bracket one wide, serves only the count
    (:func:`_window_count`), which frees it on returning.  The
    sweep asks :func:`_lowest_pairs`, the route of :func:`lowest_eigenvalue`,
    for the k_hi lowest pairs (at least one) and keeps those below the top:
    exactly N, each with residual at most 1e-9 |H|_inf.  Those k_hi pairs
    hold every eigenvalue below the top, so a determinant sign that picked
    the wrong end of the bracket finds one pair more or one fewer than it
    claims, and raises.  The lowest pair is H's lowest eigenvalue, kept as
    ``lowest`` even when the window is empty; there it meets
    :func:`lowest_eigenvalue`'s 1e-9 max(1, |H|_inf) contract.  The
    eigenvectors return to channel-major order, in an array of N columns.
    """
    top = upper + margin
    ab, order = h.to_band()
    channels = _channel_tridiagonal(ab)
    norm_h = channels[2]
    count = _window_count(ab, top, channels)
    k = max(count.bracket[1], 1)
    vals, band_vecs, residuals, factor, route, _ = _lowest_pairs(ab, channels, k)
    found = int(np.count_nonzero(vals < top))
    if found != count.n:
        raise RuntimeError(f"window solve found {found} eigenvalues below {top:g}; "
                           f"the {count.certificate} count is {count.n}")
    res = float(np.max(residuals[:found], initial=0.0))
    bound = 1e-9 * (norm_h if found else max(1.0, norm_h))
    if max(res, residuals[0]) > bound:
        raise RuntimeError(f"iterative eigensolve residual {max(res, residuals[0]):.3e} "
                           f"exceeds its 1e-9 |H| contract, {bound:.3e}")
    vecs = np.empty((h.dim, found), dtype=ab.dtype, order="F")
    vecs[order] = band_vecs[:, :found] / np.sqrt(h.grid.h)
    return EigenSystem(
        grid=h.grid, channels=h.channels, eigenvalues=vals[:found],
        residual_max=res, norm_h=norm_h,
        method="dense" if k >= h.dim - 1 else "shift_invert_window",
        blocks=(BasisBlock(slice(0, h.dim), np.arange(found), vecs),),
        factor_nnz=count.lu_nnz, lu_solves=count.lu_solves, lowest=float(vals[0]),
        sweep_shift=None if factor is None else factor.sigma, sweep_shift_route=route,
        cholesky_solves=0 if factor is None else factor.solves,
        count_certificate=count.certificate, weyl_bracket=count.bracket,
        coupling_bound=count.coupling_bound,
    )


def diagonalize(h: BlockHamiltonian, window_upper: float) -> EigenSystem:
    """Every eigenpair of a block Hamiltonian with eigenvalue <= window_upper
    + margin, margin = ``WINDOW_MARGIN`` max(1, |window_upper|), and no
    other: per channel when uncoupled, otherwise by shift-inverted Lanczos
    on a band Cholesky factor below the spectrum, checked against a
    certified count (:func:`_windowed_eigensystem`).  A window_upper above
    |H|_inf gives the whole spectrum.
    """
    margin = WINDOW_MARGIN * max(1.0, abs(window_upper))
    if h.is_block_diagonal:
        return _block_diagonal_eigensystem(h, window_upper + margin)
    return _windowed_eigensystem(h, window_upper, margin)


def make_window(h: BlockHamiltonian, lowest: float, upper: float,
                delta0: Optional[float] = None,
                envelope: Optional[GevreyEnvelope] = None) -> SpectralWindow:
    """The window [e0, E0 = upper] of H, whose lowest eigenvalue is ``lowest``.

    e0 = min(lowest, upper): when ``lowest`` lies above ``upper`` the window
    holds no eigenvalue and e0 = E0.  delta0 defaults to
    0.1 |upper - lowest|, a tenth of the window's width, or of the gap up to
    the spectrum when the window is empty; a delta0 that is not positive
    raises.  c0 is :func:`estimate_c0` of ``envelope`` when H carries a W,
    and 0 otherwise.
    """
    if delta0 is None:
        delta0 = 0.1 * abs(upper - lowest)
    c0 = 0.0
    has_w = bool(h.couplings) or bool(np.any(h.symmetric_part))
    if envelope is not None and has_w:
        c0 = estimate_c0(envelope.b, envelope.a, envelope.zeta, h.grid)
    return SpectralWindow(e0=float(min(lowest, upper)), E0=float(upper),
                          delta0=float(delta0), c0=float(c0))


def basis_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 1-D or 2-D ``b`` that never casts a real ``a`` (a basis
    or its transpose) to complex: a complex ``b`` is read as interleaved
    real/imaginary float64 columns (``b.view(float)``) in one real GEMM."""
    if np.iscomplexobj(a) or not np.iscomplexobj(b):
        return a @ b
    cols = np.ascontiguousarray(b.reshape(len(b), *(b.shape[1:] or (1,))), dtype=complex)
    return (a @ cols.view(float)).view(complex).reshape(a.shape[:-1] + b.shape[1:])


def block_product(blocks, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Products with the basis V that ``blocks`` hold, block by block; their
    rows tile the flat index and their columns number 0..k-1 between them.

    By default ``x @ V.T``: an (m, k) ``x`` gives m contiguous flat rows of
    length dim, each block's rows written PANEL_ROWS at a time and each
    panel's product transposed into place while it is small.  With
    ``adjoint``, ``V^H @ x`` for x of shape (dim,) or (dim, m), each block
    contracting only its own rows.  Each GEMM is a :func:`basis_product`.
    """
    dtype = np.result_type(x, *(b.vectors for b in blocks))
    if adjoint:
        out = np.zeros((sum(b.cols.size for b in blocks),) + x.shape[1:], dtype=dtype)
        for b in blocks:
            out[b.cols] = basis_product(b.vectors.conj().T, x[b.rows])
        return out
    out = np.zeros(x.shape[:-1] + (blocks[-1].rows.stop,), dtype=dtype)
    for b in blocks:
        if not b.cols.size:
            continue                        # its rows stay zero
        coeff = x[..., b.cols].T
        rows = out[..., b.rows]
        for start in range(0, rows.shape[-1], PANEL_ROWS):
            panel = slice(start, start + PANEL_ROWS)
            rows[..., panel] = basis_product(b.vectors[panel], coeff).T
    return out


@dataclass
class SpectralProjection:
    """Eigenpairs of H with eigenvalue in the closed window [e0, E0]."""

    window: SpectralWindow
    eigensystem: EigenSystem
    selector: slice               # eigenpair columns inside the window

    @property
    def rank(self) -> int:
        return self.selector.stop - self.selector.start

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem.eigenvalues[self.selector]

    @property
    def basis(self) -> np.ndarray:
        """The dense (dim, rank) window eigenvectors, for tests only."""
        return self.eigensystem.eigenvectors[:, self.selector]

    @cached_property
    def blocks(self) -> Tuple[BasisBlock, ...]:
        """The eigensystem's blocks on the window columns, renumbered from 0:
        views of its arrays, built on first access."""
        lo, hi = self.selector.start, self.selector.stop
        return tuple(b.restrict(lo, hi) for b in self.eigensystem.blocks)

    @property
    def grid(self) -> RadialGrid:
        return self.eigensystem.grid

    @property
    def channels(self) -> np.ndarray:
        return self.eigensystem.channels

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Project a flat (n_ch, n_r) amplitude array onto the window subspace."""
        flat = np.asarray(u).reshape(-1)
        coeff = self.grid.h * block_product(self.blocks, flat, adjoint=True)
        return block_product(self.blocks, coeff).reshape(np.asarray(u).shape)

    def idempotency_error(self) -> float:
        """|P^2 - P| = |P^* - P| on the retained basis (Gram defect norm).

        Reads the window block of the eigensystem's Gram matrix, block by block.
        """
        if self.rank == 0:
            return 0.0
        g = self.eigensystem.gram[self.selector, self.selector]
        return _blockwise_norm2(g, self.blocks, lambda b: b @ b - b)


def spectral_projection(h: BlockHamiltonian, window: SpectralWindow,
                        eigensystem: Optional[EigenSystem] = None) -> SpectralProjection:
    """Spectral projection onto [e0, E0]; boundary ties enter together."""
    if eigensystem is None:
        eigensystem = diagonalize(h, window_upper=window.E0)
    vals = eigensystem.eigenvalues
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    tie = 1e-12 * scale
    inside = np.flatnonzero((vals >= window.e0 - tie) & (vals <= window.E0 + tie))
    if not inside.size:
        warnings.warn(RANK_ZERO_WARNING, stacklevel=2)
        return SpectralProjection(window=window, eigensystem=eigensystem,
                                  selector=slice(0, 0))
    # a degenerate cluster straddling E0 enters as a whole
    last = int(inside[-1])
    while last + 1 < vals.size and vals[last + 1] - vals[last] <= tie:
        last += 1
    return SpectralProjection(window=window, eigensystem=eigensystem,
                              selector=slice(int(inside[0]), last + 1))


def estimate_c0(v, a: float, zeta: float, grid: RadialGrid) -> float:
    """Form-bound constant: c0 = max(0, -lambda_min(K - xi(a, zeta) v)).

    K is the flat-measure radial kinetic stencil (exactly PSD on this grid)
    and v a nonnegative radial envelope evaluated at the nodes.
    """
    vals = np.zeros(grid.n_r) if v is None else np.asarray(v(grid.nodes), dtype=float)
    if np.any(vals < 0):
        raise ValueError("estimate_c0 requires v >= 0 on the grid")
    if not np.any(vals):
        return 0.0
    xi = xi_constant(a, zeta)
    diag, off = grid.kinetic_tridiagonal()
    lam_min = _tridiagonal_eigh(diag - xi * vals, off, "i", (0, 0))[0]
    return float(max(0.0, -lam_min))


def channel_projection_norm(p: SpectralProjection, j: int,
                            region: Tuple[float, float],
                            radial_weight=None) -> float:
    """Operator norm of 1_region(|x|) P_j E_I, optionally with a radial weight.

    Computed as the largest singular value of the masked (and weighted)
    channel-j rows of the window block that holds them.
    """
    lo, hi = region
    grid = p.grid
    if lo < 0 or hi > grid.r_max + 1e-12:
        raise ValueError("region endpoints must lie within [0, r_max]")
    if p.rank == 0:
        return 0.0
    mask = (grid.nodes >= lo) & (grid.nodes <= hi)
    if not np.any(mask):
        return 0.0
    first = p.eigensystem.channels.tolist().index(j) * grid.n_r
    b = next(b for b in p.blocks if b.rows.start <= first < b.rows.stop)
    start = first - b.rows.start
    rows = np.sqrt(grid.h) * b.vectors[start:start + grid.n_r][mask]
    if radial_weight is not None:
        rows = np.asarray(radial_weight(grid.nodes[mask]), dtype=float)[:, None] * rows
    s = np.linalg.svd(rows, compute_uv=False)
    return float(s[0]) if s.size else 0.0
