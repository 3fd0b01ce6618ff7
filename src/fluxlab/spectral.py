"""Block Hamiltonian assembly, diagonalization, and spectral projections.

The truncated operator acts on channels j in [-J_max, J_max], each carrying
the tridiagonal radial operator of :mod:`fluxlab.grid`.  An angular
perturbation couples channels j and k through a block that is diagonal in
the radial index with entries W^(r_i, j - k) / sqrt(2 pi); its radial part
W^(r, 0) / sqrt(2 pi) joins the channel diagonals.  The normalization is
anchored by W = g(r) cos(theta), whose (j, j±1) blocks must carry g(r)/2.

Spectral projections onto an energy window [e0, E0] are computed by direct
diagonalization: per-channel tridiagonal solves when no coupling is present,
and otherwise one shifted factorization (:class:`ShiftedFactor`) at the
window top, whose inertia counts the eigenvalues below it exactly and whose
shift-inverted Lanczos sweep then returns exactly that many eigenpairs.
Repeated runs are deterministic (fixed start vectors, fixed assembly order).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .angular import SQRT_2PI, AngularPotential, GevreyEnvelope, xi_constant
from .flux import FluxProfile
from .grid import RadialGrid

__all__ = [
    "BlockHamiltonian", "SpectralWindow", "EigenSystem", "SpectralProjection",
    "assemble_hamiltonian", "diagonalize", "make_window", "spectral_projection",
    "estimate_c0", "channel_projection_norm", "ShiftedFactor",
]


@dataclass
class BlockHamiltonian:
    """Channel-block matrix: tridiagonal diagonals plus radial-diagonal couplings."""

    grid: RadialGrid
    channels: np.ndarray            # ascending j values
    diagonals: np.ndarray           # (n_ch, n_r) kinetic + V_j (+ W_s)
    off_diagonal: np.ndarray        # (n_r - 1,) shared kinetic off-diagonal
    couplings: dict                 # m -> (n_r,) array W^(., m)/sqrt(2 pi), m >= 1
    symmetric_part: np.ndarray      # (n_r,) W_s values on the diagonal (0 if none)
    symmetric_part_included: bool
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

    def to_sparse(self) -> sp.csr_matrix:
        """Assemble as CSR; Hermitian by construction (upper blocks mirrored)."""
        n = self.grid.n_r
        rows, cols, data = [], [], []
        idx = np.arange(n)
        for c in range(self.n_ch):
            base = c * n
            rows.append(base + idx)
            cols.append(base + idx)
            data.append(self.diagonals[c])
            rows.append(base + idx[:-1])
            cols.append(base + idx[1:])
            data.append(self.off_diagonal)
            rows.append(base + idx[1:])
            cols.append(base + idx[:-1])
            data.append(self.off_diagonal)
        for m in sorted(self.couplings):
            w = self.couplings[m]
            for c in range(self.n_ch - m):
                lo, hi = c * n, (c + m) * n
                # row block j = channels[c+m], col block k = channels[c]: j - k = m
                rows.append(hi + idx)
                cols.append(lo + idx)
                data.append(w)
                rows.append(lo + idx)
                cols.append(hi + idx)
                data.append(np.conj(w))
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        data = np.concatenate([np.asarray(d, dtype=self.dtype) for d in data])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.dim, self.dim))

    def to_dense(self) -> np.ndarray:
        return self.to_sparse().toarray()

    def norm_inf(self) -> float:
        """max absolute row sum, an upper bound for the operator 2-norm."""
        n = self.grid.n_r
        row = np.abs(self.diagonals).astype(float)
        off = np.abs(self.off_diagonal)
        row[:, :-1] += off
        row[:, 1:] += off
        for m, w in self.couplings.items():
            wa = np.abs(w)
            row[m:] += wa
            row[:-m] += wa
        return float(row.max())


def assemble_hamiltonian(profile: FluxProfile, w: Optional[AngularPotential],
                         grid: RadialGrid, j_max: int,
                         m_max: Optional[int] = None,
                         include_symmetric_part: bool = True) -> BlockHamiltonian:
    """Assemble the truncated block Hamiltonian for channels |j| <= j_max."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    channels = np.arange(-int(j_max), int(j_max) + 1)
    diag_k, off_k = grid.kinetic_tridiagonal()
    diagonals = np.empty((channels.size, grid.n_r))
    for c, j in enumerate(channels):
        diagonals[c] = diag_k + profile.effective_potential(int(j), grid.nodes)

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
        if include_symmetric_part:
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
        symmetric_part=w_s, symmetric_part_included=include_symmetric_part,
        dropped_tail_bound=dropped,
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


@dataclass
class EigenSystem:
    """Eigenpairs of a block Hamiltonian in the flat representation.

    ``eigenvectors`` columns are orthonormal in the h-weighted inner product
    (h * v^H v = 1); reshape a column with :meth:`state_array` to (n_ch, n_r).
    """

    grid: RadialGrid
    channels: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_max: float
    norm_h: float
    method: str

    @property
    def k(self) -> int:
        return self.eigenvalues.size

    def state_array(self, col: int) -> np.ndarray:
        return self.eigenvectors[:, col].reshape(len(self.channels), self.grid.n_r)

    def gram_error(self) -> float:
        g = self.grid.h * (self.eigenvectors.conj().T @ self.eigenvectors)
        return float(np.linalg.norm(g - np.eye(self.k), 2)) if self.k else 0.0


def _residuals(h_sparse, vals, vecs) -> float:
    if vals.size == 0:
        return 0.0
    r = h_sparse @ vecs - vecs * vals[None, :]
    return float(np.max(np.sqrt(np.sum(np.abs(r) ** 2, axis=0)
                                / np.sum(np.abs(vecs) ** 2, axis=0))))


def _tridiag_matvec(diag, off, v):
    out = diag[:, None] * v
    out[:-1] += off[:, None] * v[1:]
    out[1:] += off[:, None] * v[:-1]
    return out


def _block_diagonal_eigensystem(h: BlockHamiltonian, value_range=None,
                                n_lowest=None) -> EigenSystem:
    """Per-channel tridiagonal solves; eigenvectors stay channel-pure."""
    n = h.grid.n_r
    vals_all, cols_all = [], []
    res_max = 0.0
    for c in range(h.n_ch):
        if value_range is not None:
            vals, vecs = scipy.linalg.eigh_tridiagonal(
                h.diagonals[c], h.off_diagonal, select="v",
                select_range=tuple(value_range))
        else:
            k = n if n_lowest is None else min(int(n_lowest), n)
            vals, vecs = scipy.linalg.eigh_tridiagonal(
                h.diagonals[c], h.off_diagonal, select="i",
                select_range=(0, k - 1))
        if vals.size:
            resid = _tridiag_matvec(h.diagonals[c], h.off_diagonal, vecs) \
                - vecs * vals[None, :]
            res_max = max(res_max, float(np.max(np.sqrt(np.sum(resid ** 2, axis=0)))))
        for col in range(vals.size):
            vals_all.append(vals[col])
            cols_all.append((c, vecs[:, col]))
    vals_all = np.array(vals_all)
    order = np.argsort(vals_all, kind="stable")
    vecs_full = np.zeros((h.dim, vals_all.size))
    for out_col, src in enumerate(order):
        c, v = cols_all[src]
        vecs_full[c * n:(c + 1) * n, out_col] = v / np.sqrt(h.grid.h)
    return EigenSystem(
        grid=h.grid, channels=h.channels, eigenvalues=vals_all[order],
        eigenvectors=vecs_full, residual_max=res_max, norm_h=h.norm_inf(),
        method="channel_tridiagonal",
    )


class ShiftedFactor:
    """Factorization of a Hermitian A - sigma I with its Sylvester inertia.

    SuperLU runs in symmetric mode: a symmetric fill-reducing ordering and
    diagonal pivots only, so P (A - sigma I) P^T = L U with U = D L^H and,
    by Sylvester's law of inertia, the negative entries of diag(U) count the
    eigenvalues of A below sigma exactly (``n_below``).  Without pivoting
    the elimination is only trustworthy while no pivot is tiny, so a row
    interchange or a pivot below ``1e-12 |A|`` raises instead of returning
    a count.  The factor serves shift-inverted Lanczos sweeps about sigma
    (Ericsson & Ruhe 1980; inertia slicing as in Grimes, Lewis & Simon 1994).
    """

    def __init__(self, a, sigma: float):
        self.a = sp.csc_matrix(a)
        self.sigma = float(sigma)
        shifted = self.a - self.sigma * sp.identity(self.dim, dtype=self.a.dtype,
                                                    format="csc")
        self.lu = splu(shifted, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        if not np.array_equal(self.lu.perm_r, self.lu.perm_c):
            raise RuntimeError(f"factorization at shift {self.sigma:.17g} needed "
                               "off-diagonal pivots; the inertia is undefined")
        pivots = self.lu.U.diagonal().real
        norm_a = float(abs(self.a).sum(axis=1).max())
        tiny = 1e-12 * max(1.0, norm_a)
        if np.min(np.abs(pivots)) <= tiny:
            raise RuntimeError(
                f"pivot {np.min(np.abs(pivots)):.3e} at shift {self.sigma:.17g} is "
                f"below 1e-12 |A| = {tiny:.3e}; the inertia count is not trustworthy")
        self.n_below = int(np.count_nonzero(pivots < 0))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def dense_below(self) -> bool:
        """True when ``below`` solves densely: ARPACK needs k < dim - 1."""
        return self.n_below >= self.dim - 1

    def _eigsh(self, k: int, which: str, vectors: bool = True):
        op_inv = LinearOperator(self.a.shape, matvec=self.lu.solve, dtype=self.a.dtype)
        return eigsh(self.a, k=k, sigma=self.sigma, which=which,
                     v0=np.full(self.dim, 1.0 / np.sqrt(self.dim)), OPinv=op_inv,
                     return_eigenvectors=vectors)

    def below(self):
        """The ``n_below`` eigenpairs of A under sigma, eigenvalues ascending.

        In shift-invert mode the ``SA`` end of 1 / (lambda - sigma) is the
        set below sigma, so ARPACK is asked for exactly those pairs.
        """
        k = self.n_below
        if k == 0:
            return np.zeros(0), np.zeros((self.dim, 0), dtype=self.a.dtype)
        if self.dense_below:
            return scipy.linalg.eigh(self.a.toarray(), subset_by_index=(0, k - 1))
        vals, vecs = self._eigsh(k, "SA")
        order = np.argsort(vals, kind="stable")
        return vals[order], vecs[:, order]

    def nearest(self) -> float:
        """The eigenvalue of A nearest to sigma."""
        return float(self._eigsh(1, "LM", vectors=False)[0])


def _windowed_eigensystem(h: BlockHamiltonian, upper: float,
                          margin: float) -> EigenSystem:
    """Every eigenpair with eigenvalue below upper + margin.

    One factorization at the top counts them exactly (nu); the Lanczos sweep
    is asked for nu pairs and must return nu pairs below the top.
    """
    top = upper + margin
    factor = ShiftedFactor(h.to_sparse(), top)
    vals, vecs = factor.below()
    found = int(np.count_nonzero(vals < top))
    if found != factor.n_below:
        raise RuntimeError(f"window solve found {found} eigenvalues below {top:g}; "
                           f"the inertia count is {factor.n_below}")
    norm_h = h.norm_inf()
    res = _residuals(factor.a, vals, vecs)
    if res > 1e-9 * norm_h:
        raise RuntimeError(
            f"iterative eigensolve residual {res:.3e} exceeds 1e-9 * |H| = "
            f"{1e-9 * norm_h:.3e}")
    return EigenSystem(
        grid=h.grid, channels=h.channels, eigenvalues=vals,
        eigenvectors=vecs / np.sqrt(h.grid.h), residual_max=res, norm_h=norm_h,
        method="dense" if factor.dense_below else "shift_invert_window",
    )


def diagonalize(h: BlockHamiltonian, window_upper: Optional[float] = None,
                dense_limit: int = 4000, margin: Optional[float] = None) -> EigenSystem:
    """Diagonalize a block Hamiltonian.

    Without ``window_upper`` the full spectrum is computed (per-channel, or
    dense for coupled blocks, whose dimension must stay within
    ``dense_limit``).  With ``window_upper`` the result holds every
    eigenpair with eigenvalue <= window_upper + margin and no other: per
    channel when uncoupled, otherwise by one inertia-counted shifted
    factorization at the top (:class:`ShiftedFactor`).
    """
    if window_upper is not None and margin is None:
        margin = 0.05 * max(1.0, abs(window_upper))
    if h.is_block_diagonal:
        if window_upper is None:
            return _block_diagonal_eigensystem(h)
        lb = -h.norm_inf() - 1.0
        return _block_diagonal_eigensystem(h, value_range=(lb, window_upper + margin))
    if window_upper is not None:
        return _windowed_eigensystem(h, window_upper, margin)
    if h.dim > dense_limit:
        raise ValueError(
            f"dimension {h.dim} exceeds dense_limit = {dense_limit}; "
            "pass window_upper for a spectrum-sliced solve")
    a = h.to_dense()
    vals, vecs = scipy.linalg.eigh(a)
    res = _residuals(sp.csr_matrix(a), vals, vecs)
    return EigenSystem(
        grid=h.grid, channels=h.channels, eigenvalues=vals,
        eigenvectors=vecs / np.sqrt(h.grid.h), residual_max=res,
        norm_h=h.norm_inf(), method="dense",
    )


def make_window(h: BlockHamiltonian, e0: float, upper: float,
                delta0: Optional[float] = None,
                envelope: Optional[GevreyEnvelope] = None) -> SpectralWindow:
    """Window [e0, E0] with delta0 defaulting to 0.1 (E0 - e0) and computed c0."""
    if delta0 is None:
        delta0 = 0.1 * (upper - e0)
        if delta0 <= 0:
            raise ValueError("degenerate window: provide delta0 explicitly")
    c0 = 0.0
    has_w = bool(h.couplings) or bool(np.any(h.symmetric_part))
    if envelope is not None and has_w:
        c0 = estimate_c0(envelope.b, envelope.a, envelope.zeta, h.grid)
    return SpectralWindow(e0=float(e0), E0=float(upper), delta0=float(delta0),
                          c0=float(c0))


@dataclass
class SpectralProjection:
    """Eigenpairs of H with eigenvalue in the closed window [e0, E0]."""

    window: SpectralWindow
    eigensystem: EigenSystem
    selector: np.ndarray          # indices into the eigensystem inside the window
    rank_deficient_flag: bool = False

    @property
    def rank(self) -> int:
        return self.selector.size

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem.eigenvalues[self.selector]

    @property
    def basis(self) -> np.ndarray:
        """Flat h-orthonormal window eigenvectors, shape (dim, rank)."""
        return self.eigensystem.eigenvectors[:, self.selector]

    @property
    def grid(self) -> RadialGrid:
        return self.eigensystem.grid

    @property
    def channels(self) -> np.ndarray:
        return self.eigensystem.channels

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Project a flat (n_ch, n_r) amplitude array onto the window subspace."""
        flat = np.asarray(u).reshape(-1)
        v = self.basis
        coeff = self.grid.h * (v.conj().T @ flat)
        return (v @ coeff).reshape(np.asarray(u).shape)

    def idempotency_error(self) -> float:
        """|P^2 - P| = |P^* - P| on the retained basis (Gram defect norm)."""
        if self.rank == 0:
            return 0.0
        v = self.basis
        g = self.grid.h * (v.conj().T @ v)
        return float(np.linalg.norm(g @ g - g, 2))

    def channel_commutator_norm(self, j: int) -> float:
        """|P_j E_I - E_I P_j| computed exactly on the joint range."""
        if self.rank == 0:
            return 0.0
        c = self.eigensystem.channels.tolist().index(j)
        n = self.grid.n_r
        q = np.sqrt(self.grid.h) * self.basis          # l2-orthonormal columns
        qj = np.zeros_like(q)
        qj[c * n:(c + 1) * n] = q[c * n:(c + 1) * n]   # P_j applied to them
        # The commutator C = (P_j Q) Q^H - Q (P_j Q)^H lives on span[Q, P_j Q];
        # represent it there and take the largest singular value.
        u, _ = np.linalg.qr(np.concatenate([q, qj], axis=1))
        a = (u.conj().T @ qj) @ (q.conj().T @ u)
        s = np.linalg.svd(a - a.conj().T, compute_uv=False)
        return float(s[0]) if s.size else 0.0


def spectral_projection(h: BlockHamiltonian, window: SpectralWindow,
                        eigensystem: Optional[EigenSystem] = None) -> SpectralProjection:
    """Spectral projection onto [e0, E0]; boundary ties enter together."""
    if eigensystem is None:
        eigensystem = diagonalize(h, window_upper=window.E0)
    vals = eigensystem.eigenvalues
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    tie = 1e-12 * scale
    inside = np.flatnonzero((vals >= window.e0 - tie) & (vals <= window.E0 + tie))
    # a degenerate cluster straddling E0 enters as a whole
    if inside.size:
        last = inside[-1]
        while last + 1 < vals.size and vals[last + 1] - vals[last] <= tie:
            last += 1
        inside = np.arange(inside[0], last + 1)
    flag = inside.size == 0
    if flag:
        warnings.warn("spectral window selected no eigenvalues (rank-0 projection)",
                      stacklevel=2)
    return SpectralProjection(window=window, eigensystem=eigensystem,
                              selector=inside, rank_deficient_flag=flag)


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
    lam_min = scipy.linalg.eigh_tridiagonal(
        diag - xi * vals, off, eigvals_only=True, select="i",
        select_range=(0, 0))[0]
    return float(max(0.0, -lam_min))


def channel_projection_norm(p: SpectralProjection, j: int,
                            region: Tuple[float, float],
                            radial_weight=None) -> float:
    """Operator norm of 1_region(|x|) P_j E_I, optionally with a radial weight.

    Computed as the largest singular value of the masked (and weighted) rows
    of the window eigenvector block for channel j.
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
    c = p.eigensystem.channels.tolist().index(j)
    n = grid.n_r
    rows = np.sqrt(grid.h) * p.basis[c * n:(c + 1) * n][mask]
    if radial_weight is not None:
        rows = np.asarray(radial_weight(grid.nodes[mask]), dtype=float)[:, None] * rows
    s = np.linalg.svd(rows, compute_uv=False)
    return float(s[0]) if s.size else 0.0
