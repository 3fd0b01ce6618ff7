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
value range holds few eigenvalues or none.  The kernel calls the C
functions of ``scipy.linalg.cython_lapack`` through ctypes, which releases
the GIL for the call, with each thread's arguments and work arrays at fixed
addresses.  Channels are independent, so :func:`channel_map` runs the
kernel on many of them at once, one thread per CPU in the process's
affinity mask, and returns their results in channel order.  The window
solve of an uncoupled H and the mobility scan send it only their LAPACK
work (:func:`coarse_eigenpairs`, eigenvalue solves) and take everything
after it on the calling thread, so the results are the same bits for any
number of threads: the window solve takes the Rayleigh-Ritz step
(:func:`rayleigh_ritz`) on every channel's pairs, and the mobility scan
only on the base box's low-band pairs, whose values it writes, reading
the vectors that feed only participation widths as ``?stein`` returns
them.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack as _cython_lapack

from .flux import FluxProfile

__all__ = ["RadialGrid", "ChannelOperator", "build_grid",
           "build_channel_operator", "build_channel_operators",
           "tridiagonal_eigenpairs", "coarse_eigenpairs", "rayleigh_ritz",
           "tridiagonal_matvec", "channel_map", "channel_workers",
           "truncation_margin", "check_truncation"]

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
        of ``value_range``, solved as :func:`tridiagonal_eigenpairs` solves
        them (Ritz values) but without the T V product.

        Returns (eigenvalues, u): eigenvalues ascending and ``u`` the flat
        eigenvectors as columns normalized to sum |u_i|^2 h = 1; the weighted
        representation is u / sqrt(r).
        """
        d, e = self.diagonal, self.off_diagonal
        vals, vecs, _ = rayleigh_ritz(d, e, *coarse_eigenpairs(d, e, *value_range),
                                      residual=False)
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


def _bind_lapack(name: str, arguments: str):
    """The C function ``name`` of ``scipy.linalg.cython_lapack`` as a ctypes
    function of pointer arguments, which releases the GIL while it runs.

    ``arguments`` spells the expected C signature, one letter per argument
    (``c`` char *, ``i`` int *, ``d`` double *); a capsule whose signature
    differs raises ``ImportError``.
    """
    types = {"c": "char *", "i": "int *",
             "d": "__pyx_t_5scipy_6linalg_13cython_lapack_d *"}
    expected = f"void ({', '.join(types[a] for a in arguments)})"
    capsule = _cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    signature = get_name(capsule)
    if signature.decode() != expected:
        raise ImportError(f"scipy.linalg.cython_lapack.{name} has signature "
                          f"{signature.decode()!r}, expected {expected!r}")
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(arguments))
    return prototype(get_pointer(capsule, signature))


_dstebz = _bind_lapack("dstebz", "cciddiidddiidiidii")
_dstein = _bind_lapack("dstein", "iddidiididiii")


class _Workspace(threading.local):
    """One thread's ``?stebz``/``?stein`` arguments at fixed addresses: the
    scalars, d and e, the values, the eigenvectors and the work arrays, and
    the two argument lists of addresses that point at them.  A call copies d
    and e in, e right after d, sets the address of e and copies its results
    out."""

    def __init__(self):
        self.range, self.order = ctypes.c_char(), ctypes.c_char()
        self.n, self.il, self.iu, self.m, self.nsplit, self.info = (
            ctypes.c_int() for _ in range(6))
        self.vl, self.vu, self.tol = ctypes.c_double(), ctypes.c_double(), ctypes.c_double()
        self.size = 0
        self.z = np.empty(0)

    def grow(self, n: int) -> None:
        """Room for tridiagonals of up to n rows."""
        self.size = n
        self.floats = np.empty(8 * n)               # d and e (2n), w, work (5n)
        self.ints = np.empty(6 * n, dtype=np.intc)  # iblock, isplit, iwork (3n), ifail
        self.w = self.floats[2 * n:3 * n]
        at = ctypes.addressof
        self.d_at, step = self.floats.ctypes.data, n * self.floats.itemsize
        w, work = self.d_at + 2 * step, self.d_at + 3 * step
        ints, step = self.ints.ctypes.data, n * self.ints.itemsize
        iblock, isplit, iwork, ifail = ints, ints + step, ints + 2 * step, ints + 5 * step
        self.stebz_args = [
            at(self.range), at(self.order), at(self.n), at(self.vl), at(self.vu),
            at(self.il), at(self.iu), at(self.tol), self.d_at, None, at(self.m),
            at(self.nsplit), w, iblock, isplit, work, iwork, at(self.info)]
        self.stein_args = [
            at(self.n), self.d_at, None, at(self.m), w, iblock, isplit, self.z.ctypes.data,
            at(self.n), work, iwork, ifail, at(self.info)]

    def grow_vectors(self, size: int) -> None:
        """Room for ``size`` eigenvector entries."""
        self.z = np.empty(size)
        self.stein_args[7] = self.z.ctypes.data


_workspace = _Workspace()


def _tridiagonal_eigh(d, e, select: str, bounds, tol: float = 0.0, vectors: bool = False):
    """Eigenvalues, or eigenpairs, of the symmetric tridiagonal T = (d, e)
    in a slice: ``select`` "v" takes the values in the half-open interval
    (lo, hi] of ``bounds``, "i" the 0-based indices lo..hi.

    One ``?stebz`` bisection to absolute tolerance ``tol`` (0 means LAPACK's
    default, eps |T|_1) and, for eigenpairs, one ``?stein`` inverse
    iteration, called with the arguments ``scipy.linalg.eigh_tridiagonal``
    passes them, so its values and vectors come back bit for bit, without
    its per-call argument handling.  The calls go through the C pointers of
    ``scipy.linalg.cython_lapack`` and release the GIL, so threads that run
    this kernel on different channels bisect in parallel; each thread keeps
    its arguments in its own workspace.  Values are ascending; eigenvectors
    are the columns of the second result.  Non-finite entries and an empty
    or out-of-range slice raise ``ValueError`` before LAPACK is called,
    whose error handler would print to stderr; a LAPACK error raises
    ``ValueError`` and a failed convergence ``LinAlgError``.
    """
    n = d.size
    if e.size != n - 1:
        raise ValueError(f"d ({n}) must have one more entry than e ({e.size})")
    ws = _workspace
    if n > ws.size:
        ws.grow(n)
    de = ws.floats[:2 * n - 1]
    de[:n], de[n:] = d, e
    if not np.isfinite(de).all():
        raise ValueError("tridiagonal entries must be finite")
    lo, hi = bounds
    if select == "v":
        if not lo < hi:
            raise ValueError(f"value range ({lo}, {hi}] is empty")
        ws.range.value, ws.vl.value, ws.vu.value = b"V", float(lo), float(hi)
    else:
        if not 0 <= lo <= hi < n:
            raise ValueError(f"index range {lo}..{hi} out of 0..{n - 1}")
        ws.range.value, ws.il.value, ws.iu.value = b"I", int(lo) + 1, int(hi) + 1
    if n == 1:                      # as eigh_tridiagonal: no LAPACK call
        w = d[:1] if select == "i" or lo < d[0] <= hi else d[:0]
        return (w.copy(), np.ones((1, w.size))) if vectors else w.copy()
    ws.n.value, ws.tol.value = n, tol
    ws.order.value = b"B" if vectors else b"E"
    ws.stebz_args[9] = e_at = ws.d_at + 8 * n     # e follows d's n doubles
    _dstebz(*ws.stebz_args)
    _check_info(ws.info.value, "?stebz")
    m = ws.m.value
    if not vectors:
        return ws.w[:m].copy()
    if n * m > ws.z.size:
        ws.grow_vectors(n * m)
    if m:
        ws.stein_args[2] = e_at
        _dstein(*ws.stein_args)
        _check_info(ws.info.value, "?stein")
    w, v = ws.w[:m], ws.z[:n * m].reshape(m, n).T   # v: Fortran order, n x m
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
    only an approximate shift (:func:`coarse_eigenpairs`).  A Rayleigh-Ritz
    step on the ``?stein`` vectors V then restores full accuracy
    (:func:`rayleigh_ritz`).  Returns (values, V, T V), values ascending and
    V orthonormal, so a caller reads the residual T V - V diag(values)
    without another product.
    """
    return rayleigh_ritz(diagonal, off_diagonal,
                         *coarse_eigenpairs(diagonal, off_diagonal, lo, hi))


def coarse_eigenpairs(diagonal, off_diagonal, lo: float, hi: float):
    """The LAPACK half of :func:`tridiagonal_eigenpairs`: the values in
    (lo, hi] bisected to ``COARSE_TOL max(1, |hi|)`` and their ``?stein``
    vectors, as (values, V).  It runs nothing but the kernel, so
    :func:`channel_map` can run it on a worker thread."""
    return _tridiagonal_eigh(diagonal, off_diagonal, "v", (lo, hi),
                             tol=COARSE_TOL * max(1.0, abs(hi)), vectors=True)


def rayleigh_ritz(diagonal, off_diagonal, vals, v, residual: bool = True):
    """The Rayleigh-Ritz step of :func:`tridiagonal_eigenpairs` on the
    ``?stein`` vectors V of :func:`coarse_eigenpairs`: the eigenpairs of
    V^T T V rotate V into Ritz vectors, whose Ritz values are accurate to
    the square of the vectors' error (Parlett, The Symmetric Eigenvalue
    Problem, ch. 11), and a near-degenerate cluster that ``?stein``
    orthogonalized is resolved in its span.  Returns (values, V, T V), the
    last None unless ``residual``.
    """
    if not vals.size:               # nothing in (lo, hi]: no product, no Ritz step
        return vals, v, v.copy() if residual else None
    tv = tridiagonal_matvec(diagonal, off_diagonal, v)
    g = v.T @ tv
    vals, q = np.linalg.eigh(0.5 * (g + g.T))
    return vals, v @ q, tv @ q if residual else None


def channel_workers() -> int:
    """The most threads :func:`channel_map` deals one batch to: one per CPU
    in the process's affinity mask.  A batch of fewer tasks uses one thread
    per task."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool = None    # (threads, executor) of channel_map, made at first use


def _forget_pool() -> None:
    global _pool
    _pool = None                    # a forked child has none of the threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _channel_pool(threads: int):
    """The one executor of :func:`channel_map`, with ``threads`` threads;
    it is made at the first parallel call and made again only when the
    affinity mask changes size."""
    global _pool
    if _pool is None or _pool[0] != threads:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = threads, concurrent.futures.ThreadPoolExecutor(threads, "fluxlab-channel")
    return _pool[1]


def channel_map(fn, tasks) -> list:
    """[fn(task) for task in tasks], the tasks dealt round-robin into one
    chunk per thread, at most :func:`channel_workers` of them: chunk 0 runs
    on the caller and each other chunk is one submission to the pool.  The
    results come back in task order, and an exception of any chunk is
    raised here once every chunk has finished.  ``fn`` should spend its
    time in code that releases the GIL, such as :func:`_tridiagonal_eigh`;
    one worker gives the plain list.
    """
    tasks = list(tasks)
    threads = channel_workers() - 1
    workers = min(threads + 1, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    pool = _channel_pool(threads)
    futures = [pool.submit(_map_chunk, fn, tasks[k::workers]) for k in range(1, workers)]
    try:
        chunks = [_map_chunk(fn, tasks[::workers])]
    finally:
        concurrent.futures.wait(futures)
    chunks += [future.result() for future in futures]
    results = [None] * len(tasks)
    for k, chunk in enumerate(chunks):
        results[k::workers] = chunk
    return results


def _map_chunk(fn, tasks) -> list:
    return [fn(task) for task in tasks]


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
