"""Time evolution of window-projected states and moment diagnostics.

States are stored as complex amplitude arrays indexed (channel, radial node).
Propagation is an exact rotation in the window eigenbasis (the initial state
is projected into the window, so no time-integration error enters).  The
phased coefficients a(t) = exp(-i lambda_k t) c_k of all recorded times form
one (rank, n_t) block.  :func:`propagate` multiplies it into the basis block
by block with :func:`fluxlab.spectral.block_product`: a channel-pure basis
only touches the rows of each eigenvector's own channel, and a real basis is
never cast to complex.  The recorded observables

    x-moment:  <|x|^nu>(t)  = sum_{j,i} r_i^nu |u_{j,i}(t)|^2 h
    J-moment:  <|J|^beta>(t) = sum_j |j|^beta ||P_j u(t)||^2

with the h-weighted norm ||u||^2 = sum |u_{j,i}|^2 h of the flat
representation, are quadratic forms in a(t), so :func:`record_observables`
reads them from a(t) and triangular factors of the basis and forms no state:
||P_j u(t)||^2 = h ||R_j a(t)||^2 with R_j the QR factor of channel j's rows
of V, and likewise for the x-moment with the rows scaled by r^(nu/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .flux import FluxProfile, classical_region
from .grid import (RadialGrid, build_channel_operators, channel_map, coarse_eigenpairs,
                   rayleigh_ritz)
from .spectral import (BlockHamiltonian, SpectralProjection, basis_product,
                       block_product)
from .weights import decay_rate_fit

__all__ = [
    "WaveState", "ObservableSeries", "prepare_state", "propagate",
    "moment_x", "moment_j", "record_observables", "heisenberg_check",
    "HeisenbergReport", "bound_check_thm1", "Thm1Report",
    "growth_fit_thm2", "GrowthFitReport", "mobility_edge_scan",
    "MobilityReport", "participation_width", "geometric_times",
]


@dataclass
class WaveState:
    """Complex amplitudes over (channel, radial node) at one time."""

    grid: RadialGrid
    channels: np.ndarray
    amplitudes: np.ndarray        # (n_ch, n_r) complex, flat representation u
    time: float = 0.0

    def density(self) -> np.ndarray:
        """|u|^2 per (channel, radial node)."""
        return np.abs(self.amplitudes) ** 2

    def norm2(self) -> float:
        return float(self.grid.h * np.sum(self.density()))

    def channel_norm2(self) -> np.ndarray:
        return self.grid.h * np.sum(self.density(), axis=1)

    def flat_vector(self) -> np.ndarray:
        return self.amplitudes.reshape(-1)


def _gaussian_seed(grid: RadialGrid, channels: np.ndarray, j0: float, r0: float,
                   width_j: float, width_r: float) -> np.ndarray:
    jj = channels[:, None].astype(float)
    rr = grid.nodes[None, :]
    return np.exp(-0.5 * ((jj - j0) / width_j) ** 2
                  - 0.5 * ((rr - r0) / width_r) ** 2).astype(complex)


def prepare_state(p: SpectralProjection, seed) -> WaveState:
    """Project a seed into the window subspace and normalize.

    ``seed`` is a dict: {'kind': 'eigenvector', 'index': k} picks the k-th
    window eigenvector; {'kind': 'gaussian', 'j0', 'r0', 'width_j',
    'width_r'} a bump in (j, r); {'kind': 'channel_bump', 'j', 'r0',
    'width_r'} a single-channel radial bump.  Raises if the projected seed
    has norm below 1e-12.
    """
    if p.rank == 0:
        raise ValueError("cannot prepare a state from a rank-0 projection")
    grid, channels = p.grid, p.channels
    kind = seed["kind"]
    if kind == "eigenvector":
        k = int(seed["index"])
        if not 0 <= k < p.rank:
            raise IndexError(f"eigenvector index {k} out of range (rank {p.rank})")
        amp = block_product(p.blocks, np.eye(1, p.rank, k)[0])     # column k
        return WaveState(grid, channels, amp.reshape(len(channels), -1).astype(complex), 0.0)
    if kind == "gaussian":
        raw = _gaussian_seed(grid, channels, seed["j0"], seed["r0"],
                             seed.get("width_j", 2.0), seed.get("width_r", 1.0))
    elif kind == "channel_bump":
        raw = np.zeros((len(channels), grid.n_r), dtype=complex)
        c = channels.tolist().index(int(seed["j"]))
        wr = seed.get("width_r", 1.0)
        raw[c] = np.exp(-0.5 * ((grid.nodes - seed["r0"]) / wr) ** 2)
    else:
        raise ValueError(f"unknown seed kind {kind!r}")
    projected = p.apply(raw)
    norm = np.sqrt(grid.h * np.sum(np.abs(projected) ** 2))
    if norm < 1e-12:
        raise ValueError("projected seed has norm < 1e-12 "
                         "(seed is orthogonal to the window subspace)")
    return WaveState(grid, channels, projected / norm, 0.0)


def _phased_coefficients(p: SpectralProjection, state: WaveState,
                         times: np.ndarray) -> np.ndarray:
    """The (rank, n_t) block exp(-i lambda_k (t - t0)) c_k, c = h V^H phi0,
    for V the window basis in :attr:`SpectralProjection.blocks`."""
    coeff = p.grid.h * block_product(p.blocks, state.flat_vector(), adjoint=True)
    return np.exp(-1j * p.eigenvalues[:, None] * (times - state.time)[None, :]) \
        * coeff[:, None]


def propagate(p: SpectralProjection, state: WaveState,
              times: Sequence[float]) -> list[WaveState]:
    """phi(t) = sum_k exp(-i lambda_k t) <v_k, phi0> v_k for each requested t.

    One blockwise product serves all times; each state is a contiguous row
    of its (n_t, dim) result.
    """
    times = np.asarray(times, dtype=float)
    u = block_product(p.blocks, _phased_coefficients(p, state, times).T)
    shape = (len(p.channels), p.grid.n_r)
    return [WaveState(p.grid, p.channels, u[k].reshape(shape), float(t))
            for k, t in enumerate(times)]


def moment_x(state: WaveState, nu: float) -> float:
    """<|x|^nu> = sum r_i^nu |u_{j,i}|^2 h."""
    w = _x_weight(state.grid, nu)
    return float(state.grid.h * np.sum(w[None, :] * state.density()))


def moment_j(state: WaveState, beta: float) -> float:
    """<|J|^beta> = sum_j |j|^beta ||P_j u||^2 (the j = 0 term is 0 for beta > 0)."""
    return float(np.sum(_j_weight(state.channels, beta) * state.channel_norm2()))


def _x_weight(grid: RadialGrid, nu: float) -> np.ndarray:
    if nu < 0:
        raise ValueError("moment_x requires nu >= 0")
    return grid.nodes ** nu if nu else np.ones_like(grid.nodes)


def _j_weight(channels: np.ndarray, beta: float) -> np.ndarray:
    if beta < 0:
        raise ValueError("moment_j requires beta >= 0")
    return np.abs(channels).astype(float) ** beta if beta else np.ones(len(channels))


@dataclass
class ObservableSeries:
    """Moments and channel norms recorded along a propagation."""

    times: np.ndarray
    x_moment: np.ndarray
    j_moment: np.ndarray
    norms: np.ndarray
    channel_norm2: np.ndarray     # (n_t, n_ch)
    channels: np.ndarray
    nu: float
    beta: float


def geometric_times(t0: float, t1: float, n: int) -> np.ndarray:
    if not (0 < t0 < t1) or n < 2:
        raise ValueError("geometric_times requires 0 < t0 < t1 and n >= 2")
    return np.geomspace(t0, t1, n)


def record_observables(p: SpectralProjection, state: WaveState,
                       times: Sequence[float], nu: float,
                       beta: float) -> ObservableSeries:
    """moment_x, moment_j, norm2 and channel_norm2 of the states
    :func:`propagate` would return, read from the phased coefficients a(t)
    without forming a state.

    Each basis block's channel rows V_j and their r^(nu/2)-scaled copies are
    QR-factored in one stacked call, so ||P_j u(t)||^2 = h ||R_j a(t)||^2 and
    the x-moment is h sum_j ||R^x_j a(t)||^2: every entry is a sum of
    squares, never below zero.  The cost is rows k^2 per block of k columns
    plus n_ch k^2 n_t, against the n_t rows k of forming the states.
    """
    grid, channels, n_r = p.grid, p.channels, p.grid.n_r
    times = np.array(times, dtype=float)
    a = _phased_coefficients(p, state, times)
    x_scale = np.sqrt(_x_weight(grid, nu))[:, None]
    cn = np.zeros((len(channels), times.size))
    x_moment = np.zeros(times.size)
    for b in p.blocks:
        if not b.cols.size:
            continue                        # its channels hold no weight
        k = b.cols.size
        v = b.vectors.T.reshape(k, -1, n_r).transpose(1, 2, 0)   # (channel, node, col)
        r = np.linalg.qr(np.concatenate([v, x_scale * v]), mode="r")
        ra = basis_product(r, a[b.cols]).view(float)   # re, im interleaved
        ra = np.sum(np.square(ra, out=ra), axis=1)
        sq = ra[:, 0::2] + ra[:, 1::2]                  # (2 n_ch, n_t)
        first, n_ch = b.rows.start // n_r, v.shape[0]
        cn[first:first + n_ch] = grid.h * sq[:n_ch]
        x_moment += grid.h * np.sum(sq[n_ch:], axis=0)
    return ObservableSeries(
        times=times, x_moment=x_moment, j_moment=_j_weight(channels, beta) @ cn,
        norms=np.sum(cn, axis=0), channel_norm2=cn.T, channels=channels,
        nu=nu, beta=beta)


@dataclass
class HeisenbergReport:
    max_residual: float


def heisenberg_check(states: Sequence[WaveState], h: BlockHamiltonian) -> HeisenbergReport:
    """Channel-norm balance against the time-integrated commutator with W.

    Checks ||P_j phi(t)||^2 = ||P_j phi(0)||^2
           + int_0^t (-2 Im <phi(s), W P_j phi(s)>) ds
    with the integral by composite trapezoid on the (uniform) recording grid.
    Only the nonsymmetric coupling blocks contribute to the integrand.
    """
    times = np.array([s.time for s in states])
    dts = np.diff(times)
    if times.size < 2 or not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ValueError("heisenberg_check needs a uniform time grid")
    dt = float(dts[0])
    n_ch = len(states[0].channels)
    h_grid = states[0].grid.h

    # integrand g_j(s) = -2 Im <phi, W P_j phi>; each coupling band m pairs
    # source channel j with target j + m antisymmetrically, so one pass per
    # band covers both orientations.
    g = np.zeros((times.size, n_ch))
    for k, s in enumerate(states):
        u = s.amplitudes
        for m, w in h.couplings.items():
            b = h_grid * np.sum(np.conj(u[m:]) * w[None, :] * u[:-m], axis=1)
            g[k, :-m] += -2.0 * b.imag
            g[k, m:] += 2.0 * b.imag
    cn = np.stack([s.channel_norm2() for s in states])
    lhs = cn - cn[0][None, :]
    rhs = np.zeros_like(lhs)
    rhs[1:] = np.cumsum(0.5 * (g[1:] + g[:-1]) * dt, axis=0)
    return HeisenbergReport(max_residual=float(np.abs(lhs - rhs).max()))


@dataclass
class Thm1Report:
    sup_ratio: float
    ratios: np.ndarray
    first_quartile_mean: float
    last_quartile_mean: float
    trend_ok: bool
    passed: bool


def bound_check_thm1(series: ObservableSeries) -> Thm1Report:
    """Boundedness of <|x|^nu> / (|phi|^2 + <|J|^{zeta nu / sigma_-}>).

    The series must have been recorded with beta = zeta * nu / sigma_-.  The
    trend verdict passes iff the mean ratio over the last quartile of
    recorded times is at most 1.1 times the mean over the first quartile.
    """
    denom = series.norms[0] + series.j_moment
    ratios = series.x_moment / denom
    n = ratios.size
    q = max(1, n // 4)
    first = float(np.mean(ratios[:q]))
    last = float(np.mean(ratios[-q:]))
    trend_ok = last <= 1.1 * first
    sup = float(np.max(ratios))
    return Thm1Report(sup_ratio=sup, ratios=ratios, first_quartile_mean=first,
                      last_quartile_mean=last, trend_ok=trend_ok,
                      passed=bool(np.isfinite(sup) and trend_ok))


@dataclass
class GrowthFitReport:
    fitted_exponent: float
    bound: float
    slack: float
    passed: bool
    reliable: bool
    flat: bool
    kind: str                    # 'power' or 'log_power'
    n_points: int


def growth_fit_thm2(series: ObservableSeries, decay_kind: str,
                    zeta: float, sigma_plus: float,
                    p: float = np.nan, s: float = np.nan,
                    slack: float = 0.1,
                    baseline: Optional[float] = None) -> GrowthFitReport:
    """Fit the growth of <|J|^beta>(t) - <|J|^beta>(0) against the theorem bound.

    For power-law decay of the nonsymmetric part (p > sigma_+ / zeta) the
    increment is fitted as t^x and compared with gamma * beta,
    gamma = sigma_+ / (zeta p - sigma_+).  For stretched-exponential decay it
    is fitted as (ln t)^x and compared with theta * beta,
    theta = 1 / min(zeta, zeta s / sigma_+).  Pass iff x <= bound + slack.

    ``baseline`` is the t = 0 moment of the initial state; when the series
    starts at t > 0 pass it explicitly, otherwise the first recorded value is
    used and the small-t points carry a subtraction bias.
    """
    beta = series.beta
    if decay_kind == "power":
        if not p > sigma_plus / zeta:
            raise ValueError("power decay needs p > sigma_plus / zeta")
        bound = beta * sigma_plus / (zeta * p - sigma_plus)
        kind = "power"
    elif decay_kind == "stretched_exponential":
        bound = beta / min(zeta, zeta * s / sigma_plus)
        kind = "log_power"
    else:
        raise ValueError(f"unknown decay kind {decay_kind!r}")

    if baseline is None:
        baseline = float(series.j_moment[0])
    incr = series.j_moment - baseline
    scale = max(series.norms[0], series.j_moment[0], 1.0)
    floor = 1e-9 * scale
    grew = incr > floor
    shrank = incr < -floor
    if not np.any(grew):
        # no measurable growth at any recorded time (localized or W_ns = 0):
        # the bound holds with exponent 0, but a moment that fell is no flat fit
        return GrowthFitReport(fitted_exponent=0.0, bound=bound, slack=slack,
                               passed=True, reliable=not np.any(shrank), flat=True,
                               kind=kind, n_points=0)

    # sign-flipping or non-monotone increments make the fit untrustworthy
    reliable = bool(not np.any(shrank)
                    and np.all(np.diff(series.j_moment) >= -floor))
    if kind == "power":
        x_axis = np.log(series.times)
        usable = grew & (series.times > 0)
    else:
        usable = grew & (np.log(series.times) > 0.25)
        x_axis = np.zeros_like(series.times)
        x_axis[usable] = np.log(np.log(series.times[usable]))
    if np.count_nonzero(usable) < 4:
        return GrowthFitReport(fitted_exponent=0.0, bound=bound, slack=slack,
                               passed=True, reliable=False, flat=True,
                               kind=kind, n_points=int(np.count_nonzero(usable)))
    fitted, _, _ = decay_rate_fit(x_axis[usable], incr[usable])
    passed = fitted <= bound + slack
    return GrowthFitReport(fitted_exponent=float(fitted), bound=float(bound),
                           slack=slack, passed=bool(passed), reliable=reliable,
                           flat=False, kind=kind,
                           n_points=int(np.count_nonzero(usable)))


def participation_width(u: np.ndarray, h: float):
    """Participation length (sum |u|^2 h)^2 / sum |u|^4 h of a radial vector
    (a float), or of each column of a 2-D array (an array); 0 for a zero
    vector.  Each column is summed as one contiguous row, so a column's
    width has the bits of that column's width alone."""
    mag = np.abs(np.ascontiguousarray(u.T))
    p2 = np.sum(mag ** 2, axis=-1) * h
    p4 = np.sum(mag ** 4, axis=-1) * h
    width = np.divide(p2 ** 2, p4, out=np.zeros_like(p2), where=p4 > 0)
    return float(width) if width.ndim == 0 else width


@dataclass
class MobilityChannelRecord:
    j: int
    eigenvalue: float
    decay_rate: float = np.nan
    eigenvalue_shift: float = np.nan
    shift_resolution: float = np.nan    # eps |T|_1 of the grown box's tridiagonal T


def _box_counts() -> dict:
    return dict.fromkeys(("base", "grown", "doubled"), 0)


@dataclass
class MobilityReport:
    lam: float
    localized: list = field(default_factory=list)
    extended_width_ratios: list = field(default_factory=list)
    empty_low_band: bool = False
    empty_high_band: bool = False
    # per box: tridiagonal solves, and the eigenvalues and eigenvectors they returned
    tridiagonal_solves: dict = field(default_factory=_box_counts)
    eigenvalues_computed: dict = field(default_factory=_box_counts)
    eigenvectors_computed: dict = field(default_factory=_box_counts)

    @property
    def min_decay_rate(self) -> float:
        """Smallest fitted rate; NaN rates (too few nodes to fit) are skipped,
        and the result is NaN only when every rate is NaN."""
        rates = [rec.decay_rate for rec in self.localized if not np.isnan(rec.decay_rate)]
        return float(min(rates)) if rates else np.nan

    @property
    def max_eigenvalue_shift(self) -> float:
        shifts = [rec.eigenvalue_shift for rec in self.localized]
        return float(max(shifts)) if shifts else np.nan

    @property
    def min_width_ratio(self) -> float:
        return float(min(self.extended_width_ratios)) if self.extended_width_ratios else np.nan

    def _count(self, box: str, vals, vectors: bool) -> None:
        self.tridiagonal_solves[box] += 1
        self.eigenvalues_computed[box] += vals.size
        self.eigenvectors_computed[box] += vals.size if vectors else 0


def _decay_rates(u: np.ndarray, nodes: np.ndarray, r_start: np.ndarray) -> list:
    """Fitted exponential decay rate of |u| for each column of u: minus the
    least-squares slope of log |u| against r over the nodes beyond that
    column's r_start where |u| exceeds 1e-12 of the column's max |u|, and
    ``np.nan`` for a column with fewer than 4 such nodes.  One masked pass
    over all columns: each sum runs over the selected nodes only."""
    mag = np.abs(u)
    sel = (nodes[:, None] > r_start[None, :]) & (mag > 1e-12 * mag.max(axis=0))
    count = np.count_nonzero(sel, axis=0)
    rates = [np.nan] * u.shape[1]
    fit = np.flatnonzero(count >= 4)
    if fit.size:
        # sel[:, fit] is Fortran-ordered, so each column is summed along itself
        # alone and its rate has the same bits in any set of columns
        sel, n = sel[:, fit], count[fit]
        x = np.where(sel, nodes[:, None], 0.0)
        y = np.log(np.where(sel, mag[:, fit], 1.0))     # log 1 = 0 off the mask
        dx = np.where(sel, x - np.sum(x, axis=0) / n, 0.0)
        dy = y - np.sum(y, axis=0) / n
        for k, slope in zip(fit, np.sum(dx * dy, axis=0) / np.sum(dx * dx, axis=0)):
            rates[k] = -float(slope)
    return rates


_PASS_SIZE = 1 << 13     # vector entries one array pass takes at once, 64 kB a temporary


def _columnwise(fn, arrays: list, h: float, *column_args: list) -> list:
    """``fn`` of the columns of each array in ``arrays``, flat vectors of
    unit sum |v|^2 taken to unit sum |v|^2 h, as one slice of what ``fn``
    returns per array.  ``fn(u, *args)`` maps the columns of u, with one
    entry of each of ``column_args`` per column, to one result per column,
    each column's independent of the others.  It is called once per block
    of consecutive arrays of at most ``_PASS_SIZE`` entries in all (or of
    one array alone), so its temporaries stay bounded; each array is
    dropped from ``arrays`` once read."""
    results, start = [], 0
    while start < len(arrays):
        stop, total = start + 1, arrays[start].size
        while stop < len(arrays) and total + arrays[stop].size <= _PASS_SIZE:
            total, stop = total + arrays[stop].size, stop + 1
        counts = [a.shape[1] for a in arrays[start:stop]]
        u = np.concatenate(arrays[start:stop], axis=1) / np.sqrt(h)
        arrays[start:stop] = [None] * (stop - start)
        out = fn(u, *(np.concatenate(args[start:stop]) for args in column_args))
        results += [out[end - n:end] for n, end in zip(counts, np.cumsum(counts).tolist())]
        start = stop
    return results


def mobility_edge_scan(lam: float, grid: RadialGrid, j_max: int,
                       low_band=(0.1, 0.8), high_band=(1.8, 2.2),
                       box_growth: float = 1.5) -> MobilityReport:
    """Localization diagnostics for linear flux Phi = lam r, W = 0.

    Eigenvalues below the edge lam^2 must come with exponentially decaying
    eigenfunctions (fitted rate beyond the classical region) and eigenvalues
    insensitive to growing r_max; states in the band above the edge must have
    participation widths that scale with the box, measured on a box twice
    as long.

    Each channel's tridiagonal solves compute only what a verdict reads:
    eigenpairs in (low_lo, low_hi] and in (high_lo, high_hi] on the base box,
    one solve per band, so the bands are independent of each other; only
    eigenvalues in (low_lo - 0.05, low_hi + 0.05] on the ``box_growth`` box,
    for channels with low-band states; eigenpairs in the high band on the
    doubled box, for channels with high-band states.  V_j is evaluated once
    per box for all channels.  A channel's decay rates come from one masked
    least-squares pass over its low-band eigenvectors, and its participation
    widths from one pass over each box's high-band eigenvectors.  The report
    counts the solves and the eigenvalues and eigenvectors each box returned.

    Every channel's solves in all three boxes run in one
    :func:`~fluxlab.grid.channel_map` batch over the CPUs, which runs only
    LAPACK (:func:`~fluxlab.grid.coarse_eigenpairs` and eigenvalue
    bisection).  The calling thread then reads the channels in order: it
    takes the Rayleigh-Ritz step on the base box's low-band pairs alone,
    since only their values are written and compared with the grown box,
    and keeps the high band's ``?stein`` vectors, on the base and the
    doubled box, as they are, since they feed nothing but participation
    widths; their Ritz values are never formed.  The decay fits and the
    widths are then array passes over many channels' columns at once, in
    bounded blocks (``_columnwise``), and each column's result has the bits
    of a pass over that column alone.  Only LAPACK runs on the pool, so the
    results are the same bits for any number of threads.

    Base-box low-band eigenvalues are Ritz values, accurate to about the
    residual (below 1e-12 on the benchmark grids).  The grown box's
    eigenvalues come from Sturm-sequence bisection (``?stebz``) to LAPACK's
    default tolerance eps |T|_1 of the channel's tridiagonal T, so an
    ``eigenvalue_shift`` below that tolerance is rounding, not box
    sensitivity; each record carries it as ``shift_resolution``.  V_j near
    r = 0 makes |T|_1 large: about 1e6 at |j| = 20 with n_r = 800 and
    r_max = 32, a tolerance of about 2e-10.

    Raises ``ValueError``, naming the argument, when a verdict could not
    fail: ``box_growth`` that leaves round(n_r box_growth) at or below n_r
    (no grown box, so every shift is 0 or no shift is defined), or a band
    (lo, hi] with lo >= hi.  A band below the spectrum is legal; it is
    simply empty.
    """
    n_big = int(round(grid.n_r * box_growth))
    if n_big <= grid.n_r:
        raise ValueError(f"box_growth = {box_growth:g} does not grow the box: "
                         f"round({grid.n_r} x {box_growth:g}) = {n_big} nodes, "
                         f"not more than n_r = {grid.n_r}")
    for name, (lo, hi) in (("low_band", low_band), ("high_band", high_band)):
        if not lo < hi:
            raise ValueError(f"{name} ({lo:g}, {hi:g}] is empty: it needs lo < hi")
    profile = FluxProfile.linear(lam)
    report = MobilityReport(lam=lam)
    # grow the boxes at exactly the same spacing so eigenvalue shifts measure
    # the wall, not a re-discretization
    grid_big = RadialGrid(n_r=n_big, r_max=n_big * grid.h)
    n_double = 2 * grid.n_r
    grid_double = RadialGrid(n_r=n_double, r_max=n_double * grid.h)
    channels = np.arange(-int(j_max), int(j_max) + 1)
    boxes = list(zip(*(build_channel_operators(profile, channels, g)
                       for g in (grid, grid_big, grid_double))))
    grown_range = (low_band[0] - 0.05, low_band[1] + 0.05)

    def solves(box):
        # one channel's LAPACK work in all three boxes; the grown and doubled
        # boxes only where the base box has states in the band they check
        op, op_big, op2 = box
        low = coarse_eigenpairs(op.diagonal, op.off_diagonal, *low_band)
        high = coarse_eigenpairs(op.diagonal, op.off_diagonal, *high_band)
        return (low, high,
                op_big.eigenvalues(value_range=grown_range) if low[0].size else None,
                coarse_eigenpairs(op2.diagonal, op2.off_diagonal, *high_band)
                if high[0].size else None)

    solved = channel_map(solves, boxes)
    lows, low_vectors, r_starts, highs, doubles = [], [], [], [], []
    for c, (op, _, _) in enumerate(boxes):
        low, high, vals_big, doubled = solved[c]
        solved[c] = None            # each channel's raw vectors go once read
        report._count("base", low[0], vectors=True)
        report._count("base", high[0], vectors=True)
        if low[0].size:
            report._count("grown", vals_big, vectors=False)
            vals, u, _ = rayleigh_ritz(op.diagonal, op.off_diagonal, *low, residual=False)
            r_start = []
            for val in vals:
                region = classical_region(profile, op.j, float(val), grid)
                r_start.append(region.interval[1] if not region.empty else 0.0)
            lows.append((c, vals, vals_big))
            low_vectors.append(u)
            r_starts.append(np.array(r_start))
        if high[0].size:
            report._count("doubled", doubled[0], vectors=True)
            if doubled[0].size:
                highs.append(high[1])
                doubles.append(doubled[1])

    wide = _columnwise(lambda u: participation_width(u, grid_double.h), doubles, grid_double.h)
    base = _columnwise(lambda u: participation_width(u, grid.h), highs, grid.h)
    report.extended_width_ratios = [float(np.mean(w) / np.mean(b)) for w, b in zip(wide, base)]
    decay_rates = _columnwise(lambda u, r_start: _decay_rates(u, grid.nodes, r_start),
                              low_vectors, grid.h, r_starts)
    for (c, vals, vals_big), rates in zip(lows, decay_rates):
        op_big = boxes[c][1]
        row_sums = np.abs(op_big.diagonal)          # |T|_1 = max row sum
        row_sums[:-1] += np.abs(op_big.off_diagonal)
        row_sums[1:] += np.abs(op_big.off_diagonal)
        resolution = float(np.finfo(float).eps * row_sums.max())
        shifts = np.min(np.abs(vals_big[None, :] - vals[:, None]), axis=1) \
            if vals_big.size else np.full(vals.size, np.inf)
        report.localized.extend(
            MobilityChannelRecord(j=op_big.j, eigenvalue=float(val), decay_rate=rate,
                                  eigenvalue_shift=float(shift),
                                  shift_resolution=resolution)
            for val, rate, shift in zip(vals, rates, shifts))

    report.empty_low_band = not report.localized
    report.empty_high_band = not report.extended_width_ratios
    return report
