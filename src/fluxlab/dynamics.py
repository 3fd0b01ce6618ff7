"""Time evolution of window-projected states and moment diagnostics.

States are stored as complex amplitude arrays indexed (channel, radial node).
Propagation is an exact rotation in the window eigenbasis (the initial state
is projected into the window, so no time-integration error enters).  The
phased coefficients exp(-i lambda_k t) c_k of all recorded times form one
(rank, n_t) block, and :func:`fluxlab.spectral.block_product` multiplies it
into the basis block by block: a channel-pure basis only touches the rows of
each eigenvector's own channel, and a real basis is never cast to complex.
Each recorded state is one contiguous row of the product, so the
observables read |u|^2 from contiguous memory.  The recorded observables are

    x-moment:  <|x|^nu>(t)  = sum_{j,i} r_i^nu |u_{j,i}(t)|^2 h
    J-moment:  <|J|^beta>(t) = sum_j |j|^beta ||P_j u(t)||^2

with the h-weighted norm ||u||^2 = sum |u_{j,i}|^2 h of the flat
representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .flux import FluxProfile, classical_region
from .grid import RadialGrid, build_channel_operators
from .spectral import BlockHamiltonian, SpectralProjection, block_product
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


def propagate(p: SpectralProjection, state: WaveState,
              times: Sequence[float]) -> list[WaveState]:
    """phi(t) = sum_k exp(-i lambda_k t) <v_k, phi0> v_k for each requested t.

    One blockwise product serves all times; each state is a contiguous row
    of its (n_t, dim) result.
    """
    blocks = p.blocks
    coeff = p.grid.h * block_product(blocks, state.flat_vector(), adjoint=True)
    times = np.asarray(times, dtype=float)
    phased = np.exp(-1j * p.eigenvalues[:, None] * (times - state.time)[None, :]) \
        * coeff[:, None]
    u = block_product(blocks, phased.T)
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


def record_observables(states: Sequence[WaveState], nu: float,
                       beta: float) -> ObservableSeries:
    """moment_x, moment_j, norm2 and channel_norm2 of each state, bitwise,
    from one |u|^2 per state, read while that state is in cache."""
    h = states[0].grid.h
    wx, wj = _x_weight(states[0].grid, nu), _j_weight(states[0].channels, beta)
    x_moment, norms, cn = [], [], []
    for s in states:
        d = s.density()
        cn.append(h * np.sum(d, axis=1))
        x_moment.append(float(h * np.sum(wx[None, :] * d)))
        norms.append(float(h * np.sum(d)))
    cn = np.stack(cn)
    return ObservableSeries(
        times=np.array([s.time for s in states]), x_moment=np.array(x_moment),
        j_moment=np.array([float(np.sum(wj * c)) for c in cn]), norms=np.array(norms),
        channel_norm2=cn, channels=states[0].channels, nu=nu, beta=beta)


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
        # the bound holds with exponent 0
        return GrowthFitReport(fitted_exponent=0.0, bound=bound, slack=slack,
                               passed=True, reliable=True, flat=True,
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


def participation_width(u: np.ndarray, h: float) -> float:
    """Participation length (sum |u|^2 h)^2 / sum |u|^4 h of a radial vector."""
    p2 = float(np.sum(np.abs(u) ** 2) * h)
    p4 = float(np.sum(np.abs(u) ** 4) * h)
    return p2 ** 2 / p4 if p4 > 0 else 0.0


@dataclass
class MobilityChannelRecord:
    j: int
    eigenvalue: float
    decay_rate: float = np.nan
    eigenvalue_shift: float = np.nan


@dataclass
class MobilityReport:
    lam: float
    localized: list = field(default_factory=list)
    extended_width_ratios: list = field(default_factory=list)
    empty_low_band: bool = False
    empty_high_band: bool = False

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


def _eigen_decay_rate(u: np.ndarray, grid: RadialGrid, r_start: float) -> float:
    """Fitted exponential decay rate of |u| on nodes beyond r_start where
    |u| exceeds 1e-12 max |u|."""
    mag = np.abs(u)
    sel = (grid.nodes > r_start) & (mag > 1e-12 * mag.max())
    if np.count_nonzero(sel) < 4:
        return np.nan
    slope, _, _ = decay_rate_fit(grid.nodes[sel], mag[sel])
    return -slope


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
    per box for all channels.

    An ``eigenvalue_shift`` compares eigenvalues that Sturm-sequence
    bisection (``?stebz``) finds to LAPACK's default tolerance eps |T|_1 of
    the channel's tridiagonal T, so shifts below that tolerance are rounding,
    not box sensitivity.  V_j near r = 0 makes |T|_1 large: about 1e6 at
    |j| = 20 with n_r = 800 and r_max = 32, a tolerance of about 2e-10.
    """
    profile = FluxProfile.linear(lam)
    report = MobilityReport(lam=lam)
    # grow the boxes at exactly the same spacing so eigenvalue shifts measure
    # the wall, not a re-discretization
    n_big = int(round(grid.n_r * box_growth))
    grid_big = RadialGrid(n_r=n_big, r_max=n_big * grid.h)
    n_double = 2 * grid.n_r
    grid_double = RadialGrid(n_r=n_double, r_max=n_double * grid.h)
    channels = np.arange(-int(j_max), int(j_max) + 1)
    boxes = zip(*(build_channel_operators(profile, channels, g)
                  for g in (grid, grid_big, grid_double)))

    for op, op_big, op2 in boxes:
        j = op.j
        vals, u, _ = op.eigenpairs(value_range=low_band)
        if vals.size:
            vals_big = op_big.eigenvalues(
                value_range=(low_band[0] - 0.05, low_band[1] + 0.05))
            for idx in range(vals.size):
                region = classical_region(profile, j, float(vals[idx]), grid)
                r_hi = region.interval[1] if not region.empty else 0.0
                rate = _eigen_decay_rate(u[:, idx], grid, r_hi)
                shift = float(np.min(np.abs(vals_big - vals[idx]))) \
                    if vals_big.size else np.inf
                report.localized.append(MobilityChannelRecord(
                    j=j, eigenvalue=float(vals[idx]), decay_rate=rate,
                    eigenvalue_shift=shift))

        vals, u, _ = op.eigenpairs(value_range=high_band)
        if vals.size:
            widths = [participation_width(u[:, idx], grid.h)
                      for idx in range(vals.size)]
            vals2, u2, _ = op2.eigenpairs(value_range=high_band)
            if vals2.size:
                widths2 = [participation_width(u2[:, k], grid_double.h)
                           for k in range(vals2.size)]
                report.extended_width_ratios.append(
                    float(np.mean(widths2) / np.mean(widths)))

    report.empty_low_band = not report.localized
    report.empty_high_band = not report.extended_width_ratios
    return report
