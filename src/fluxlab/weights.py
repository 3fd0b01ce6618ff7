"""Channel-indexed weight sequences and tunnelling diagnostics.

Three explicit weight families drive the exponential-decay machinery:

- interior:  F_j(r) = |j|^{zeta(1 - 1/sigma_+)} (eps |j|^{zeta/sigma_+} - r)_+
             for |j| >= j0 + 1, zero otherwise;
- exterior:  G_j(r) = c [ r^{zeta sigma_-} - eta^{zeta sigma_-} (1+|j|)^zeta ]_+;
- mobility:  H_j(r) = delta1 (r - eta1 |j|)_+  (linear flux below the edge).

A weight sequence is admissible for the decay theorem when, with
E~ = E0 + c0 + delta0 and chi the indicator of the classically allowed set,

  (i)   (F_j')^2 <= V_j - E~ chi_j^perp      at every node and channel,
  (ii)  e^{F_j} stays bounded on the classically allowed set (here: F_j
        vanishes there),
  (iii) |F_j(r) - F_k(r)| <= (a/2) |j - k|^zeta for all retained pairs.

``build_weight`` extracts the parameters by scanning the grid for the best
constants satisfying (i)-(iii) instead of using the proofs' closed-form
choices, which are far from tight.  ``weight_validate`` re-checks the three
hypotheses pointwise, and ``twisted_gap_check`` verifies the resulting
coercivity bound on the symmetrized exponentially twisted operator: it has
no eigenvalue under a shift just below the threshold E0 + delta0/2.  Its
lowest eigenvalue and a certified lower bound on it come from
:func:`~fluxlab.spectral.lowest_eigenvalue`, the route that gives H's; a
bound at or above the shift settles the verdict, and otherwise a band
Cholesky factorization (:class:`~fluxlab.spectral.BandCholesky`) at the
shift decides it, completing exactly when no eigenvalue lies below.

All of these compare the table V_j(r_i) with E~.  Each consumer evaluates
the table once for all its channels (``FluxProfile.effective_potential``
with an array of channels), and the gap check reads chi from the table the
assembly kept (``BlockHamiltonian.potential``), so it classifies every node
as ``weight_validate`` does, ties V_j = E~ included.  A weight gives F and
|F'| on all channels in one call (``WeightSequence.evaluate``), and every
per-channel power comes from :func:`_powers`, so scans and weights agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
# not called here: bench/tracing.py patches and restores weights.splu by name
from scipy.sparse.linalg import splu  # noqa: F401

from .flux import FluxProfile
from .grid import RadialGrid
from .spectral import BandCholesky, BlockHamiltonian, SpectralProjection, \
    SpectralWindow, channel_projection_norm, lowest_eigenvalue

__all__ = [
    "WeightSequence", "build_weight", "WeightValidation", "weight_validate",
    "TwistedGapReport", "twisted_gap_check", "TunnellingSum",
    "tunnelling_interior_sum", "tunnelling_exterior_sum", "decay_rate_fit",
    "ForbiddenRegionReport", "forbidden_region_check",
]


@dataclass(frozen=True)
class WeightSequence:
    """One of the explicit weight families, with its extracted parameters."""

    kind: str                     # 'interior' | 'exterior' | 'mobility' | 'zero'
    zeta: float = 1.0
    eps: float = np.nan           # interior
    j0: Optional[int] = None      # interior
    sigma_plus: float = np.nan    # interior
    c: float = np.nan             # exterior
    eta: float = np.nan           # exterior
    sigma_minus: float = np.nan   # exterior
    delta1: float = np.nan        # mobility
    eta1: float = np.nan          # mobility

    def evaluate(self, channels: np.ndarray,
                 r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """F_j(r_i) and |F_j'(r_i)| (off the kink, which never sits on a node),
        each (n_channels, n_nodes): a column of per-channel factors per form."""
        r = np.asarray(r, dtype=float)
        aj = np.abs(np.asarray(channels, dtype=int))[:, None]
        if self.kind == "zero":
            return np.zeros((aj.size, r.size)), np.zeros((aj.size, r.size))
        if self.kind == "interior":
            amp = np.where(aj > self.j0,
                           _powers(aj, self.zeta * (1.0 - 1.0 / self.sigma_plus)), 0.0)
            reach = self.eps * _powers(aj, self.zeta / self.sigma_plus)
            return amp * np.clip(reach - r, 0.0, None), amp * (r < reach)
        if self.kind == "exterior":
            zs = self.zeta * self.sigma_minus
            thresh = self.eta ** zs * _powers(1.0 + aj, self.zeta)
            support = r > self.eta * _powers(1.0 + aj, 1.0 / self.sigma_minus)
            return (self.c * np.clip(r ** zs - thresh, 0.0, None),
                    self.c * zs * r ** (zs - 1.0) * support)
        if self.kind == "mobility":
            return (self.delta1 * np.clip(r - self.eta1 * aj, 0.0, None),
                    self.delta1 * (r > self.eta1 * aj))
        raise ValueError(f"unknown weight kind {self.kind!r}")


def _powers(base, p: float) -> np.ndarray:
    """float(b) ** p per entry: Python's scalar pow, from which numpy's array
    ``**`` may differ in the last bit, for every per-channel power here."""
    base = np.asarray(base)
    return np.array([float(b) ** p for b in base.ravel()]).reshape(base.shape)


def _interior_scan(profile: FluxProfile, e_tilde: float, grid: RadialGrid,
                   zeta: float, j_max: int, a: Optional[float]) -> Tuple[float, int]:
    """Best (eps, j0 <= 8) for the interior weight, from one V_j table.

    Channel |j| >= 1 admits the support (0, s_j), s_j its first node with
    V_j - E~ < |j|^{2 zeta (1 - 1/sigma_+)} (r_max if none), so eps(j0) is
    the suffix minimum over |j| > j0 of s_j / |j|^{zeta/sigma_+}, capped by
    (a/2) / (j0 + 1)^zeta when W != 0.  The largest eps wins, the smallest
    j0 on a tie.
    """
    sigma = profile.sigma_plus
    nodes = grid.nodes
    js = np.arange(1, j_max + 1)
    level = _powers(js, 2.0 * zeta * (1.0 - 1.0 / sigma))
    scale = _powers(js, zeta / sigma)
    ok = profile.effective_potential(js, nodes) - e_tilde >= level[:, None]
    s_max = np.where(ok.all(axis=1), grid.r_max, nodes[np.argmin(ok, axis=1)])
    # eps[j0] = min over |j| > j0 of s_j / |j|^{zeta/sigma_+}, for j0 <= 8
    eps = np.minimum.accumulate((s_max / scale)[::-1])[::-1][:min(8, j_max - 1) + 1]
    if a is not None:
        eps = np.minimum(eps, 0.5 * a / _powers(js[:eps.size], zeta))
    j0 = int(np.argmax(eps))
    if eps[j0] <= 0:
        raise ValueError(
            "no admissible interior weight on this grid/window: the forbidden "
            "region check (i) fails for every (eps, j0) candidate")
    return 0.999 * eps[j0], j0


def _exterior_scan(profile: FluxProfile, e_tilde: float, grid: RadialGrid,
                   zeta: float, j_max: int, a: Optional[float]) -> Tuple[float, float]:
    """Best (c, eta) over 64 geometric eta candidates, from one V_j table.

    At candidate eta, channel |j| carries the support r > eta (1 + |j|)^{1/sigma_-},
    a node suffix nodes[k:] located by ``searchsorted``.  The candidate is
    inadmissible when a support holds a node with V_j <= E~; otherwise c is
    the smallest sqrt(V_j - E~) / (zeta sigma_- r^{zeta sigma_- - 1}) over
    the supports, read off per-channel suffix minima at k, capped by
    (a/2) eta^{-zeta sigma_-} when W != 0.  Candidates whose supports are
    all empty are skipped; the largest c wins, the smallest eta on a tie.
    """
    sigma = profile.sigma_minus
    nodes = grid.nodes
    zs = zeta * sigma
    eta_lo = max(profile.r0, 1.01)
    if eta_lo >= grid.r_max:
        raise ValueError("grid too small for an exterior weight (r0 >= r_max)")
    etas = np.geomspace(eta_lo, 0.5 * grid.r_max, 64)
    gap = profile.effective_potential(np.arange(j_max + 1), nodes) - e_tilde
    # -inf marks a classically allowed node: a support holding one is inadmissible
    ratio = np.sqrt(gap, out=np.full_like(gap, -np.inf), where=gap > 0) \
        / (zs * nodes ** (zs - 1.0))
    # suffix[c, k]: the cap of the support nodes[k:] of channel c; +inf when empty
    suffix = np.minimum.accumulate(ratio[:, ::-1], axis=1)[:, ::-1]
    suffix = np.hstack([suffix, np.full((j_max + 1, 1), np.inf)])
    growth = _powers(1.0 + np.arange(j_max + 1), 1.0 / sigma)
    start = np.searchsorted(nodes, etas[:, None] * growth, side="right")
    c_cap = suffix[np.arange(j_max + 1), start].min(axis=1)
    c_cap[c_cap == np.inf] = -np.inf            # every support empty
    if a is not None:
        c_cap = np.minimum(c_cap, 0.5 * a * _powers(etas, -zs))
    best = int(np.argmax(c_cap))
    if c_cap[best] <= 0:
        raise ValueError(
            "no admissible exterior weight on this grid/window: every eta "
            "candidate leaves classically allowed nodes in the weight support")
    return 0.999 * float(c_cap[best]), float(etas[best])


def build_weight(kind: str, profile: FluxProfile, window: SpectralWindow,
                 grid: RadialGrid, zeta: float, j_max: int,
                 a: Optional[float] = None) -> WeightSequence:
    """Construct a weight sequence with grid-extracted admissible parameters.

    ``a`` is the Gevrey rate of the perturbation (None when W = 0, dropping
    the cross-channel constraint).  Interior and exterior parameters come
    from the grid scans over the V_j table (:func:`_interior_scan`,
    :func:`_exterior_scan`); the mobility weight has closed-form parameters.
    """
    if kind == "zero":
        return WeightSequence(kind="zero", zeta=zeta)
    if kind == "interior":
        if not (profile.sigma_plus > 1):
            raise ValueError("interior weight requires sigma_plus > 1")
        eps, j0 = _interior_scan(profile, window.e_tilde, grid, zeta, j_max, a)
        return WeightSequence(kind="interior", zeta=zeta, eps=eps, j0=j0,
                              sigma_plus=profile.sigma_plus)
    if kind == "exterior":
        if not (profile.sigma_minus > 1):
            raise ValueError("exterior weight requires sigma_minus > 1 "
                             "(use the mobility weight for linear flux)")
        c, eta = _exterior_scan(profile, window.e_tilde, grid, zeta, j_max, a)
        return WeightSequence(kind="exterior", zeta=zeta, c=c, eta=eta,
                              sigma_minus=profile.sigma_minus)
    if kind == "mobility":
        if profile.kind != "linear":
            raise ValueError("mobility weight requires linear flux")
        lam = profile.lam
        e_t = window.e_tilde
        if e_t >= lam ** 2:
            raise ValueError(
                f"mobility weight needs E~ = {e_t:g} below the edge lam^2 = {lam ** 2:g}")
        gap = lam ** 2 - e_t
        eta1 = max(4.0 * lam / gap, (1.0 + 1e-9) / gap)
        delta1 = math.sqrt(0.5 * gap)
        if a is not None:
            delta1 = min(delta1, 0.5 * a / eta1)
        return WeightSequence(kind="mobility", zeta=zeta, delta1=0.999 * delta1,
                              eta1=eta1)
    raise ValueError(f"unknown weight kind {kind!r}")


@dataclass
class WeightValidation:
    """Pointwise verdicts for the three admissibility hypotheses."""

    derivative_ok: np.ndarray            # per channel
    derivative_worst_margin: float       # min of rhs - (F')^2 where F' != 0, NaN if none
    bounded_ok: bool
    max_exp_weight_on_allowed: float
    lipschitz_ok: bool
    lipschitz_worst_excess: float        # max over pairs of |F_j-F_k| - (a/2)|j-k|^zeta

    @property
    def passed(self) -> bool:
        return bool(self.derivative_ok.all()) and self.bounded_ok and self.lipschitz_ok


def weight_validate(weight: WeightSequence, profile: FluxProfile,
                    window: SpectralWindow, grid: RadialGrid, j_max: int,
                    a: Optional[float] = None) -> WeightValidation:
    """Check hypotheses (i)-(iii) at every node and channel pair, to 1e-9;
    (iii) only when the Gevrey rate ``a`` is given, with ``weight.zeta``."""
    tol = 1e-9
    channels = np.arange(-j_max, j_max + 1)
    f, slope = weight.evaluate(channels, grid.nodes)
    v = profile.effective_potential(channels, grid.nodes)
    allowed = v <= window.e_tilde
    margin = v - window.e_tilde * (~allowed) - slope ** 2
    deriv_ok = np.all(margin >= -tol, axis=1)
    # where F' = 0, (i) reads rhs >= 0, which V >= 0 gives: it binds only where F' != 0
    active = margin[slope != 0]
    max_allowed_weight = float(f[allowed].max(initial=0.0))
    bounded_ok = max_allowed_weight <= tol

    lip_excess = 0.0
    if a is not None:
        lip_excess = -np.inf
        for c1 in range(channels.size - 1):
            d = np.max(np.abs(f[c1 + 1:] - f[c1][None, :]), axis=1)
            bound = 0.5 * a * np.abs(channels[c1 + 1:] - channels[c1]) ** weight.zeta
            lip_excess = max(lip_excess, float(np.max(d - bound)))

    return WeightValidation(
        derivative_ok=deriv_ok,
        derivative_worst_margin=float(active.min()) if active.size else np.nan,
        bounded_ok=bounded_ok,
        max_exp_weight_on_allowed=float(np.exp(max_allowed_weight)),
        lipschitz_ok=lip_excess <= tol, lipschitz_worst_excess=float(lip_excess),
    )


@dataclass
class TwistedGapReport:
    lambda_min: float
    lower_bound: float            # certified: lambda_min >= lower_bound
    threshold: float              # E0 + delta0 / 2
    slack: float
    passed: bool
    shift_route: Optional[str]    # trial or weyl: the lower bound's shift; None when uncoupled
    cholesky_solves: int          # solves of the band Cholesky factor at that shift


def twisted_gap_check(h: BlockHamiltonian, weight: WeightSequence,
                      window: SpectralWindow) -> TwistedGapReport:
    """Coercivity of the symmetrized twisted operator.

    Builds H~ = H + E~ chi(E~), chi the indicator of V_j(r_i) <= E~ read
    from ``h.potential``, and the symmetrization
    (e^F H~ e^-F + e^-F H~ e^F)/2, whose entries are those of H~ scaled by
    cosh(F_j(r_i) - F_k(r_l)), straight into the band storage of
    :meth:`~fluxlab.spectral.BlockHamiltonian.to_band`.  It passes iff no
    eigenvalue lies below the shift threshold - 1e-9 max(1, |threshold|),
    threshold = E0 + delta0/2.  :func:`~fluxlab.spectral.lowest_eigenvalue`
    gives lambda_min and a certified lower bound on it, and a bound at or
    above the shift passes with no further work.  Otherwise the band
    Cholesky factorization of the operator minus the shift decides: it
    completes iff no eigenvalue lies below the shift.  On a coupled band the
    bound is the shift sigma where the factor of the Lanczos run completed,
    the trial shift next to the channel tridiagonals' minimum or else
    Weyl's, and a factor at any shift <= sigma completes too, with pivots no
    smaller, so the verdict is the one the factor at the shift gives.
    """
    ab, order = h.to_band()
    kd = ab.shape[0] - 1
    f = weight.evaluate(h.channels, h.grid.nodes)[0].reshape(-1)[order]
    chi = (h.potential <= window.e_tilde).reshape(-1)[order]
    ab[kd] += window.e_tilde * chi
    for r in range(kd):
        ab[r, kd - r:] *= np.cosh(f[:r - kd] - f[kd - r:])

    threshold = window.E0 + 0.5 * window.delta0
    shift = threshold - 1e-9 * max(1.0, abs(threshold))
    lowest = lowest_eigenvalue(ab)
    passed = lowest.lower_bound >= shift or BandCholesky(ab, shift).positive_definite
    return TwistedGapReport(lambda_min=lowest.value, lower_bound=lowest.lower_bound,
                            threshold=threshold, slack=lowest.value - threshold,
                            passed=passed, shift_route=lowest.shift_route,
                            cholesky_solves=lowest.cholesky_solves)


@dataclass
class TunnellingSum:
    """Per-channel masked norms and the weighted partial sum."""

    j: np.ndarray
    norms: np.ndarray
    terms: np.ndarray
    partial_sum: float
    tail_ratio: float
    params: dict = field(default_factory=dict)


def _tail_ratio(j: np.ndarray, terms: np.ndarray) -> float:
    """The sum of the terms on the outermost |j| shell with a nonzero term,
    over the sum on the next such shell inward.

    A shell whose terms are all zero (say, a mask that lies past r_max) holds
    no data, so it is skipped; fewer than two shells with data give NaN.
    """
    sums = np.bincount(np.abs(j), weights=terms)
    data = np.flatnonzero(sums > 0)
    return float(sums[data[-1]] / sums[data[-2]]) if data.size >= 2 else math.nan


def _tunnelling_sum(p: SpectralProjection, lower: np.ndarray, upper: np.ndarray,
                    weight: np.ndarray, radial_weight, params: dict) -> TunnellingSum:
    """Terms weight_c |1_{[lower_c, upper_c]} P_j E_I|^2 over the channels, the
    norm weighted by ``radial_weight(r)`` if given; an empty range keeps norm 0."""
    channels = p.channels
    norms = np.zeros(channels.size)
    for c, j in enumerate(channels):
        if lower[c] < upper[c]:
            norms[c] = channel_projection_norm(p, int(j), (lower[c], upper[c]),
                                               radial_weight=radial_weight)
    terms = weight * norms ** 2
    return TunnellingSum(j=np.asarray(channels), norms=norms, terms=terms,
                         partial_sum=float(terms.sum()),
                         tail_ratio=_tail_ratio(channels, terms), params=params)


def tunnelling_interior_sum(p: SpectralProjection, c_plus: float,
                            delta_plus: float, zeta: float,
                            sigma_plus: float) -> TunnellingSum:
    """Interior masked norms with weights e^{delta_+ |j|^zeta}.

    Terms are e^{delta_+ |j|^zeta} |1_{[0, c_+ |j|^{zeta/sigma_+}]} P_j E_I|^2,
    the mask cut at r_max; the tail ratio is that of :func:`_tail_ratio`.
    """
    abs_j = np.abs(p.channels)
    radius = np.minimum(c_plus * _powers(abs_j, zeta / sigma_plus), p.grid.r_max)
    return _tunnelling_sum(
        p, np.zeros(abs_j.size), radius, np.exp(delta_plus * _powers(abs_j, zeta)), None,
        {"c_plus": c_plus, "delta_plus": delta_plus, "zeta": zeta,
         "sigma_plus": sigma_plus})


def tunnelling_exterior_sum(p: SpectralProjection, c_minus: float,
                            delta_minus: float, zeta: float,
                            sigma_minus: float) -> TunnellingSum:
    """Exterior masked norms with the radial weight e^{delta_- r^{zeta sigma_-}}.

    Terms are |e^{delta_- r^{zeta sigma_-}} 1_{[c_- |j|^{zeta/sigma_-}, r_max]}
    P_j E_I|^2; a channel whose mask starts at or past r_max has no support
    and keeps a zero term, and the tail ratio (:func:`_tail_ratio`) skips
    such shells.
    """
    zs = zeta * sigma_minus
    lower = c_minus * _powers(np.abs(p.channels), zeta / sigma_minus)
    return _tunnelling_sum(
        p, lower, np.full(lower.size, p.grid.r_max), np.ones(lower.size),
        lambda r: np.exp(delta_minus * r ** zs),
        {"c_minus": c_minus, "delta_minus": delta_minus, "zeta": zeta,
         "sigma_minus": sigma_minus})


def decay_rate_fit(x, y) -> Tuple[float, float, float]:
    """Least-squares fit of log y against x: (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise ValueError("decay_rate_fit needs at least 4 points")
    if np.any(y <= 0):
        raise ValueError("decay_rate_fit needs strictly positive y")
    ly = np.log(y)
    slope, intercept = np.polyfit(x, ly, 1)
    resid = ly - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


@dataclass
class ForbiddenRegionReport:
    """Grid verdicts for the forbidden-region lower bounds."""

    interior_ok: bool
    interior_j0: int
    interior_eps: float
    interior_worst_margin: float
    exterior_ok: bool
    exterior_eta: float
    exterior_level: float
    exterior_worst_margin: float

    @property
    def passed(self) -> bool:
        return self.interior_ok and self.exterior_ok


def forbidden_region_check(profile: FluxProfile, energy: float, grid: RadialGrid,
                           j_max: int) -> ForbiddenRegionReport:
    """Check the two effective-potential lower bounds with the proofs' constants.

    Interior (for |j| >= j0 = ceil(4 lambda_+), r <= eps_E |j|^{1/sigma_+} with
    eps_E = min{(2 lambda_+)^{-1/sigma_+}, 1/(4 sqrt(E+1))}):

        V_j(r) - E >= |j|^{2 (sigma_+ - 1)/sigma_+}

    Exterior (for all j, r >= eta_E (1+|j|)^{1/sigma_-}, with eta_E large
    enough that lam0^2 = lambda_-^2/4 - E / eta_E^{2(sigma_- - 1)} >=
    lambda_-^2/8):

        V_j(r) - E >= lam0^2 r^{2 (sigma_- - 1)}
    """
    nodes = grid.nodes
    sp_, sm = profile.sigma_plus, profile.sigma_minus
    lp, lm = profile.lambda_plus, profile.lambda_minus

    j0 = max(1, math.ceil(4.0 * lp))
    eps_e = min((1.0 / (2.0 * lp)) ** (1.0 / sp_), 1.0 / (4.0 * math.sqrt(energy + 1.0)))
    gap = profile.effective_potential(np.arange(j_max + 1), nodes) - energy
    js = np.arange(j0, j_max + 1)
    radius = eps_e * _powers(js, 1.0 / sp_)
    level_in = _powers(js, 2.0 * (sp_ - 1.0) / sp_)
    int_margin = float(np.min(gap[j0:] - level_in[:, None], initial=np.inf,
                              where=nodes <= radius[:, None]))

    eta_e = max(profile.r0, (2.0 / lm) ** (1.0 / sm), 1.01)
    if sm > 1:
        eta_e = max(eta_e, (8.0 * energy / lm ** 2) ** (1.0 / (2.0 * (sm - 1.0))))
    level = lm ** 2 / 4.0 - energy / eta_e ** (2.0 * (sm - 1.0))
    r_in = eta_e * _powers(1.0 + np.arange(j_max + 1), 1.0 / sm)
    ext_margin = float(np.min(gap - level * nodes ** (2.0 * (sm - 1.0)), initial=np.inf,
                              where=nodes >= r_in[:, None]))

    return ForbiddenRegionReport(
        interior_ok=int_margin >= 0, interior_j0=j0, interior_eps=eps_e,
        interior_worst_margin=int_margin,
        exterior_ok=level > 0 and ext_margin >= 0, exterior_eta=float(eta_e),
        exterior_level=float(level), exterior_worst_margin=ext_margin,
    )
