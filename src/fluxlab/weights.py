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
coercivity bound on the symmetrized exponentially twisted operator by an
exact eigenvalue count: one :class:`~fluxlab.spectral.ShiftedFactor` just
below the threshold E0 + delta0/2 must find no eigenvalue under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
# not called here: bench/tracing.py patches and restores weights.splu by name
from scipy.sparse.linalg import splu  # noqa: F401

from .flux import FluxProfile
from .grid import RadialGrid
from .spectral import BlockHamiltonian, ShiftedFactor, SpectralProjection, \
    SpectralWindow, channel_projection_norm

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
    j0: int = 0                   # interior
    sigma_plus: float = np.nan    # interior
    c: float = np.nan             # exterior
    eta: float = np.nan           # exterior
    sigma_minus: float = np.nan   # exterior
    delta1: float = np.nan        # mobility
    eta1: float = np.nan          # mobility

    def values(self, j: int, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        aj = abs(int(j))
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "interior":
            if aj <= self.j0:
                return np.zeros_like(r)
            amp = aj ** (self.zeta * (1.0 - 1.0 / self.sigma_plus))
            return amp * np.clip(self.eps * aj ** (self.zeta / self.sigma_plus) - r,
                                 0.0, None)
        if self.kind == "exterior":
            thresh = self.eta ** (self.zeta * self.sigma_minus) * (1.0 + aj) ** self.zeta
            return self.c * np.clip(r ** (self.zeta * self.sigma_minus) - thresh,
                                    0.0, None)
        if self.kind == "mobility":
            return self.delta1 * np.clip(r - self.eta1 * aj, 0.0, None)
        raise ValueError(f"unknown weight kind {self.kind!r}")

    def derivative_abs(self, j: int, r: np.ndarray) -> np.ndarray:
        """|F_j'(r)| (defined off the kink, which never sits on a node)."""
        r = np.asarray(r, dtype=float)
        aj = abs(int(j))
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "interior":
            if aj <= self.j0:
                return np.zeros_like(r)
            amp = aj ** (self.zeta * (1.0 - 1.0 / self.sigma_plus))
            return amp * (r < self.eps * aj ** (self.zeta / self.sigma_plus))
        if self.kind == "exterior":
            zs = self.zeta * self.sigma_minus
            support = r > self.eta * (1.0 + aj) ** (1.0 / self.sigma_minus)
            return self.c * zs * r ** (zs - 1.0) * support
        if self.kind == "mobility":
            return self.delta1 * (r > self.eta1 * aj)
        raise ValueError(f"unknown weight kind {self.kind!r}")

    def matrix(self, channels: np.ndarray, r: np.ndarray) -> np.ndarray:
        return np.stack([self.values(int(j), r) for j in channels])


def _interior_scan(profile: FluxProfile, e_tilde: float, grid: RadialGrid,
                   zeta: float, j_max: int, a: Optional[float],
                   j0_cap: int = 8) -> Tuple[float, int]:
    """Best (eps, j0) for the interior weight by direct grid scan."""
    sigma = profile.sigma_plus
    nodes = grid.nodes
    best_eps, best_j0 = 0.0, None
    for j0 in range(0, min(j0_cap, j_max - 1) + 1):
        eps = np.inf
        for aj in range(j0 + 1, j_max + 1):
            level = aj ** (2.0 * zeta * (1.0 - 1.0 / sigma))
            ok = profile.effective_potential(aj, nodes) - e_tilde >= level
            bad = np.flatnonzero(~ok)
            # support (0, s) may extend up to the first violating node
            s_max = nodes[bad[0]] if bad.size else grid.r_max
            eps = min(eps, s_max / aj ** (zeta / sigma))
        if a is not None:
            eps = min(eps, 0.5 * a / (j0 + 1) ** zeta)
        if eps > best_eps:
            best_eps, best_j0 = eps, j0
    if best_j0 is None or best_eps <= 0:
        raise ValueError(
            "no admissible interior weight on this grid/window: the forbidden "
            "region check (i) fails for every (eps, j0) candidate")
    return 0.999 * best_eps, best_j0


def _exterior_scan(profile: FluxProfile, e_tilde: float, grid: RadialGrid,
                   zeta: float, j_max: int, a: Optional[float]) -> Tuple[float, float]:
    """Best (c, eta) for the exterior weight by direct grid scan."""
    sigma = profile.sigma_minus
    nodes = grid.nodes
    zs = zeta * sigma
    eta_lo = max(profile.r0, 1.01)
    if eta_lo >= grid.r_max:
        raise ValueError("grid too small for an exterior weight (r0 >= r_max)")
    best_c, best_eta = 0.0, None
    for eta in np.geomspace(eta_lo, 0.5 * grid.r_max, 64):
        c_cap = np.inf
        nonempty = False
        admissible = True
        for aj in range(0, j_max + 1):
            support = nodes > eta * (1.0 + aj) ** (1.0 / sigma)
            if not np.any(support):
                continue
            nonempty = True
            gap = profile.effective_potential(aj, nodes[support]) - e_tilde
            if np.any(gap <= 0):
                admissible = False
                break
            slope = zs * nodes[support] ** (zs - 1.0)
            c_cap = min(c_cap, float(np.min(np.sqrt(gap) / slope)))
        if not admissible or not nonempty:
            continue
        if a is not None:
            c_cap = min(c_cap, 0.5 * a * eta ** (-zs))
        if c_cap > best_c:
            best_c, best_eta = c_cap, float(eta)
    if best_eta is None or best_c <= 0:
        raise ValueError(
            "no admissible exterior weight on this grid/window: every eta "
            "candidate leaves classically allowed nodes in the weight support")
    return 0.999 * best_c, best_eta


def build_weight(kind: str, profile: FluxProfile, window: SpectralWindow,
                 grid: RadialGrid, zeta: float, j_max: int,
                 a: Optional[float] = None, params: Optional[dict] = None) -> WeightSequence:
    """Construct a weight sequence with grid-extracted admissible parameters.

    ``a`` is the Gevrey rate of the perturbation (None when W = 0, dropping
    the cross-channel constraint).  Explicit ``params`` override the scan.
    """
    if kind == "zero":
        return WeightSequence(kind="zero", zeta=zeta)
    if kind == "interior":
        if not (profile.sigma_plus > 1):
            raise ValueError("interior weight requires sigma_plus > 1")
        if params:
            return WeightSequence(kind="interior", zeta=zeta, eps=params["eps"],
                                  j0=int(params["j0"]), sigma_plus=profile.sigma_plus)
        eps, j0 = _interior_scan(profile, window.e_tilde, grid, zeta, j_max, a)
        return WeightSequence(kind="interior", zeta=zeta, eps=eps, j0=j0,
                              sigma_plus=profile.sigma_plus)
    if kind == "exterior":
        if not (profile.sigma_minus > 1):
            raise ValueError("exterior weight requires sigma_minus > 1 "
                             "(use the mobility weight for linear flux)")
        if params:
            return WeightSequence(kind="exterior", zeta=zeta, c=params["c"],
                                  eta=params["eta"], sigma_minus=profile.sigma_minus)
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
        if params:
            return WeightSequence(kind="mobility", zeta=zeta,
                                  delta1=params["delta1"], eta1=params["eta1"])
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
    derivative_worst_margin: float       # min over nodes of rhs - (F')^2
    bounded_ok: bool
    max_weight_on_allowed: float
    max_exp_weight_on_allowed: float
    lipschitz_ok: bool
    lipschitz_worst_excess: float        # max over pairs of |F_j-F_k| - (a/2)|j-k|^zeta
    lipschitz_worst_pair: Optional[Tuple[int, int]]

    @property
    def passed(self) -> bool:
        return bool(self.derivative_ok.all()) and self.bounded_ok and self.lipschitz_ok


def weight_validate(weight: WeightSequence, profile: FluxProfile,
                    window: SpectralWindow, grid: RadialGrid, j_max: int,
                    a: Optional[float] = None, zeta: Optional[float] = None,
                    tol: float = 1e-9) -> WeightValidation:
    """Check hypotheses (i)-(iii) at every node and channel pair."""
    channels = np.arange(-j_max, j_max + 1)
    nodes = grid.nodes
    if zeta is None:
        zeta = weight.zeta

    f = weight.matrix(channels, nodes)
    deriv_ok = np.zeros(channels.size, dtype=bool)
    worst = np.inf
    max_allowed_weight = 0.0
    for c, j in enumerate(channels):
        v = profile.effective_potential(int(j), nodes)
        allowed = v <= window.e_tilde
        rhs = v - window.e_tilde * (~allowed)
        lhs = weight.derivative_abs(int(j), nodes) ** 2
        margin = rhs - lhs
        deriv_ok[c] = bool(np.all(margin >= -tol))
        worst = min(worst, float(margin.min()))
        if np.any(allowed):
            max_allowed_weight = max(max_allowed_weight, float(f[c, allowed].max()))

    bounded_ok = max_allowed_weight <= tol

    lip_ok = True
    lip_excess = -np.inf
    lip_pair = None
    if a is not None:
        for c1 in range(channels.size):
            d = np.max(np.abs(f[c1 + 1:] - f[c1][None, :]), axis=1)
            bound = 0.5 * a * np.abs(channels[c1 + 1:] - channels[c1]) ** zeta
            excess = d - bound
            worst_idx = int(np.argmax(excess)) if excess.size else None
            if excess.size and excess[worst_idx] > lip_excess:
                lip_excess = float(excess[worst_idx])
                lip_pair = (int(channels[c1]), int(channels[c1 + 1 + worst_idx]))
            if excess.size and excess[worst_idx] > tol:
                lip_ok = False
    else:
        lip_excess = 0.0

    return WeightValidation(
        derivative_ok=deriv_ok, derivative_worst_margin=worst,
        bounded_ok=bounded_ok, max_weight_on_allowed=max_allowed_weight,
        max_exp_weight_on_allowed=float(np.exp(max_allowed_weight)),
        lipschitz_ok=lip_ok, lipschitz_worst_excess=float(lip_excess),
        lipschitz_worst_pair=lip_pair,
    )


@dataclass
class TwistedGapReport:
    lambda_min: float
    threshold: float              # E0 + delta0 / 2
    slack: float
    passed: bool
    e_tilde: float


def twisted_gap_check(h: BlockHamiltonian, weight: WeightSequence,
                      window: SpectralWindow) -> TwistedGapReport:
    """Coercivity of the symmetrized twisted operator.

    Builds H~ = H + E~ chi(E~) and the symmetrization
    (e^F H~ e^-F + e^-F H~ e^F)/2, whose entries are those of H~ scaled by
    cosh(F_j(r_i) - F_k(r_l)).  It passes iff the inertia of the operator
    shifted to threshold - tol, threshold = E0 + delta0/2, counts no
    eigenvalue below; lambda_min is then the eigenvalue nearest the shift,
    and otherwise the lowest of those counted.
    """
    nodes = h.grid.nodes
    f = weight.matrix(h.channels, nodes).reshape(-1)
    chi = np.zeros((h.n_ch, h.grid.n_r))
    for c, j in enumerate(h.channels):
        v = h.diagonals[c] - 2.0 / h.grid.h ** 2 - h.symmetric_part
        chi[c] = v <= window.e_tilde
    a = (h.to_sparse() + sp.diags(window.e_tilde * chi.reshape(-1))).tocoo()
    a.data = a.data * np.cosh(f[a.row] - f[a.col])

    threshold = window.E0 + 0.5 * window.delta0
    factor = ShiftedFactor(a, threshold - 1e-9 * max(1.0, abs(threshold)))
    lam_min = float(factor.below()[0][0]) if factor.n_below else factor.nearest()
    return TwistedGapReport(lambda_min=lam_min, threshold=threshold,
                            slack=lam_min - threshold, passed=factor.n_below == 0,
                            e_tilde=window.e_tilde)


@dataclass
class TunnellingSum:
    """Per-channel masked norms and the weighted partial sum."""

    j: np.ndarray
    norms: np.ndarray
    terms: np.ndarray
    partial_sum: float
    tail_ratio: float
    kind: str
    params: dict = field(default_factory=dict)

    def shells(self):
        """(m, s_m) with s_m the summed terms over |j| = m, m = 1..j_max."""
        j_max = int(np.max(np.abs(self.j)))
        ms = np.arange(1, j_max + 1)
        s = np.array([self.terms[np.abs(self.j) == m].sum() for m in ms])
        return ms, s


def _tail_ratio(j: np.ndarray, terms: np.ndarray) -> float:
    j_max = int(np.max(np.abs(j)))
    if j_max < 2:
        return 0.0
    last = terms[np.abs(j) == j_max].sum()
    prev = terms[np.abs(j) == j_max - 1].sum()
    if prev <= 0:
        return 0.0
    return float(last / prev)


def tunnelling_interior_sum(p: SpectralProjection, c_plus: float,
                            delta_plus: float, zeta: float, sigma_plus: float,
                            j_max: Optional[int] = None) -> TunnellingSum:
    """Interior masked norms with weights e^{delta_+ |j|^zeta}.

    Terms are e^{delta_+ |j|^zeta} |1_{[0, c_+ |j|^{zeta/sigma_+}]} P_j E_I|^2;
    the tail ratio compares the outermost two |j| shells.
    """
    channels = p.channels if j_max is None else \
        np.arange(-j_max, j_max + 1)
    norms = np.zeros(channels.size)
    terms = np.zeros(channels.size)
    for c, j in enumerate(channels):
        radius = c_plus * abs(int(j)) ** (zeta / sigma_plus)
        norms[c] = channel_projection_norm(p, int(j), (0.0, min(radius, p.grid.r_max)))
        terms[c] = np.exp(delta_plus * abs(int(j)) ** zeta) * norms[c] ** 2
    return TunnellingSum(
        j=np.asarray(channels), norms=norms, terms=terms,
        partial_sum=float(terms.sum()), tail_ratio=_tail_ratio(channels, terms),
        kind="interior",
        params={"c_plus": c_plus, "delta_plus": delta_plus, "zeta": zeta,
                "sigma_plus": sigma_plus},
    )


def tunnelling_exterior_sum(p: SpectralProjection, c_minus: float,
                            delta_minus: float, zeta: float, sigma_minus: float,
                            j_max: Optional[int] = None) -> TunnellingSum:
    """Exterior masked norms with the radial weight e^{delta_- r^{zeta sigma_-}}."""
    channels = p.channels if j_max is None else \
        np.arange(-j_max, j_max + 1)
    zs = zeta * sigma_minus
    norms = np.zeros(channels.size)
    for c, j in enumerate(channels):
        lo = c_minus * abs(int(j)) ** (zeta / sigma_minus)
        if lo >= p.grid.r_max:
            continue
        norms[c] = channel_projection_norm(
            p, int(j), (lo, p.grid.r_max),
            radial_weight=lambda r: np.exp(delta_minus * r ** zs))
    terms = norms ** 2
    return TunnellingSum(
        j=np.asarray(channels), norms=norms, terms=terms,
        partial_sum=float(terms.sum()), tail_ratio=_tail_ratio(channels, terms),
        kind="exterior",
        params={"c_minus": c_minus, "delta_minus": delta_minus, "zeta": zeta,
                "sigma_minus": sigma_minus},
    )


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
    int_ok = True
    int_margin = np.inf
    for aj in range(j0, j_max + 1):
        sel = nodes <= eps_e * aj ** (1.0 / sp_)
        if not np.any(sel):
            continue
        margin = profile.effective_potential(aj, nodes[sel]) - energy \
            - aj ** (2.0 * (sp_ - 1.0) / sp_)
        int_margin = min(int_margin, float(margin.min()))
        if np.any(margin < 0):
            int_ok = False

    eta_e = max(profile.r0, (2.0 / lm) ** (1.0 / sm), 1.01)
    if sm > 1:
        eta_e = max(eta_e, (8.0 * energy / lm ** 2) ** (1.0 / (2.0 * (sm - 1.0))))
    level = lm ** 2 / 4.0 - energy / eta_e ** (2.0 * (sm - 1.0))
    ext_ok = level > 0
    ext_margin = np.inf
    for aj in range(0, j_max + 1):
        sel = nodes >= eta_e * (1.0 + aj) ** (1.0 / sm)
        if not np.any(sel):
            continue
        rr = nodes[sel]
        margin = profile.effective_potential(aj, rr) - energy \
            - level * rr ** (2.0 * (sm - 1.0))
        ext_margin = min(ext_margin, float(margin.min()))
        if np.any(margin < 0):
            ext_ok = False

    return ForbiddenRegionReport(
        interior_ok=int_ok, interior_j0=j0, interior_eps=eps_e,
        interior_worst_margin=float(int_margin),
        exterior_ok=ext_ok, exterior_eta=float(eta_e), exterior_level=float(level),
        exterior_worst_margin=float(ext_margin),
    )
