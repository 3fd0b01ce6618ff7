"""Radial magnetic flux profiles and the channel effective potential.

The model is a two-dimensional particle in a rotationally symmetric magnetic
field ``B(r)``, described in the rotationally symmetric gauge by the flux
function ``Phi(r) = int_0^r B(s) s ds``.  Angular momentum channel ``j`` then
sees the effective radial potential ``V_j(r) = (Phi(r) - j)^2 / r^2``.

Profiles are restricted to nonnegative flux (``B >= 0``); ``j`` ranges over
all integers.  Units are hbar = 2m = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "FluxProfile",
    "ClassicalRegion",
    "GrowthConditionReport",
    "classical_region",
    "validate_growth_conditions",
]


@dataclass(frozen=True)
class FluxProfile:
    """A nonnegative radial flux profile with its growth-envelope parameters.

    The profile kinds are

    - ``power_law``: Phi(r) = lam * r**sigma, sigma >= 1
    - ``linear``:    Phi(r) = lam * r (the sigma = 1 power law)
    - ``uniform_field``: Phi(r) = B0 * r**2 / 2
    - ``tabulated``: linear interpolation of (nodes, values) on (0, nodes[-1]]

    ``lambda_plus, sigma_plus`` are the upper-envelope parameters
    (|Phi(r)| <= lambda_plus (1 + r**sigma_plus)) and
    ``lambda_minus, sigma_minus, r0`` the lower-envelope parameters
    (|Phi(r)| >= lambda_minus r**sigma_minus for r >= r0).  For the closed-form
    kinds they are filled in automatically and are exact.
    """

    kind: str
    lam: float = 0.0
    sigma: float = 1.0
    b0: float = 0.0
    table_nodes: Optional[np.ndarray] = None
    table_values: Optional[np.ndarray] = None
    lambda_plus: float = field(default=np.nan)
    sigma_plus: float = field(default=np.nan)
    lambda_minus: float = field(default=np.nan)
    sigma_minus: float = field(default=np.nan)
    r0: float = 1.0

    # -- constructors --------------------------------------------------------

    @staticmethod
    def power_law(lam: float, sigma: float) -> "FluxProfile":
        if lam <= 0:
            raise ValueError("power_law requires lam > 0")
        if sigma < 1:
            raise ValueError("power_law requires sigma >= 1")
        return FluxProfile(
            kind="power_law", lam=float(lam), sigma=float(sigma),
            lambda_plus=float(lam), sigma_plus=float(sigma),
            lambda_minus=float(lam), sigma_minus=float(sigma), r0=1.0,
        )

    @staticmethod
    def linear(lam: float) -> "FluxProfile":
        if lam <= 0:
            raise ValueError("linear requires lam > 0")
        return FluxProfile(
            kind="linear", lam=float(lam), sigma=1.0,
            lambda_plus=float(lam), sigma_plus=1.0,
            lambda_minus=float(lam), sigma_minus=1.0, r0=1.0,
        )

    @staticmethod
    def uniform_field(b0: float) -> "FluxProfile":
        if b0 <= 0:
            raise ValueError("uniform_field requires B0 > 0")
        return FluxProfile(
            kind="uniform_field", b0=float(b0),
            lambda_plus=float(b0) / 2.0, sigma_plus=2.0,
            lambda_minus=float(b0) / 2.0, sigma_minus=2.0, r0=1.0,
        )

    @staticmethod
    def tabulated(nodes, values, lambda_plus=np.nan, sigma_plus=np.nan,
                  lambda_minus=np.nan, sigma_minus=np.nan, r0=1.0) -> "FluxProfile":
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or values.shape != nodes.shape:
            raise ValueError("tabulated profile needs matching 1-d nodes/values with >= 2 entries")
        if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
            raise ValueError("tabulated nodes must be positive and strictly increasing")
        if np.any(values < 0):
            raise ValueError("flux must be nonnegative; signed flux is not supported")
        return FluxProfile(
            kind="tabulated", table_nodes=nodes, table_values=values,
            lambda_plus=lambda_plus, sigma_plus=sigma_plus,
            lambda_minus=lambda_minus, sigma_minus=sigma_minus, r0=r0,
        )

    # -- evaluation ----------------------------------------------------------

    def flux(self, r):
        """Phi(r) for scalar or array r > 0."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("flux is defined for r > 0")
        if self.kind == "power_law":
            out = self.lam * r ** self.sigma
        elif self.kind == "linear":
            out = self.lam * r
        elif self.kind == "uniform_field":
            out = 0.5 * self.b0 * r ** 2
        elif self.kind == "tabulated":
            lo, hi = self.table_nodes[0], self.table_nodes[-1]
            if np.any(r < lo) or np.any(r > hi):
                raise ValueError(
                    f"tabulated flux queried outside node range [{lo:g}, {hi:g}]")
            out = np.interp(r, self.table_nodes, self.table_values)
        else:  # pragma: no cover - constructors forbid this
            raise ValueError(f"unknown flux kind {self.kind!r}")
        return out if out.ndim else float(out)

    def field_strength(self, r):
        """B(r) = Phi'(r)/r; central differences for tabulated profiles."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("field is defined for r > 0")
        if self.kind == "power_law":
            out = self.lam * self.sigma * r ** (self.sigma - 2.0)
        elif self.kind == "linear":
            out = self.lam / r
        elif self.kind == "uniform_field":
            out = np.full_like(r, self.b0)
        else:
            dr = np.minimum(1e-6 * np.maximum(r, 1.0),
                            0.49 * np.minimum(r - self.table_nodes[0],
                                              self.table_nodes[-1] - r).clip(min=1e-300))
            out = (self.flux(r + dr) - self.flux(r - dr)) / (2.0 * dr) / r
        return out if out.ndim else float(out)

    def effective_potential(self, j, r):
        """V_j(r) = (Phi(r) - j)^2 / r^2.

        A 1-d array of channels gives the table of shape ``(len(j),) +
        r.shape`` in one evaluation of Phi; row c is V_{j[c]}(r).
        """
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("effective potential is defined for r > 0")
        j = np.asarray(j)
        out = (self.flux(r) - j.reshape(j.shape + (1,) * r.ndim)) ** 2 / r ** 2
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ClassicalRegion:
    """The classically allowed set {r : V_j(r) <= E} for one channel.

    ``interval`` is the (r_lo, r_hi) hull of the allowed grid nodes or the
    closed-form interval for linear flux; None means the region is empty.
    ``disconnected`` flags a grid scan whose allowed node set had gaps (the
    hull is returned in that case).
    """

    j: int
    energy: float
    interval: Optional[Tuple[float, float]]
    disconnected: bool = False

    @property
    def empty(self) -> bool:
        return self.interval is None


def classical_region(profile: FluxProfile, j: int, energy: float, grid) -> ClassicalRegion:
    """Classically allowed region of channel j at the given energy.

    For linear flux with energy < lam^2 the closed form
    [j/(lam + sqrt(E)), j/(lam - sqrt(E))] (empty for j <= 0) is used;
    otherwise the grid nodes with V_j <= E are scanned and their hull is
    returned, with a ``disconnected`` flag if the allowed node set had gaps.
    """
    if energy < 0:
        raise ValueError("classical_region requires energy >= 0")
    if profile.kind == "linear" and energy < profile.lam ** 2:
        if j <= 0:
            return ClassicalRegion(j=j, energy=energy, interval=None)
        se = np.sqrt(energy)
        lo = j / (profile.lam + se)
        hi = j / (profile.lam - se)
        if lo > grid.r_max:   # region lies entirely past the wall
            return ClassicalRegion(j=j, energy=energy, interval=None)
        return ClassicalRegion(
            j=j, energy=energy, interval=(lo, min(hi, grid.r_max)),
        )
    v = profile.effective_potential(j, grid.nodes)
    allowed = np.flatnonzero(v <= energy)
    if allowed.size == 0:
        return ClassicalRegion(j=j, energy=energy, interval=None)
    lo, hi = allowed[0], allowed[-1]
    disconnected = allowed.size != (hi - lo + 1)
    return ClassicalRegion(
        j=j, energy=energy,
        interval=(float(grid.nodes[lo]), float(grid.nodes[hi])),
        disconnected=disconnected,
    )


@dataclass
class GrowthConditionReport:
    """Per-node verdicts for the two flux growth envelopes."""

    upper_ok: np.ndarray          # |Phi| <= lambda_plus (1 + r^sigma_plus), all nodes
    lower_ok: np.ndarray          # |Phi| >= lambda_minus r^sigma_minus, nodes with r >= r0
    upper_pass: bool
    lower_pass: bool
    first_upper_violation: Optional[float] = None
    first_lower_violation: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.upper_pass and self.lower_pass


def validate_growth_conditions(profile: FluxProfile, grid) -> GrowthConditionReport:
    """Check the profile's claimed (lambda±, sigma±, r0) envelopes node by node.

    Report-only: never raises on a violation.  A tiny relative slack absorbs
    roundoff in the exact-equality cases (e.g. a power law against itself).
    """
    r = grid.nodes
    phi = np.abs(profile.flux(r))
    tol = 1e-12
    upper = phi <= profile.lambda_plus * (1.0 + r ** profile.sigma_plus) * (1.0 + tol)
    outer = r >= profile.r0
    lower = np.ones_like(upper)
    lower[outer] = phi[outer] >= profile.lambda_minus * r[outer] ** profile.sigma_minus * (1.0 - tol)

    first_up = None if upper.all() else float(r[np.argmin(upper)])
    first_lo = None if lower.all() else float(r[np.argmin(lower)])
    return GrowthConditionReport(
        upper_ok=upper, lower_ok=lower,
        upper_pass=bool(upper.all()), lower_pass=bool(lower.all()),
        first_upper_violation=first_up, first_lower_violation=first_lo,
    )
