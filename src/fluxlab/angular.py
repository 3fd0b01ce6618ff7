"""Angular perturbations: Fourier coefficients, Gevrey envelopes, splits.

The angular transform convention is

    W^(r, m) = (2 pi)^{-1/2} * int_0^{2pi} W(r, theta) exp(-i m theta) dtheta

evaluated by uniform trapezoidal quadrature on the circle (a DFT), which is
exact for trigonometric polynomials of degree < n_theta / 2.  The smoothness
hypothesis on W is the envelope |W^(r, m)| <= b(r) exp(-a |m|^zeta) with
a > 0 and 0 < zeta <= 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma, gammaincc

__all__ = [
    "GevreyEnvelope", "DecayClass", "CoefficientTable", "AngularPotential",
    "fourier_coefficients", "gevrey_validate", "GevreyReport",
    "symmetric_split", "xi_constant", "default_m_max",
    "save_table_csv", "load_table_csv",
]

SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class GevreyEnvelope:
    """Claimed angular-smoothness envelope b(r) exp(-a |m|^zeta)."""

    a: float
    zeta: float
    b: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError("envelope requires a > 0")
        if not (0 < self.zeta <= 1):
            raise ValueError("envelope requires 0 < zeta <= 1")

    def bound(self, r: np.ndarray, m: np.ndarray) -> np.ndarray:
        return np.asarray(self.b(np.asarray(r, dtype=float)), dtype=float)[:, None] \
            * np.exp(-self.a * np.abs(m)[None, :] ** self.zeta)


@dataclass(frozen=True)
class DecayClass:
    """Spatial decay class of the nonsymmetric part of the perturbation."""

    kind: str                  # 'power' | 'stretched_exponential' | 'none'
    p: float = np.nan
    mu: float = np.nan
    s: float = np.nan

    @staticmethod
    def power(p: float) -> "DecayClass":
        return DecayClass(kind="power", p=float(p))

    @staticmethod
    def stretched_exponential(mu: float, s: float) -> "DecayClass":
        if mu <= 0 or s <= 0:
            raise ValueError("stretched_exponential requires mu > 0 and s > 0")
        return DecayClass(kind="stretched_exponential", mu=float(mu), s=float(s))

    @staticmethod
    def none() -> "DecayClass":
        return DecayClass(kind="none")


@dataclass
class CoefficientTable:
    """W^(r_i, m) on the radial grid for |m| <= m_max.

    ``values`` has shape (n_r, 2*m_max + 1); column index is m + m_max.
    """

    r: np.ndarray
    m_max: int
    values: np.ndarray

    @property
    def m(self) -> np.ndarray:
        return np.arange(-self.m_max, self.m_max + 1)

    def column(self, m: int) -> np.ndarray:
        if abs(m) > self.m_max:
            raise IndexError(f"|m| = {abs(m)} exceeds m_max = {self.m_max}")
        return self.values[:, m + self.m_max]

    def hermitian_error(self) -> float:
        """max |W^(r,-m) - conj W^(r,m)|; zero (to roundoff) for real W."""
        flipped = self.values[:, ::-1]
        return float(np.max(np.abs(flipped - np.conj(self.values))))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def copy(self) -> "CoefficientTable":
        return CoefficientTable(r=self.r.copy(), m_max=self.m_max,
                                values=self.values.copy())


@dataclass
class AngularPotential:
    """An angular perturbation, either as a closed form or a coefficient table."""

    w: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    table: Optional[CoefficientTable] = None
    envelope: Optional[GevreyEnvelope] = None
    decay: DecayClass = field(default_factory=DecayClass.none)

    def coefficients(self, grid, m_max: int) -> CoefficientTable:
        """W^ for |m| <= m_max: sliced from the table, or by quadrature on
        max(4 m_max, 16) angles."""
        if self.table is not None:
            if self.table.m_max < m_max:
                raise ValueError("stored table has fewer modes than requested")
            lo = self.table.m_max - m_max
            return CoefficientTable(
                r=self.table.r, m_max=m_max,
                values=self.table.values[:, lo:lo + 2 * m_max + 1])
        if self.w is None:
            raise ValueError("potential has neither closed form nor table")
        return fourier_coefficients(self.w, grid, m_max, max(4 * m_max, 16))


def default_m_max(envelope: GevreyEnvelope, grid) -> int:
    """Smallest M <= 256 with b_max * exp(-a M^zeta) < 1e-12 (angular
    truncation rule); 256 when none is."""
    b_max = float(np.max(np.abs(envelope.b(grid.nodes))))
    if b_max <= 1e-12:
        return 1
    for m in range(1, 257):
        if b_max * np.exp(-envelope.a * m ** envelope.zeta) < 1e-12:
            return m
    return 256


def fourier_coefficients(w, grid, m_max: int, n_theta: int) -> CoefficientTable:
    """Angular Fourier coefficients of a closed-form W(r, theta) on the grid.

    ``w`` must accept broadcastable arrays (r[:, None], theta[None, :]).
    Requires n_theta >= 4 * m_max so the retained modes are alias-free.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if n_theta < 4 * m_max:
        raise ValueError(
            f"n_theta = {n_theta} < 4*m_max = {4 * m_max}: retained modes would alias")
    r = grid.nodes
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    samples = np.asarray(w(r[:, None], theta[None, :]), dtype=complex)
    if samples.shape != (r.size, n_theta):
        samples = np.broadcast_to(samples, (r.size, n_theta)).copy()
    # DFT row-wise: F[:, m] = sum_l samples[:, l] exp(-2 pi i m l / n)
    f = np.fft.fft(samples, axis=1)
    cols = np.concatenate([np.arange(-m_max, 0) % n_theta, np.arange(0, m_max + 1)])
    values = (SQRT_2PI / n_theta) * f[:, cols]
    return CoefficientTable(r=r.copy(), m_max=m_max, values=values)


@dataclass
class GevreyReport:
    """Pointwise envelope verdicts and the tightest admissible decay rate."""

    ok: np.ndarray               # shape (n_r, 2*m_max+1)
    passed: bool
    tightest_a: float            # largest a such that the envelope holds with this b
    worst_ratio: float           # max (|W^| - floor) / bound (<= 1 iff passed)


def gevrey_validate(table: CoefficientTable, envelope: GevreyEnvelope,
                    rtol: float = 1e-9) -> GevreyReport:
    """Check |W^(r_i, m)| <= b(r_i) exp(-a |m|^zeta) entry by entry.

    Error model: FFT round-off is absolute, of order eps max|W^| in every
    entry whatever m (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 24.1).  So an entry passes when its excess
    over the floor 4 eps max|W^| is at most b exp(-a |m|^zeta) (1 + rtol);
    an entry at or below the floor holds for every a, and ``tightest_a``
    and ``worst_ratio`` read the excess.
    """
    m = table.m
    bound = envelope.bound(table.r, m)
    mag = np.abs(table.values)
    excess = np.maximum(mag - 4.0 * np.finfo(float).eps * mag.max(initial=0.0), 0.0)
    ok = excess <= bound * (1.0 + rtol)
    ratio = np.divide(excess, bound, out=np.where(excess > 0, np.inf, 0.0), where=bound > 0)

    # tightest a: for each entry with m != 0 and an excess, the envelope
    # holds iff a <= (log b - log excess) / |m|^zeta; take the min.
    b_r = np.asarray(envelope.b(table.r), dtype=float)[:, None]
    nz = (np.abs(m)[None, :] > 0) & (excess > 0)
    with np.errstate(divide="ignore"):
        slack = (np.log(b_r) - np.log(np.where(nz, excess, 1.0))) \
            / np.abs(m)[None, :] ** envelope.zeta
    tightest = float(slack[nz].min(initial=np.inf))
    return GevreyReport(ok=ok, passed=bool(ok.all()), tightest_a=tightest,
                        worst_ratio=float(ratio.max(initial=0.0)))


def symmetric_split(table: CoefficientTable):
    """Split into the radial part W_s(r) and the nonsymmetric remainder.

    W_s(r_i) = W^(r_i, 0) / sqrt(2 pi); the returned table has the m = 0
    column zeroed.
    """
    w_s = table.column(0) / SQRT_2PI
    if np.max(np.abs(w_s.imag)) > 1e-10 * max(1.0, np.max(np.abs(w_s))):
        raise ValueError("m = 0 coefficient has a non-negligible imaginary part; "
                         "W is not real-valued")
    rest = table.copy()
    rest.values[:, table.m_max] = 0.0
    return w_s.real, rest


def xi_constant(a: float, zeta: float, tol: float = 1e-14) -> float:
    """sum_{m in Z} exp(-(a/2) |m|^zeta), truncated with an integral tail bound.

    The partial sum stops at the first M whose tail bound
    int_M^inf exp(-(a/2) x^zeta) dx (an upper bound for the remaining terms,
    by monotonicity) falls below tol.
    """
    if a <= 0:
        raise ValueError("xi_constant requires a > 0")
    if not (0 < zeta <= 1):
        raise ValueError("xi_constant requires 0 < zeta <= 1")
    c = 0.5 * a
    total = 1.0
    m = 0
    while True:
        m += 1
        total += 2.0 * np.exp(-c * m ** zeta)
        # integral comparison: sum_{k > m} f(k) <= int_m^inf f(x) dx
        tail = (gamma(1.0 / zeta) / (zeta * c ** (1.0 / zeta))
                * gammaincc(1.0 / zeta, c * m ** zeta))
        if 2.0 * tail < tol:
            return float(total)
        if m > 10_000_000:  # pragma: no cover - tol would have to be absurd
            raise RuntimeError("xi_constant failed to converge")


def save_table_csv(table: CoefficientTable, path) -> None:
    """Write the coefficient table as CSV rows (i, r_i, m, re, im)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "r_i", "m", "re", "im"])
        for i, r in enumerate(table.r):
            for m in table.m:
                v = table.values[i, m + table.m_max]
                writer.writerow([i, f"{r:.17g}", m, f"{v.real:.17g}", f"{v.imag:.17g}"])


def load_table_csv(path) -> CoefficientTable:
    """Read a coefficient table written by :func:`save_table_csv`."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:5] != ["i", "r_i", "m", "re", "im"]:
            raise ValueError(f"unexpected coefficient CSV header: {header}")
        for row in reader:
            rows.append((int(row[0]), float(row[1]), int(row[2]),
                         float(row[3]), float(row[4])))
    if not rows:
        raise ValueError("empty coefficient table")
    n_r = max(r[0] for r in rows) + 1
    m_max = max(abs(r[2]) for r in rows)
    r_nodes = np.zeros(n_r)
    values = np.zeros((n_r, 2 * m_max + 1), dtype=complex)
    for i, r, m, re, im in rows:
        r_nodes[i] = r
        values[i, m + m_max] = re + 1j * im
    return CoefficientTable(r=r_nodes, m_max=m_max, values=values)
