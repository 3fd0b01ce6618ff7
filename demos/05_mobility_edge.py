"""Mobility edge for linear flux: localized below lam^2, extended above.

With Phi(r) = lam r the spectrum is dense pure point on [0, lam^2) and
absolutely continuous above.  On a finite box the two phases show up as
(a) box-size-insensitive eigenvalues with exponentially decaying
eigenfunctions below the edge, and (b) participation widths that scale with
the box above it.
"""

import numpy as np

from fluxlab import FluxProfile, build_channel_operator, build_grid, classical_region
from fluxlab.dynamics import mobility_edge_scan, participation_width

LAM = 1.0
GROWTH = 1.5
grid = build_grid(3000, 60.0)
print(f"linear flux, lam = {LAM}: edge at lam^2 = {LAM ** 2}")

report = mobility_edge_scan(LAM, grid, 3, low_band=(0.1, 0.8),
                            high_band=(1.8, 2.2), box_growth=GROWTH)
profile = FluxProfile.linear(LAM)

print("\nBelow the edge (band [0.1, 0.8]):")
print(f"  j   eigenvalue   classical region      decay rate   shift under {GROWTH}x box")
for rec in report.localized:
    region = classical_region(profile, rec.j, rec.eigenvalue, grid)
    lo, hi = region.interval
    # the grown box's eigenvalues are bisected to eps |T|_1 of each channel's
    # tridiagonal T, so a smaller shift is rounding, not box sensitivity
    tol = rec.shift_resolution
    shift = f"{rec.eigenvalue_shift:.2e}" if rec.eigenvalue_shift >= tol \
        else f"unresolved (< {tol:.1e})"
    print(f"  {rec.j}   {rec.eigenvalue:.6f}    [{lo:5.2f}, {hi:5.2f}]    "
          f"  {rec.decay_rate:8.4f}     {shift}")

print("\nAbove the edge (band [1.8, 2.2]): participation width vs a 2x box")
print(f"  per-channel width ratios: "
      f"{np.round(report.extended_width_ratios, 3).tolist()}")
print(f"  (ballistic/extended states fill the box: ratio ~ 2)")

# a closer look at one localized state: amplitude profile past the turning point
op = build_channel_operator(profile, 2, grid)
vals, u = op.eigenpairs(value_range=(0.3, 0.6))
val = vals[0]
region = classical_region(profile, 2, float(val), grid)
r_hi = region.interval[1]
print(f"\nchannel j = 2 state at E = {val:.4f}: classically allowed up to "
      f"r = {r_hi:.2f}")
print(f"  participation width {participation_width(u[:, 0], grid.h):.2f}")
for r_probe in (r_hi + 2, r_hi + 6, r_hi + 10):
    idx = int(np.argmin(np.abs(grid.nodes - r_probe)))
    print(f"  |u({grid.nodes[idx]:5.2f})| = {abs(u[idx, 0]):.3e}")
