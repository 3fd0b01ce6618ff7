"""Grid validation of the exponential-weight hypotheses and coercivity.

The decay machinery rests on three conditions for a channel-indexed weight
family F_j: the derivative bound (F_j')^2 <= V_j - E~ off the classically
allowed set, boundedness of e^{F_j} on the allowed set, and the cross-channel
Lipschitz bound |F_j - F_k| <= (a/2)|j - k|.  When they hold, the symmetrized
exponentially twisted operator stays coercive above E0 + delta0/2.  All four
statements are checkable numbers on a finite grid; this script checks them.
"""

import numpy as np

from fluxlab import (FluxProfile, assemble_hamiltonian, build_grid,
                     build_weight, forbidden_region_check, twisted_gap_check,
                     weight_validate)
from fluxlab.angular import AngularPotential, DecayClass, GevreyEnvelope
from fluxlab.spectral import lowest_eigenvalue, make_window

AMP, A_RATE = 0.2, 1.5
modes = np.arange(1, 30)
mode_amp = np.exp(-A_RATE * modes)


def w_fn(r, theta):
    ang = np.tensordot(mode_amp, np.cos(modes[:, None, None] * theta[None, :, :]),
                       axes=(0, 0))
    return AMP * np.exp(-r / 2.0) * ang


w = AngularPotential(
    w=w_fn,
    envelope=GevreyEnvelope(a=A_RATE, zeta=1.0,
                            b=lambda r: np.sqrt(np.pi / 2) * AMP * np.exp(-r / 2)),
    decay=DecayClass.stretched_exponential(0.5, 1.0))

profile = FluxProfile.power_law(1.0, 1.5)
grid = build_grid(400, 15.0)
J_MAX = 16

h = assemble_hamiltonian(profile, w, grid, J_MAX)
window = make_window(h, lowest_eigenvalue(h.to_band()[0]).value, 1.0,
                     envelope=w.envelope)
print(f"window [{window.e0:.4f}, 1.0], c0 = {window.c0:.4f}, E~ = {window.e_tilde:.4f}")

frr = forbidden_region_check(profile, window.e_tilde, grid, J_MAX)
print(f"\nForbidden-region lower bounds at E~:")
print(f"  interior (j0 = {frr.interior_j0}, eps = {frr.interior_eps:.3f}): "
      f"{'ok' if frr.interior_ok else 'VIOLATED'}, "
      f"worst margin {frr.interior_worst_margin:+.3f}")
print(f"  exterior (eta = {frr.exterior_eta:.3f}, level = {frr.exterior_level:.3f}): "
      f"{'ok' if frr.exterior_ok else 'VIOLATED'}, "
      f"worst margin {frr.exterior_worst_margin:+.3f}")

for kind in ("interior", "exterior"):
    weight = build_weight(kind, profile, window, grid, 1.0, J_MAX, a=A_RATE)
    v = weight_validate(weight, profile, window, grid, J_MAX, a=A_RATE)
    gap = twisted_gap_check(h, weight, window)
    print(f"\n{kind} weight "
          + (f"(eps = {weight.eps:.4f}, j0 = {weight.j0})" if kind == "interior"
             else f"(c = {weight.c:.4f}, eta = {weight.eta:.4f})"))
    print(f"  (i)   derivative bound:     "
          f"{'ok' if v.derivative_ok.all() else 'VIOLATED'} "
          f"(worst margin {v.derivative_worst_margin:+.2e})")
    print(f"  (ii)  bounded on allowed:   "
          f"{'ok' if v.bounded_ok else 'VIOLATED'} "
          f"(max e^F there = {v.max_exp_weight_on_allowed:.6f})")
    print(f"  (iii) cross-channel bound:  "
          f"{'ok' if v.lipschitz_ok else 'VIOLATED'} "
          f"(worst excess {v.lipschitz_worst_excess:+.2e})")
    print(f"  twisted coercivity: lambda_min = {gap.lambda_min:.4f} vs "
          f"threshold {gap.threshold:.4f} -> slack {gap.slack:+.4f} "
          f"({'ok' if gap.passed else 'VIOLATED'})")
