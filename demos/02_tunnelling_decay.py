"""Interior tunnelling decay of spectral projections, channel by channel.

For the flux Phi(r) = r^1.5 each angular momentum channel j > 0 sees a
potential well centered near r = j^(2/3).  A window state with angular
momentum j therefore lives in an annulus, and the part of the spectral
projection P_j E_I caught by a mask [0, c j^(2/3)] deep inside the
centrifugal wall decays exponentially in j.  This script measures that
decay and the weighted partial sum that certifies it.
"""

import numpy as np

from fluxlab import (FluxProfile, assemble_hamiltonian, build_grid,
                     build_weight, decay_rate_fit, diagonalize,
                     spectral_projection, tunnelling_interior_sum)
from fluxlab.angular import AngularPotential, DecayClass, GevreyEnvelope
from fluxlab.spectral import make_window

# angularly analytic perturbation: modes m >= 1 with amplitudes e^{-1.5 m}
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
grid = build_grid(540, 18.0)
J_MAX = 24

h = assemble_hamiltonian(profile, w, grid, J_MAX)
print(f"Block Hamiltonian: {h.n_ch} channels x {grid.n_r} nodes = {h.dim}, "
      f"coupling bands up to m = {h.m_max}")

es = diagonalize(h, window_upper=1.0)
window = make_window(h, es.lowest, 1.0, envelope=w.envelope)
proj = spectral_projection(h, window, eigensystem=es)
print(f"Window [{window.e0:.4f}, 1.0]: rank {proj.rank}, boosted threshold "
      f"E~ = {window.e_tilde:.4f}")

interior = build_weight("interior", profile, window, grid, 1.0, J_MAX,
                        a=A_RATE)
print(f"Interior weight: eps = {interior.eps:.4f}, j0 = {interior.j0}")

result = tunnelling_interior_sum(proj, 0.4, interior.eps, 1.0, 1.5)
print("\n  j    mask radius    |1_mask P_j E_I|    weighted term")
for m in range(2, J_MAX + 1, 2):
    norm = result.norms[result.j == m][0]
    term = result.terms[result.j == m][0]
    print(f" {m:3d}      {0.4 * m ** (2 / 3):6.3f}        {norm:.3e}"
          f"         {term:.3e}")

upper = np.arange(J_MAX // 2, J_MAX + 1)
shell = np.array([result.norms[np.abs(result.j) == m].max() for m in upper])
slope, intercept, r2 = decay_rate_fit(upper.astype(float), shell)
print(f"\nDecay fit over j in [{upper[0]}, {J_MAX}]: "
      f"log|norm| = {slope:.3f} j + {intercept:.2f}   (r^2 = {r2:.4f})")
print(f"Weighted sum {result.partial_sum:.4e}, outermost shell ratio "
      f"{result.tail_ratio:.3f} (< 1: converging)")
