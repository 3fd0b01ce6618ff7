"""Wavepacket moments under the evolved window dynamics.

A window-projected Gaussian evolves exactly in the eigenbasis, and its
moments are read from the phased window coefficients; the radial moment
<|x|^nu>(t) is then compared against the angular-momentum moment through
the ratio

    <|x|^nu> / (|phi|^2 + <|J|^{nu/sigma}>),

which should stay bounded with no upward trend, and the growth of <|J|>(t)
above its initial value is fitted against the decay class of the
nonsymmetric part of the perturbation (t-power for power-law decay,
log-power for exponential decay).
"""

import numpy as np

from fluxlab import (FluxProfile, assemble_hamiltonian, bound_check_thm1,
                     build_grid, diagonalize, geometric_times,
                     growth_fit_thm2, moment_j, prepare_state,
                     record_observables, spectral_projection)
from fluxlab.angular import AngularPotential, DecayClass, GevreyEnvelope
from fluxlab.spectral import make_window

AMP, A_RATE = 0.2, 1.5
modes = np.arange(1, 30)
mode_amp = np.exp(-A_RATE * modes)
profile = FluxProfile.power_law(1.0, 1.5)
grid = build_grid(540, 18.0)
J_MAX = 24


def run(radial, decay, label):
    def w_fn(r, theta):
        ang = np.tensordot(mode_amp,
                           np.cos(modes[:, None, None] * theta[None, :, :]),
                           axes=(0, 0))
        return AMP * radial(r) * ang

    w = AngularPotential(
        w=w_fn,
        envelope=GevreyEnvelope(a=A_RATE, zeta=1.0,
                                b=lambda r: np.sqrt(np.pi / 2) * AMP * np.abs(radial(r))),
        decay=decay)
    h = assemble_hamiltonian(profile, w, grid, J_MAX)
    es = diagonalize(h, window_upper=1.0)
    window = make_window(h, es.lowest, 1.0, envelope=w.envelope)
    proj = spectral_projection(h, window, eigensystem=es)

    state = prepare_state(proj, {"kind": "gaussian", "j0": 12.0, "r0": 5.2,
                                 "width_j": 4.0, "width_r": 1.2})
    nu = 1.5
    beta = nu / profile.sigma_minus
    times = geometric_times(1.0, 1000.0, 48)
    series = record_observables(proj, state, times, nu=nu, beta=beta)

    print(f"\n=== {label} (window rank {proj.rank}) ===")
    print("    t        <|x|^1.5>    <|J|>       ratio")
    denom = series.norms[0] + series.j_moment
    for k in (0, 12, 24, 36, 47):
        print(f"{series.times[k]:9.2f}   {series.x_moment[k]:9.5f} "
              f"  {series.j_moment[k]:9.5f}   {series.x_moment[k] / denom[k]:.5f}")
    ratio = bound_check_thm1(series)
    print(f"ratio sup {ratio.sup_ratio:.5f}; quartile means "
          f"{ratio.first_quartile_mean:.5f} -> {ratio.last_quartile_mean:.5f} "
          f"({'no upward trend' if ratio.trend_ok else 'TRENDING UP'})")

    fit = growth_fit_thm2(series, decay.kind, 1.0, profile.sigma_plus,
                          p=decay.p, s=decay.s,
                          slack=0.2 if decay.kind == "stretched_exponential" else 0.1,
                          baseline=moment_j(state, beta))
    axis = "t" if fit.kind == "power" else "ln t"
    if fit.flat:
        print(f"J-moment growth: none measurable; bound ({axis})^{fit.bound:.2f} "
              "holds trivially")
    else:
        print(f"J-moment growth ~ ({axis})^{fit.fitted_exponent:.3f} vs bound "
              f"({axis})^{fit.bound:.2f} "
              f"({'within bound' if fit.passed else 'EXCEEDS BOUND'})")


run(lambda r: (1.0 + r) ** (-4.0), DecayClass.power(4.0),
    "power-law tail: W_ns ~ r^-4")
run(lambda r: np.exp(-r), DecayClass.stretched_exponential(1.0, 1.0),
    "exponential tail: W_ns ~ e^-r")
