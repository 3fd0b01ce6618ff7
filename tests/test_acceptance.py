"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Models and tolerances are frozen here; every expected value is either an
analytic oracle (Landau levels, closed-form sums), an exactly computable
identity, or a stated tolerance on a measured quantity.
"""

import numpy as np
import pytest

from fluxlab.angular import (AngularPotential, DecayClass, GevreyEnvelope,
                             xi_constant)
from fluxlab.dynamics import (bound_check_thm1, geometric_times,
                              growth_fit_thm2, heisenberg_check,
                              mobility_edge_scan, moment_j, prepare_state,
                              propagate, record_observables)
from fluxlab.flux import FluxProfile
from fluxlab.grid import build_channel_operator, build_grid
from fluxlab.spectral import (SpectralWindow, assemble_hamiltonian,
                              diagonalize, estimate_c0, spectral_projection)
from fluxlab.weights import (build_weight, decay_rate_fit,
                             tunnelling_interior_sum, twisted_gap_check,
                             weight_validate)


def _criterion(name: str, ok: bool, detail: str = ""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def _gevrey_potential(radial, decay, amp=0.2, a=1.5):
    """Analytic-in-theta perturbation amp * radial(r) * sum e^{-am} cos(m theta)."""
    modes = np.arange(1, 30)
    mode_amp = np.exp(-a * modes)

    def w_fn(r, theta):
        ang = np.tensordot(mode_amp,
                           np.cos(modes[:, None, None] * theta[None, :, :]),
                           axes=(0, 0))
        return amp * radial(r) * ang

    env = GevreyEnvelope(a=a, zeta=1.0,
                         b=lambda r: np.sqrt(np.pi / 2.0) * amp * np.abs(radial(r)))
    return AngularPotential(w=w_fn, envelope=env, decay=decay)


def _window_projection(h, upper, envelope=None):
    es = diagonalize(h, window_upper=upper)
    e0 = float(es.eigenvalues[0])
    c0 = 0.0
    if envelope is not None:
        c0 = estimate_c0(envelope.b, envelope.a, envelope.zeta, h.grid)
    window = SpectralWindow(e0=e0, E0=upper, delta0=0.1 * (upper - e0), c0=c0)
    return window, spectral_projection(h, window, eigensystem=es)


@pytest.fixture(scope="module")
def tunnelling_lab():
    """power_law(1, 1.5) with a zeta = 1 Gevrey W; shared by A3, A4, A6."""
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(540, 18.0)
    w = _gevrey_potential(lambda r: np.exp(-r / 2.0),
                          DecayClass.stretched_exponential(0.5, 1.0))
    h = assemble_hamiltonian(profile, w, grid, 24)
    window, proj = _window_projection(h, 1.0, envelope=w.envelope)
    return profile, grid, w, h, window, proj


def test_A1_landau_oracle():
    profile = FluxProfile.uniform_field(2.0)
    checks = [(j, 0, 2.0) for j in range(0, 7)] + [(-1, 0, 6.0)]
    worst_rel, worst_ratio = 0.0, (np.inf, 0.0)
    ratios = []
    for j, n, exact in checks:
        coarse = build_channel_operator(profile, j, build_grid(2000, 12.0))
        fine = build_channel_operator(profile, j, build_grid(4000, 12.0))
        e_c = coarse.eigenvalues(n + 1)[n]
        e_f = fine.eigenvalues(n + 1)[n]
        rel = abs(e_c - exact) / exact
        worst_rel = max(worst_rel, rel)
        ratios.append(abs(e_c - exact) / abs(e_f - exact))
    ok = worst_rel <= 1e-3 and all(3.5 <= r <= 4.5 for r in ratios)
    _criterion("A1 (Landau oracle)", ok,
               f"worst rel err {worst_rel:.2e}, halving ratios "
               f"[{min(ratios):.3f}, {max(ratios):.3f}]")


def test_A2_projector_unitarity_suite():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(400, 12.0)
    env = GevreyEnvelope(a=1.0, zeta=1.0, b=lambda r: np.exp(-r))
    w_radial = AngularPotential(
        w=lambda r, t: 0.5 * np.exp(-r) * np.ones_like(t),
        envelope=env, decay=DecayClass.none())
    h = assemble_hamiltonian(profile, w_radial, grid, 6, m_max=2)
    window, proj = _window_projection(h, 1.0, envelope=env)
    idem = proj.idempotency_error()

    state = prepare_state(proj, {"kind": "gaussian", "j0": 4.0, "r0": 3.0,
                                 "width_j": 2.0, "width_r": 1.0})
    states = propagate(proj, state, np.linspace(0.0, 200.0, 200))
    norms = np.array([s.norm2() for s in states])
    drift = float(np.max(np.abs(norms - norms[0])))
    cn = np.stack([s.channel_norm2() for s in states])
    channel_drift = float(np.max(np.abs(cn - cn[0][None, :])))
    ok = idem <= 1e-10 and drift <= 1e-10 and channel_drift <= 1e-10
    _criterion("A2 (projector/unitarity suite)", ok,
               f"idempotency {idem:.2e}, norm drift {drift:.2e}, "
               f"radial-W channel drift {channel_drift:.2e} over 200 times")


def test_A3_interior_tunnelling_decay(tunnelling_lab):
    profile, grid, w, h, window, proj = tunnelling_lab
    j_max = 24
    interior = build_weight("interior", profile, window, grid, 1.0, j_max,
                            a=w.envelope.a)
    result = tunnelling_interior_sum(proj, 0.4, interior.eps, 1.0,
                                     profile.sigma_plus)
    # shell-maximal norms over the upper half of retained channels
    ms = np.arange(j_max // 2, j_max + 1)
    shell = np.array([max(result.norms[result.j == m].max(),
                          result.norms[result.j == -m].max()) for m in ms])
    assert np.all(shell > 1e-13), "masked norms fell to noise level"
    slope, _, r2 = decay_rate_fit(ms.astype(float), shell)
    ok = slope < 0 and r2 >= 0.9 and result.tail_ratio < 1.0
    _criterion("A3 (interior tunnelling decay)", ok,
               f"slope {slope:.3f}, r^2 {r2:.4f}, weighted-sum tail ratio "
               f"{result.tail_ratio:.3f} (c+ = 0.4, delta+ = {interior.eps:.3f})")


def test_A4_theorem1_ratio_boundedness(tunnelling_lab):
    profile, grid, w, h, window, proj = tunnelling_lab
    state = prepare_state(proj, {"kind": "gaussian", "j0": 12.0, "r0": 5.2,
                                 "width_j": 4.0, "width_r": 1.2})
    nu = 1.5
    beta = 1.0 * nu / profile.sigma_minus          # zeta nu / sigma_-
    series = record_observables(proj, state, geometric_times(1.0, 1000.0, 48),
                                nu=nu, beta=beta)
    report = bound_check_thm1(series)
    ok = np.isfinite(report.sup_ratio) and report.trend_ok
    _criterion("A4 (theorem-1 ratio boundedness)", ok,
               f"sup ratio {report.sup_ratio:.4f}, quartile means "
               f"{report.first_quartile_mean:.4f} -> {report.last_quartile_mean:.4f}")


def test_A5_theorem2_growth_exponents():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(540, 18.0)
    times = geometric_times(1.0, 1000.0, 48)
    seed = {"kind": "gaussian", "j0": 12.0, "r0": 5.2,
            "width_j": 4.0, "width_r": 1.2}
    details = []
    ok = True

    # power-law decay W_ns ~ r^-4: gamma beta = 1.5 / (4 - 1.5) = 0.6
    w_pow = _gevrey_potential(lambda r: (1.0 + r) ** (-4.0), DecayClass.power(4.0))
    h = assemble_hamiltonian(profile, w_pow, grid, 24)
    _, proj = _window_projection(h, 1.0, envelope=w_pow.envelope)
    state = prepare_state(proj, seed)
    series = record_observables(proj, state, times, nu=1.5, beta=1.0)
    fit = growth_fit_thm2(series, "power", 1.0, profile.sigma_plus, p=4.0,
                          slack=0.1, baseline=moment_j(state, 1.0))
    assert fit.bound == pytest.approx(0.6)
    ok &= fit.passed and fit.fitted_exponent <= 0.7
    details.append(f"power p=4: fitted {fit.fitted_exponent:.3f} <= 0.7"
                   f"{' (no measurable growth)' if fit.flat else ''}")

    # stretched-exponential decay W_ns ~ e^-r: theta = 1/min(1, 1/1.5) = 1.5
    w_exp = _gevrey_potential(lambda r: np.exp(-r),
                              DecayClass.stretched_exponential(1.0, 1.0))
    h = assemble_hamiltonian(profile, w_exp, grid, 24)
    _, proj = _window_projection(h, 1.0, envelope=w_exp.envelope)
    state = prepare_state(proj, seed)
    series = record_observables(proj, state, times, nu=1.5, beta=1.0)
    fit = growth_fit_thm2(series, "stretched_exponential", 1.0,
                          profile.sigma_plus, s=1.0, slack=0.2,
                          baseline=moment_j(state, 1.0))
    assert fit.bound == pytest.approx(1.5)
    ok &= fit.passed and fit.fitted_exponent <= 1.5 + 0.2
    details.append(f"exp s=1: (ln t)-power {fit.fitted_exponent:.3f} <= 1.7"
                   f"{' (no measurable growth)' if fit.flat else ''}")
    _criterion("A5 (theorem-2 exponents)", bool(ok), "; ".join(details))


def test_A6_weight_hypotheses(tunnelling_lab):
    profile, grid, w, h, window, proj = tunnelling_lab
    j_max = 24
    details = []
    ok = True
    for kind in ("interior", "exterior"):
        weight = build_weight(kind, profile, window, grid, 1.0, j_max,
                              a=w.envelope.a)
        validation = weight_validate(weight, profile, window, grid, j_max,
                                     a=w.envelope.a)
        gap = twisted_gap_check(h, weight, window)
        ok &= validation.passed and gap.passed and gap.slack >= 0
        details.append(f"{kind}: hypotheses "
                       f"{'ok' if validation.passed else 'VIOLATED'}, "
                       f"twisted slack {gap.slack:+.4f}")
    _criterion("A6 (weight hypotheses + coercivity)", bool(ok), "; ".join(details))


def test_A7_mobility_edge():
    grid = build_grid(3000, 60.0)
    report = mobility_edge_scan(1.0, grid, 3, low_band=(0.1, 0.8),
                                high_band=(1.8, 2.2), box_growth=1.5)
    assert not report.empty_low_band and not report.empty_high_band
    decays = np.array([rec.decay_rate for rec in report.localized])
    shifts = np.array([rec.eigenvalue_shift for rec in report.localized])
    ratios = np.array(report.extended_width_ratios)
    ok = (np.all(decays >= 0.05) and np.all(shifts < 1e-6)
          and np.all(ratios >= 1.4))
    _criterion("A7 (mobility edge)", bool(ok),
               f"{len(report.localized)} localized states, min decay "
               f"{decays.min():.3f}, max box shift {shifts.max():.2e}, "
               f"min width ratio {ratios.min():.2f}")


def test_A8_micro_oracles():
    closed = (1.0 + np.exp(-1.0)) / (1.0 - np.exp(-1.0))
    xi_err = abs(xi_constant(2.0, 1.0) - closed)

    rng = np.random.default_rng(2024)
    j = rng.integers(-10_000, 10_001, size=10_000)
    k = rng.integers(-10_000, 10_001, size=10_000)
    zeta = rng.uniform(0.05, 1.0, size=10_000)
    violations = int(np.sum(np.abs(j + k).astype(float) ** zeta
                            > np.abs(j).astype(float) ** zeta
                            + np.abs(k).astype(float) ** zeta + 1e-12))

    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(160, 10.0)
    w = _gevrey_potential(lambda r: np.exp(-r / 2.0),
                          DecayClass.stretched_exponential(0.5, 1.0), amp=0.3,
                          a=1.0)
    h = assemble_hamiltonian(profile, w, grid, 6, m_max=3)
    _, proj = _window_projection(h, 1.0)
    state = prepare_state(proj, {"kind": "gaussian", "j0": 4.0, "r0": 3.0,
                                 "width_j": 2.0, "width_r": 1.0})
    residuals = []
    for n in (41, 81):
        states = propagate(proj, state, np.linspace(0.0, 6.0, n))
        residuals.append(heisenberg_check(states, h).max_residual)
    ratio = residuals[0] / residuals[1]

    ok = xi_err < 1e-12 and violations == 0 and 3.5 <= ratio <= 4.5
    _criterion("A8 (micro-oracles)", ok,
               f"xi error {xi_err:.2e}, triangle violations {violations}/10000, "
               f"Heisenberg halving ratio {ratio:.3f}")
