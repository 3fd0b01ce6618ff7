import dataclasses

import numpy as np
import pytest

from fluxlab.angular import AngularPotential, DecayClass, GevreyEnvelope
from fluxlab.flux import FluxProfile
from fluxlab.grid import build_grid
from fluxlab.spectral import (SpectralWindow, assemble_hamiltonian, diagonalize,
                              make_window, spectral_projection)
from fluxlab.weights import (WeightSequence, build_weight, decay_rate_fit,
                             forbidden_region_check, tunnelling_exterior_sum,
                             tunnelling_interior_sum, twisted_gap_check,
                             weight_validate)


def linear_projection(j_max=6, n_r=400, r_max=20.0, upper=0.5):
    profile = FluxProfile.linear(1.0)
    grid = build_grid(n_r, r_max)
    h = assemble_hamiltonian(profile, None, grid, j_max)
    es = diagonalize(h, window_upper=upper)
    window = SpectralWindow(e0=float(es.eigenvalues[0]), E0=upper,
                            delta0=0.1 * (upper - float(es.eigenvalues[0])), c0=0.0)
    return profile, grid, h, window, spectral_projection(h, window, eigensystem=es)


def test_interior_weight_closed_form():
    w = WeightSequence(kind="interior", zeta=1.0, eps=0.5, j0=0, sigma_plus=2.0)
    r = np.linspace(0.01, 2.0, 50)
    expected = 2.0 * np.clip(1.0 - r, 0.0, None)
    assert np.allclose(w.values(4, r), expected)
    assert np.allclose(w.values(-4, r), expected)
    # support ends exactly at eps |j|^{zeta/sigma}
    assert np.all(w.values(4, r[r >= 1.0]) == 0.0)
    assert np.all(w.derivative_abs(4, r[r > 1.0]) == 0.0)


def test_zero_weight():
    w = WeightSequence(kind="zero")
    r = np.linspace(0.1, 5.0, 20)
    for j in (-3, 0, 7):
        assert np.all(w.values(j, r) == 0.0)
        assert np.all(w.derivative_abs(j, r) == 0.0)


def test_mobility_weight_eta_threshold():
    # lam = 1, E~ = 0.5: 2 lam / eta1 <= (lam^2 - E)/2 forces eta1 >= 8
    profile = FluxProfile.linear(1.0)
    grid = build_grid(200, 30.0)
    window = SpectralWindow(e0=0.0, E0=0.45, delta0=0.05, c0=0.0)
    assert window.e_tilde == pytest.approx(0.5)
    w = build_weight("mobility", profile, window, grid, 1.0, 4)
    assert w.eta1 >= 8.0
    assert w.eta1 == pytest.approx(8.0, rel=1e-9)
    assert w.delta1 <= np.sqrt(0.25) + 1e-12


def test_mobility_weight_requires_subcritical_window():
    profile = FluxProfile.linear(1.0)
    grid = build_grid(100, 20.0)
    window = SpectralWindow(e0=0.0, E0=1.2, delta0=0.1, c0=0.0)
    with pytest.raises(ValueError):
        build_weight("mobility", profile, window, grid, 1.0, 4)


def test_built_weights_validate_on_their_grid():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(300, 12.0)
    window = SpectralWindow(e0=0.4, E0=1.0, delta0=0.06, c0=0.1)
    a, zeta, j_max = 1.5, 1.0, 10
    for kind in ("interior", "exterior"):
        w = build_weight(kind, profile, window, grid, zeta, j_max, a=a)
        report = weight_validate(w, profile, window, grid, j_max, a=a, zeta=zeta)
        assert report.passed, (kind, report)
        assert report.max_exp_weight_on_allowed == pytest.approx(1.0)


def test_cross_channel_bound_holds_exactly_as_stated():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(200, 10.0)
    window = SpectralWindow(e0=0.4, E0=1.0, delta0=0.06, c0=0.0)
    a, zeta, j_max = 1.2, 1.0, 8
    w = build_weight("interior", profile, window, grid, zeta, j_max, a=a)
    f = w.matrix(np.arange(-j_max, j_max + 1), grid.nodes)
    channels = np.arange(-j_max, j_max + 1)
    for c1 in range(len(channels)):
        for c2 in range(len(channels)):
            diff = np.max(np.abs(f[c1] - f[c2]))
            assert diff <= 0.5 * a * abs(channels[c1] - channels[c2]) ** zeta + 1e-12


def test_interior_weight_with_doubled_eps_fails_lipschitz():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(200, 10.0)
    window = SpectralWindow(e0=0.4, E0=1.0, delta0=0.06, c0=0.0)
    a, zeta, j_max = 1.2, 1.0, 8
    w = build_weight("interior", profile, window, grid, zeta, j_max, a=a)
    doubled = WeightSequence(kind="interior", zeta=zeta, eps=2.0 * w.eps,
                             j0=w.j0, sigma_plus=w.sigma_plus)
    report = weight_validate(doubled, profile, window, grid, j_max, a=a, zeta=zeta)
    assert not report.lipschitz_ok


def test_weight_validate_zero_weight_passes():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(150, 8.0)
    window = SpectralWindow(e0=0.4, E0=1.0, delta0=0.06, c0=0.0)
    report = weight_validate(WeightSequence(kind="zero"), profile, window,
                             grid, 6, a=1.0, zeta=1.0)
    assert report.passed


def test_twisted_gap_zero_weight_zero_w():
    # with F = 0 and W = 0, H~ = H + E~ chi >= E0 + delta0 up to grid error
    profile, grid, h, window, _ = linear_projection(j_max=4, n_r=300, r_max=20.0,
                                                    upper=0.5)
    report = twisted_gap_check(h, WeightSequence(kind="zero"), window)
    assert report.passed
    assert report.lambda_min >= window.E0 + 0.5 * window.delta0


def test_twisted_gap_window_below_spectrum_passes_with_slack():
    profile = FluxProfile.uniform_field(2.0)
    grid = build_grid(200, 8.0)
    h = assemble_hamiltonian(profile, None, grid, 2)
    window = SpectralWindow(e0=0.5, E0=1.0, delta0=0.2, c0=0.0)
    report = twisted_gap_check(h, WeightSequence(kind="zero"), window)
    assert report.passed
    assert report.slack > 0.5


def test_twisted_gap_mobility_weight():
    profile, grid, h, window, _ = linear_projection(j_max=4, n_r=300, r_max=20.0,
                                                    upper=0.5)
    w = build_weight("mobility", profile, window, grid, 1.0, 4)
    report = twisted_gap_check(h, w, window)
    assert report.passed, report


def test_twisted_gap_fails_for_tripled_interior_eps():
    # must-fail twin of A6's coercivity check, on a model small enough for a
    # dense oracle: tripling eps breaks (F')^2 <= V - E~ and the twisted
    # operator acquires eigenvalues below E0 + delta0 / 2
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(120, 10.0)
    modes = np.arange(1, 30)
    env = GevreyEnvelope(a=1.5, zeta=1.0,
                         b=lambda r: np.sqrt(np.pi / 2) * 0.2 * np.exp(-r / 2))
    w = AngularPotential(
        w=lambda r, t: 0.2 * np.exp(-r / 2) * np.tensordot(
            np.exp(-1.5 * modes), np.cos(modes[:, None, None] * t[None]), axes=(0, 0)),
        envelope=env, decay=DecayClass.none())
    h = assemble_hamiltonian(profile, w, grid, 6)
    es = diagonalize(h, window_upper=1.0)
    window = make_window(h, float(es.eigenvalues[0]), 1.0, envelope=env)
    built = build_weight("interior", profile, window, grid, 1.0, 6, a=1.5)
    assert twisted_gap_check(h, built, window).passed

    tripled = dataclasses.replace(built, eps=3.0 * built.eps)
    report = twisted_gap_check(h, tripled, window)
    assert not report.passed and report.slack < 0

    f = np.exp(tripled.matrix(h.channels, grid.nodes).reshape(-1))
    allowed = np.concatenate([profile.effective_potential(int(j), grid.nodes)
                              <= window.e_tilde for j in h.channels])
    boosted = h.to_dense() + np.diag(window.e_tilde * allowed)
    twisted = 0.5 * (f[:, None] * boosted / f[None, :] + boosted * f[None, :] / f[:, None])
    assert report.lambda_min == pytest.approx(np.linalg.eigvalsh(twisted)[0], abs=1e-9)


def test_tunnelling_sums_rank_zero():
    profile, grid, h, window, _ = linear_projection(j_max=3, n_r=200, r_max=15.0,
                                                    upper=0.4)
    empty = SpectralWindow(e0=-2.0, E0=-1.0, delta0=0.1, c0=0.0)
    with pytest.warns(UserWarning):
        p0 = spectral_projection(h, empty)
    res = tunnelling_interior_sum(p0, 0.5, 0.3, 1.0, 1.5)
    assert res.partial_sum == 0.0
    assert np.all(res.norms == 0.0)
    res_e = tunnelling_exterior_sum(p0, 1.5, 0.1, 1.0, 1.5)
    assert res_e.partial_sum == 0.0


def test_interior_terms_decay_for_linear_flux():
    _, grid, h, window, p = linear_projection(j_max=8, n_r=600, r_max=30.0,
                                              upper=0.5)
    # inner turning point of channel j at E = 0.5 is j / (1 + sqrt(0.5));
    # mask strictly inside it
    res = tunnelling_interior_sum(p, 0.3, 0.0, 1.0, 1.0)
    pos = res.norms[res.j > 2]
    jpos = res.j[res.j > 2]
    assert np.all(pos > 0)
    slope, _, r2 = decay_rate_fit(jpos.astype(float), pos)
    assert slope < -0.1
    assert r2 > 0.9


def test_exterior_zero_delta_is_contraction():
    _, grid, h, window, p = linear_projection(j_max=6, n_r=400, r_max=25.0,
                                              upper=0.5)
    res = tunnelling_exterior_sum(p, 1.5, 0.0, 1.0, 1.0)
    assert np.all(res.norms <= 1.0 + 1e-9)


def test_interior_sum_stable_under_j_max_extension():
    _, _, _, _, p10 = linear_projection(j_max=10, n_r=500, r_max=30.0, upper=0.5)
    _, _, _, _, p14 = linear_projection(j_max=14, n_r=500, r_max=30.0, upper=0.5)
    s10 = tunnelling_interior_sum(p10, 0.25, 0.05, 1.0, 1.0)
    s14 = tunnelling_interior_sum(p14, 0.25, 0.05, 1.0, 1.0)
    assert s14.partial_sum == pytest.approx(s10.partial_sum, rel=0.01)
    assert s14.tail_ratio < 1.0


def test_decay_rate_fit_exact_and_errors():
    j = np.arange(1, 9, dtype=float)
    slope, intercept, r2 = decay_rate_fit(j, 3.0 * np.exp(-0.5 * j))
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0)

    s0, _, r2c = decay_rate_fit(j, np.full(8, 2.0))
    assert s0 == pytest.approx(0.0, abs=1e-14)
    assert r2c == 1.0

    with pytest.raises(ValueError):
        decay_rate_fit(j[:3], np.ones(3))
    with pytest.raises(ValueError):
        decay_rate_fit(j, np.array([1, 1, 0, 1, 1, 1, 1, 1.0]))


def test_forbidden_region_bounds_power_law():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(800, 20.0)
    report = forbidden_region_check(profile, 1.0, grid, 16)
    assert report.interior_ok, report
    assert report.exterior_ok, report
    assert report.exterior_level > 0


def test_exterior_scan_raises_when_no_admissible_parameters():
    # a window so high the whole grid is classically allowed: every eta fails
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(100, 6.0)
    window = SpectralWindow(e0=0.0, E0=500.0, delta0=1.0, c0=0.0)
    with pytest.raises(ValueError):
        build_weight("exterior", profile, window, grid, 1.0, 4, a=1.0)
    # the interior weight can always retreat below the first node, where the
    # centrifugal wall dominates any window; its support just shrinks
    w = build_weight("interior", profile, window, grid, 1.0, 4, a=1.0)
    assert 0 < w.eps < 0.1


def test_weight_kind_preconditions():
    grid = build_grid(100, 8.0)
    window = SpectralWindow(e0=0.0, E0=0.5, delta0=0.05, c0=0.0)
    linear = FluxProfile.linear(1.0)
    with pytest.raises(ValueError):
        build_weight("interior", linear, window, grid, 1.0, 4, a=1.0)
    with pytest.raises(ValueError):
        build_weight("exterior", linear, window, grid, 1.0, 4, a=1.0)
    with pytest.raises(ValueError):
        build_weight("mobility", FluxProfile.power_law(1.0, 1.5), window,
                     grid, 1.0, 4)
