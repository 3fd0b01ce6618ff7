import dataclasses

import numpy as np
import pytest

from fluxlab.angular import AngularPotential, DecayClass, GevreyEnvelope
from fluxlab.flux import FluxProfile
from fluxlab.grid import build_grid
from fluxlab.spectral import (SpectralWindow, assemble_hamiltonian, diagonalize,
                              make_window, spectral_projection)
from fluxlab.weights import (WeightSequence, _exterior_scan, _interior_scan,
                             build_weight, decay_rate_fit, forbidden_region_check,
                             tunnelling_exterior_sum, tunnelling_interior_sum,
                             twisted_gap_check, weight_validate)


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
    zero = WeightSequence(kind="zero")
    report = twisted_gap_check(h, zero, window)
    assert report.passed
    assert report.lambda_min >= window.E0 + 0.5 * window.delta0
    assert_matches_dense(h, report, dense_twisted_minimum(profile, h, zero, window),
                         rel=1e-9)


def test_twisted_gap_window_below_spectrum_passes_with_slack():
    profile = FluxProfile.uniform_field(2.0)
    grid = build_grid(200, 8.0)
    h = assemble_hamiltonian(profile, None, grid, 2)
    window = SpectralWindow(e0=0.5, E0=1.0, delta0=0.2, c0=0.0)
    zero = WeightSequence(kind="zero")
    report = twisted_gap_check(h, zero, window)
    assert report.passed
    assert report.slack > 0.5
    assert_matches_dense(h, report, dense_twisted_minimum(profile, h, zero, window),
                         rel=1e-9)


def test_twisted_gap_mobility_weight():
    profile, grid, h, window, _ = linear_projection(j_max=4, n_r=300, r_max=20.0,
                                                    upper=0.5)
    w = build_weight("mobility", profile, window, grid, 1.0, 4)
    report = twisted_gap_check(h, w, window)
    assert report.passed, report
    assert_matches_dense(h, report, dense_twisted_minimum(profile, h, w, window),
                         rel=1e-9)


def assert_matches_dense(h, report, dense, **tol):
    """lambda_min is the dense minimum, and the report's lower bound lies
    below it: Weyl's shift when W couples the channels, and the Sturm
    bisection's value, within its tolerance eps |A|_1, less a guard when the
    band is one tridiagonal."""
    dense_min, norm_1 = dense
    assert report.lambda_min == pytest.approx(dense_min, **tol)
    if h.is_block_diagonal:
        assert abs(report.lambda_min - dense_min) <= np.finfo(float).eps * norm_1
        assert report.lower_bound <= dense_min
    else:
        assert report.lower_bound < dense_min


def dense_twisted_minimum(profile, h, weight, window):
    """Lowest eigenvalue of the dense symmetrized twisted operator, and the
    operator's 1-norm; block-diagonal H is solved one channel block at a time."""
    f = np.exp(weight.matrix(h.channels, h.grid.nodes))
    allowed = np.stack([profile.effective_potential(int(j), h.grid.nodes)
                        <= window.e_tilde for j in h.channels])
    if h.is_block_diagonal:
        off = np.diag(h.off_diagonal, 1) + np.diag(h.off_diagonal, -1)
        blocks = [(np.diag(d) + off, fc, ac) for d, fc, ac in zip(h.diagonals, f, allowed)]
    else:
        blocks = [(h.to_dense(), f.reshape(-1), allowed.reshape(-1))]
    dense_min, norm_1 = np.inf, 0.0
    for a, fc, ac in blocks:
        boosted = a + np.diag(window.e_tilde * ac)
        twisted = 0.5 * (fc[:, None] * boosted / fc[None, :]
                         + boosted * fc[None, :] / fc[:, None])
        dense_min = min(dense_min, np.linalg.eigvalsh(twisted)[0])
        norm_1 = max(norm_1, np.max(np.sum(np.abs(twisted), axis=0)))
    return dense_min, norm_1


@pytest.mark.parametrize("scale, passed", [(1.0, True), (3.0, False)])
def test_twisted_gap_block_diagonal_lowest_matches_dense(scale, passed):
    # W = 0 keeps the twisted operator one channel-major tridiagonal
    # (kd = 1), whose lambda_min comes from bisection; the built mobility
    # weight passes and its tripled delta1 is the must-fail twin
    profile, grid, h, window, _ = linear_projection(j_max=4, n_r=200, r_max=20.0,
                                                    upper=0.5)
    assert h.to_band()[0].shape[0] == 2
    built = build_weight("mobility", profile, window, grid, 1.0, 4)
    weight = dataclasses.replace(built, delta1=scale * built.delta1)
    report = twisted_gap_check(h, weight, window)
    assert report.passed == passed
    assert_matches_dense(h, report, dense_twisted_minimum(profile, h, weight, window),
                         rel=1e-9)


def a6_twin_model():
    """A dim-1,560 Gevrey-W model small enough for a dense oracle, and its
    built interior weight."""
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
    return profile, h, window, built


def test_twisted_gap_fails_for_tripled_interior_eps():
    # must-fail twin of A6's coercivity check: tripling eps breaks
    # (F')^2 <= V - E~ and the twisted operator acquires eigenvalues below
    # E0 + delta0 / 2
    profile, h, window, built = a6_twin_model()
    report = twisted_gap_check(h, built, window)
    assert report.passed
    assert_matches_dense(h, report, dense_twisted_minimum(profile, h, built, window),
                         abs=1e-9)

    tripled = dataclasses.replace(built, eps=3.0 * built.eps)
    report = twisted_gap_check(h, tripled, window)
    assert not report.passed and report.slack < 0
    assert_matches_dense(h, report, dense_twisted_minimum(profile, h, tripled, window),
                         abs=1e-9)


def record_band_cholesky_shifts(monkeypatch):
    """The shift of every later ``BandCholesky`` construction."""
    from fluxlab import spectral
    shifts = []
    init = spectral.BandCholesky.__init__

    def recorded(self, ab, sigma):
        shifts.append(sigma)
        init(self, ab, sigma)

    monkeypatch.setattr(spectral.BandCholesky, "__init__", recorded)
    return shifts


def shift_of(report):
    """The shift just below the threshold that the verdict is taken at."""
    return pytest.approx(report.threshold - 1e-9 * max(1.0, abs(report.threshold)),
                         rel=1e-15)


def test_twisted_gap_fails_for_tenfold_interior_eps(monkeypatch):
    # far past the coercivity edge about 150 eigenvalues lie below the
    # threshold, and the cosh factors push the lowest to about -7.6e7; the
    # FAIL report still solves it from Weyl's shift, and that factor and the
    # verdict's at the shift are the only band Cholesky factors built
    profile, h, window, built = a6_twin_model()
    tenfold = dataclasses.replace(built, eps=10.0 * built.eps)
    shifts = record_band_cholesky_shifts(monkeypatch)
    report = twisted_gap_check(h, tenfold, window)
    assert not report.passed
    assert shifts == [report.lower_bound, shift_of(report)]
    assert_matches_dense(h, report, dense_twisted_minimum(profile, h, tenfold, window),
                         rel=1e-9)


@pytest.mark.parametrize("model, scale, passed", [
    ("coupled", 1.0, True), ("coupled", 3.0, False),
    ("w_zero", 1.0, True), ("w_zero", 3.0, False)])
def test_twisted_gap_factors_only_where_the_bound_leaves_the_verdict_open(
        model, scale, passed, monkeypatch):
    # a PASS whose certified lower bound clears the shift builds only the
    # factor at Weyl's shift (coupled) or none (tridiagonal); a FAIL adds
    # the verdict's factor at the shift
    if model == "coupled":
        _, h, window, built = a6_twin_model()
        weight = dataclasses.replace(built, eps=scale * built.eps)
    else:
        profile, grid, h, window, _ = linear_projection(j_max=4, n_r=200, upper=0.5)
        built = build_weight("mobility", profile, window, grid, 1.0, 4)
        weight = dataclasses.replace(built, delta1=scale * built.delta1)
    shifts = record_band_cholesky_shifts(monkeypatch)
    report = twisted_gap_check(h, weight, window)
    assert report.passed == passed
    weyl = [report.lower_bound] if model == "coupled" else []
    assert shifts == (weyl if passed else weyl + [shift_of(report)])


@pytest.mark.parametrize("scale, passed", [(1.55, True), (1.6, False)])
def test_twisted_gap_verdict_factor_decides_where_weyl_shift_is_below_threshold(
        scale, passed, monkeypatch):
    # at 1.55 eps Weyl's shift (0.977) lies below the threshold (1.010) and
    # lambda_min (1.074) above it: the bound cannot settle the PASS and the
    # factor at the shift decides it; at 1.6 eps lambda_min (0.904) falls
    # below the threshold, the must-fail twin on the same path
    profile, h, window, built = a6_twin_model()
    weight = dataclasses.replace(built, eps=scale * built.eps)
    shifts = record_band_cholesky_shifts(monkeypatch)
    report = twisted_gap_check(h, weight, window)
    assert report.lower_bound < report.threshold
    assert report.passed == passed == (report.lambda_min > report.threshold)
    assert shifts == [report.lower_bound, shift_of(report)]
    assert_matches_dense(h, report, dense_twisted_minimum(profile, h, weight, window),
                         abs=1e-9)


@pytest.mark.parametrize("scale, passed", [(1.0, True), (3.0, False)])
def test_twisted_gap_complex_hermitian_matches_dense(scale, passed):
    # W = cos + sin(2 theta)/2 makes H complex Hermitian; the band keeps the
    # conjugated upper couplings and every band row carries its cosh factor
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(90, 8.0)
    w = AngularPotential(
        w=lambda r, t: 0.3 * np.exp(-r / 2) * (np.cos(t) + 0.5 * np.sin(2 * t)),
        envelope=GevreyEnvelope(a=0.7, zeta=1.0, b=lambda r: np.exp(-r / 2)),
        decay=DecayClass.none())
    h = assemble_hamiltonian(profile, w, grid, 6, m_max=3)
    assert np.iscomplexobj(h.to_band()[0])
    es = diagonalize(h, window_upper=1.0)
    window = make_window(h, float(es.eigenvalues[0]), 1.0)
    built = build_weight("interior", profile, window, grid, 1.0, 6, a=0.7)
    weight = dataclasses.replace(built, eps=scale * built.eps)
    report = twisted_gap_check(h, weight, window)
    assert report.passed == passed
    assert_matches_dense(h, report, dense_twisted_minimum(profile, h, weight, window),
                         abs=1e-9)


def test_twisted_gap_keeps_allowed_node_where_e_tilde_equals_v():
    # E~ equals V_{-2} at the node r = 2.5 exactly: the node is classically
    # allowed (V <= E~) for weight_validate and the dense oracle, and the gap
    # check must read the same chi from the assembled V_j table
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(12, 4.0)
    h = assemble_hamiltonian(profile, None, grid, 2)
    t = profile.effective_potential(-2, 2.5)
    window = SpectralWindow(e0=0.0, E0=t / 2, delta0=t - t / 2, c0=0.0)
    assert window.e_tilde == t and grid.nodes[7] == 2.5
    zero = WeightSequence(kind="zero")
    report = twisted_gap_check(h, zero, window)
    assert_matches_dense(h, report, dense_twisted_minimum(profile, h, zero, window),
                         abs=1e-9)
    assert h.potential[0, 7] == t


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


def reference_interior_scan(profile, e_tilde, grid, zeta, j_max, a):
    """The interior scan as a nested loop over j0 and channels."""
    sigma = profile.sigma_plus
    nodes = grid.nodes
    best_eps, best_j0 = 0.0, None
    for j0 in range(0, min(8, j_max - 1) + 1):
        eps = np.inf
        for aj in range(j0 + 1, j_max + 1):
            level = aj ** (2.0 * zeta * (1.0 - 1.0 / sigma))
            ok = profile.effective_potential(aj, nodes) - e_tilde >= level
            bad = np.flatnonzero(~ok)
            s_max = nodes[bad[0]] if bad.size else grid.r_max
            eps = min(eps, s_max / aj ** (zeta / sigma))
        if a is not None:
            eps = min(eps, 0.5 * a / (j0 + 1) ** zeta)
        if eps > best_eps:
            best_eps, best_j0 = eps, j0
    return 0.999 * best_eps, best_j0


def reference_exterior_scan(profile, e_tilde, grid, zeta, j_max, a):
    """The exterior scan as a nested loop over eta candidates and channels."""
    sigma = profile.sigma_minus
    nodes = grid.nodes
    zs = zeta * sigma
    best_c, best_eta = 0.0, None
    for eta in np.geomspace(max(profile.r0, 1.01), 0.5 * grid.r_max, 64):
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
    return 0.999 * best_c, best_eta


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("profile, grid, j_max, e_tilde, a", [
    # the tests/test_cli.py coupled model: 14 of 64 eta candidates inadmissible
    (FluxProfile.power_law(1.0, 1.5), build_grid(160, 10.0), 6, 1.12, 1.5),
    # low E~ on a short grid: at the smallest eta, channels |j| >= 7 have no support
    (FluxProfile.power_law(1.0, 1.5), build_grid(64, 4.0), 12, 0.05, 1.5),
    # small Gevrey rate: the a cap decides both the winning eta and eps
    (FluxProfile.power_law(1.0, 1.5), build_grid(100, 6.0), 12, 1.5, 0.2),
    # h = 1/8: the largest eta, 4.0625, is a node, where channel 0's support
    # r > eta starts; both models pick that eta
    (FluxProfile.power_law(1.0, 2.0), build_grid(65, 8.125), 8, 2.0, None),
    (FluxProfile.uniform_field(2.0), build_grid(65, 8.125), 3, 3.3, None),
], ids=["coupled", "empty_support", "a_cap", "node_tie", "uniform_node_tie"])
def test_scans_equal_the_nested_loop_references(profile, grid, j_max, e_tilde, a):
    args = (profile, e_tilde, grid, 1.0, j_max, a)
    assert _interior_scan(*args) == reference_interior_scan(*args)
    assert _exterior_scan(*args) == reference_exterior_scan(*args)
