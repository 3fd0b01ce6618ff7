import dataclasses

import numpy as np
import pytest

from fluxlab import dynamics as dynamics_module
from fluxlab import grid as grid_module
from fluxlab.angular import AngularPotential, DecayClass, GevreyEnvelope
from fluxlab.dynamics import (MobilityChannelRecord, MobilityReport,
                              ObservableSeries, WaveState, _decay_rates,
                              bound_check_thm1, geometric_times, growth_fit_thm2,
                              heisenberg_check, mobility_edge_scan, moment_j,
                              moment_x, participation_width, prepare_state,
                              propagate, record_observables)
from fluxlab.flux import FluxProfile, classical_region
from fluxlab.grid import (RadialGrid, build_channel_operator, build_channel_operators,
                          build_grid)
from fluxlab.spectral import (SpectralWindow, assemble_hamiltonian, basis_product,
                              diagonalize, spectral_projection)
from fluxlab.weights import decay_rate_fit


def coupled_system(j_max=4, n_r=150, r_max=10.0, upper=1.0, amp=0.3, angular=np.cos):
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(n_r, r_max)
    w = None
    if amp:
        env = GevreyEnvelope(a=1.0, zeta=1.0,
                             b=lambda r: np.sqrt(np.pi / 2) * amp * np.exp(-r / 2) * np.e)
        w = AngularPotential(
            w=lambda r, t: amp * np.exp(-r / 2) * angular(t),
            envelope=env, decay=DecayClass.stretched_exponential(0.5, 1.0))
    h = assemble_hamiltonian(profile, w, grid, j_max, m_max=3 if w else None)
    es = diagonalize(h, window_upper=upper)
    e0 = float(es.eigenvalues[0])
    window = SpectralWindow(e0=e0, E0=upper, delta0=0.1 * (upper - e0), c0=0.0)
    return h, spectral_projection(h, window, eigensystem=es)


def test_prepare_state_from_eigenvector_is_exact():
    h, p = coupled_system(amp=0.0)
    state = prepare_state(p, {"kind": "eigenvector", "index": 1})
    expected = p.basis[:, 1].reshape(len(h.channels), h.grid.n_r)
    assert np.max(np.abs(state.amplitudes - expected)) == 0.0
    assert state.norm2() == pytest.approx(1.0, abs=1e-12)


def test_prepare_state_orthogonal_seed_raises():
    h, p = coupled_system(amp=0.0)
    # j = -4 carries no spectral weight below E = 1 for this flux
    with pytest.raises(ValueError):
        prepare_state(p, {"kind": "channel_bump", "j": -4, "r0": 3.0,
                          "width_r": 0.5})


def test_prepare_state_gaussian_lies_in_window():
    h, p = coupled_system(amp=0.3)
    state = prepare_state(p, {"kind": "gaussian", "j0": 3.0, "r0": 2.5,
                              "width_j": 1.5, "width_r": 1.0})
    drift = p.apply(state.amplitudes) - state.amplitudes
    assert np.sqrt(h.grid.h * np.sum(np.abs(drift) ** 2)) < 1e-12
    assert state.norm2() == pytest.approx(1.0, abs=1e-12)


def test_propagate_identity_at_t0_and_stationary_eigenvector():
    h, p = coupled_system(amp=0.3)
    state = prepare_state(p, {"kind": "eigenvector", "index": 0})
    lam = p.eigenvalues[0]
    out = propagate(p, state, [0.0, 2.0])
    assert np.max(np.abs(out[0].amplitudes - state.amplitudes)) < 1e-14
    phase = np.exp(-1j * lam * 2.0)
    assert np.max(np.abs(out[1].amplitudes - phase * state.amplitudes)) < 1e-12
    assert np.max(np.abs(np.abs(out[1].amplitudes) - np.abs(state.amplitudes))) < 1e-12


@pytest.mark.parametrize("amp, angular", [
    pytest.param(0.3, np.cos, id="cos"),                           # real basis
    pytest.param(0.3, lambda t: np.cos(t) + 0.5 * np.sin(2 * t),   # complex-Hermitian basis
                 id="<lambda>"),
    pytest.param(0.0, np.cos, id="uncoupled"),                     # one block per channel
])
def test_propagate_matches_per_time_reference(amp, angular):
    h, p = coupled_system(amp=amp, angular=angular)
    assert np.iscomplexobj(p.basis) == (angular is not np.cos)
    state = prepare_state(p, {"kind": "gaussian", "j0": 2.0, "r0": 2.5,
                              "width_j": 2.0, "width_r": 1.0})
    state = dataclasses.replace(state, time=0.7)
    times = [0.7, 0.0, 3.1, 250.0]
    out = propagate(p, state, times)
    v, lam = p.basis, p.eigenvalues
    coeff = h.grid.h * (v.conj().T @ state.flat_vector())
    scale = np.sqrt(state.norm2())
    for t, s in zip(times, out):
        ref = v @ (np.exp(-1j * lam * (t - state.time)) * coeff)
        assert s.time == t and s.amplitudes.flags.c_contiguous
        assert np.sqrt(h.grid.h * np.sum(np.abs(s.flat_vector() - ref) ** 2)) \
            <= 1e-13 * scale
    assert np.sqrt(h.grid.h * np.sum(np.abs(out[0].amplitudes - state.amplitudes) ** 2)) \
        <= 1e-13 * scale


def test_basis_product_equals_matmul():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 5))
    b2 = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    b1 = b2[:, 1]
    for x, y in [(a, b1), (a, b2), (a, b2[:, ::2]), (a.T, a @ b2),
                 (a + 1j * rng.standard_normal(a.shape), b2)]:
        got = basis_product(x, y)
        assert got.dtype == np.complex128 and got.shape == (x @ y).shape
        assert np.allclose(got, x @ y, rtol=1e-14, atol=1e-14)


def _assert_close(got, ref, rel=1e-13):
    ref = np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("amp, upper, angular", [
    (0.3, 1.0, np.cos), (0.0, 1.0, np.cos),
    (0.3, 2.0, lambda t: np.cos(t) + 0.5 * np.sin(2 * t)),   # complex-Hermitian basis
], ids=["coupled", "channel-pure", "complex-rank-5"])
def test_record_observables_matches_the_propagated_states(amp, upper, angular):
    # the series comes from the window coefficients, not from states, so it
    # meets the per-state functions to rounding, not bitwise
    h, p = coupled_system(amp=amp, upper=upper, angular=angular)
    assert p.rank >= (4 if upper > 1.0 else 1)
    state = prepare_state(p, {"kind": "gaussian", "j0": 3.0, "r0": 2.5,
                              "width_j": 2.0, "width_r": 1.0})
    times = geometric_times(1.0, 100.0, 6)
    states = propagate(p, state, times)
    series = record_observables(p, state, times, nu=1.5, beta=1.0)
    assert np.array_equal(series.times, times)
    _assert_close(series.x_moment, [moment_x(s, 1.5) for s in states])
    _assert_close(series.j_moment, [moment_j(s, 1.0) for s in states])
    _assert_close(series.norms, [s.norm2() for s in states])
    _assert_close(series.channel_norm2, np.stack([s.channel_norm2() for s in states]))
    assert np.all(series.channel_norm2 >= 0) and np.all(series.x_moment >= 0)


def test_record_observables_forms_no_state_array():
    # a (n_t, dim) complex state array would take n_t dim 16 bytes; the
    # series needs a tenth of that at most
    import tracemalloc
    h, p = coupled_system(amp=0.3)
    state = prepare_state(p, {"kind": "gaussian", "j0": 3.0, "r0": 2.5,
                              "width_j": 2.0, "width_r": 1.0})
    times = np.linspace(0.0, 100.0, 2000)
    tracemalloc.start()
    try:
        record_observables(p, state, times, nu=1.5, beta=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < times.size * h.dim * 16 / 10


def test_propagation_unitarity_and_time_reversal():
    h, p = coupled_system(amp=0.3)
    state = prepare_state(p, {"kind": "gaussian", "j0": 3.0, "r0": 2.5,
                              "width_j": 2.0, "width_r": 1.0})
    times = np.linspace(0.0, 50.0, 40)
    states = propagate(p, state, times)
    norms = np.array([s.norm2() for s in states])
    assert np.max(np.abs(norms - norms[0])) <= 1e-10
    back = propagate(p, states[-1], [0.0])[0]
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-10


def test_channel_norms_conserved_for_radial_w():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(150, 10.0)
    env = GevreyEnvelope(a=1.0, zeta=1.0, b=lambda r: np.exp(-r))
    w = AngularPotential(w=lambda r, t: 0.4 * np.exp(-r) * np.ones_like(t),
                         envelope=env, decay=DecayClass.none())
    h = assemble_hamiltonian(profile, w, grid, 4, m_max=2)
    assert h.is_block_diagonal
    es = diagonalize(h, window_upper=1.0)
    window = SpectralWindow(e0=float(es.eigenvalues[0]), E0=1.0, delta0=0.05, c0=0.0)
    p = spectral_projection(h, window, eigensystem=es)
    state = prepare_state(p, {"kind": "gaussian", "j0": 3.0, "r0": 2.5,
                              "width_j": 2.0, "width_r": 1.0})
    states = propagate(p, state, np.linspace(0.0, 100.0, 30))
    cn = np.stack([s.channel_norm2() for s in states])
    assert np.max(np.abs(cn - cn[0][None, :])) <= 1e-10


def test_moment_x_basics():
    grid = build_grid(50, 5.0)
    channels = np.array([0, 1])
    amp = np.zeros((2, 50), dtype=complex)
    amp[0, 10] = 1.0
    state = WaveState(grid, channels, amp)
    n2 = state.norm2()
    assert moment_x(state, 0.0) == pytest.approx(n2)
    r_star = grid.nodes[10]
    assert moment_x(state, 2.0) == pytest.approx(r_star ** 2 * n2)
    # two-node combination, hand-checkable
    amp2 = np.zeros((2, 50), dtype=complex)
    amp2[0, 10] = 1.0
    amp2[1, 20] = 2.0
    state2 = WaveState(grid, channels, amp2)
    expected = grid.h * (grid.nodes[10] ** 2 * 1.0 + grid.nodes[20] ** 2 * 4.0)
    assert moment_x(state2, 2.0) == pytest.approx(expected)


def test_moment_j_basics():
    grid = build_grid(30, 3.0)
    channels = np.array([-1, 0, 1])
    amp = np.zeros((3, 30), dtype=complex)
    amp[2, 5] = 1.0      # entirely in channel j = 1
    state = WaveState(grid, channels, amp)
    n2 = state.norm2()
    assert moment_j(state, 2.0) == pytest.approx(n2)
    assert moment_j(state, 0.0) == pytest.approx(n2)
    amp0 = np.zeros((3, 30), dtype=complex)
    amp0[1, 5] = 1.0     # entirely in channel j = 0
    state0 = WaveState(grid, channels, amp0)
    assert moment_j(state0, 1.5) == 0.0


def test_heisenberg_zero_w_and_single_eigenvector():
    h, p = coupled_system(amp=0.0)
    state = prepare_state(p, {"kind": "gaussian", "j0": 3.0, "r0": 2.5,
                              "width_j": 2.0, "width_r": 1.0})
    states = propagate(p, state, np.linspace(0.0, 5.0, 21))
    report = heisenberg_check(states, h)
    assert report.max_residual < 1e-12

    hw, pw = coupled_system(amp=0.3)
    single = prepare_state(pw, {"kind": "eigenvector", "index": 0})
    states = propagate(pw, single, np.linspace(0.0, 5.0, 21))
    report = heisenberg_check(states, hw)
    assert report.max_residual < 1e-10


def test_heisenberg_residual_second_order_in_dt():
    h, p = coupled_system(amp=0.3)
    state = prepare_state(p, {"kind": "gaussian", "j0": 3.0, "r0": 2.5,
                              "width_j": 2.0, "width_r": 1.0})
    t_end = 4.0
    res = []
    for n in (33, 65):      # halving the step exactly
        states = propagate(p, state, np.linspace(0.0, t_end, n))
        res.append(heisenberg_check(states, h).max_residual)
    ratio = res[0] / res[1]
    assert 3.5 <= ratio <= 4.5


def test_heisenberg_requires_uniform_grid():
    h, p = coupled_system(amp=0.3)
    state = prepare_state(p, {"kind": "eigenvector", "index": 0})
    states = propagate(p, state, [0.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        heisenberg_check(states, h)


def test_bound_check_thm1_single_eigenvector_constant_ratio():
    h, p = coupled_system(amp=0.3)
    state = prepare_state(p, {"kind": "eigenvector", "index": 0})
    series = record_observables(p, state, geometric_times(1.0, 100.0, 16),
                                nu=1.5, beta=1.0)
    report = bound_check_thm1(series)
    assert report.passed
    assert report.sup_ratio == pytest.approx(report.ratios[0], rel=1e-9)


def test_bound_check_thm1_nu_zero_ratio_below_one():
    h, p = coupled_system(amp=0.3)
    state = prepare_state(p, {"kind": "gaussian", "j0": 3.0, "r0": 2.5,
                              "width_j": 2.0, "width_r": 1.0})
    series = record_observables(p, state, geometric_times(1.0, 100.0, 16),
                                nu=0.0, beta=1.0)
    # at nu = 0 the x-moment is the squared norm, identically
    assert np.allclose(series.x_moment, series.norms, rtol=0, atol=1e-15)
    report = bound_check_thm1(series)
    assert report.sup_ratio <= 1.0 + 1e-12


def _synthetic_series(times, j_moment, beta=1.0):
    n = times.size
    return ObservableSeries(times=times, x_moment=np.ones(n), j_moment=j_moment,
                            norms=np.ones(n), channel_norm2=np.ones((n, 1)),
                            channels=np.array([1]), nu=1.0, beta=beta)


def test_growth_fit_exact_power_data():
    times = np.geomspace(1.0, 1000.0, 40)
    series = _synthetic_series(times, 5.0 + 2.0 * times ** 0.4)
    report = growth_fit_thm2(series, "power", zeta=1.0, sigma_plus=1.5, p=4.0,
                             baseline=5.0)
    assert report.fitted_exponent == pytest.approx(0.4, abs=1e-3)
    assert report.bound == pytest.approx(0.6)
    assert report.passed and report.reliable and not report.flat


def test_growth_fit_fails_growth_above_the_bound():
    # the must-fail twin of A5: an increment growing as t^1 against
    # gamma beta = 0.6 and slack 0.1
    times = np.geomspace(1.0, 1000.0, 40)
    series = _synthetic_series(times, 5.0 + 2.0 * times)
    report = growth_fit_thm2(series, "power", zeta=1.0, sigma_plus=1.5, p=4.0,
                             slack=0.1, baseline=5.0)
    assert report.bound == pytest.approx(0.6)
    assert report.fitted_exponent == pytest.approx(1.0, abs=1e-3)
    assert not report.passed and not report.flat and report.reliable


def test_growth_fit_flat_series_passes_with_zero_exponent():
    times = np.geomspace(1.0, 1000.0, 30)
    series = _synthetic_series(times, np.full(30, 7.0))
    report = growth_fit_thm2(series, "power", zeta=1.0, sigma_plus=1.5, p=4.0)
    assert report.flat
    assert report.fitted_exponent == 0.0
    assert report.passed and report.reliable


def test_growth_fit_falling_series_is_not_a_reliable_flat_fit():
    # a moment that only falls (here by 3.6 %) has no growth to fit: the
    # bound holds, but the series does not show a flat moment either
    times = np.geomspace(1.0, 1000.0, 30)
    series = _synthetic_series(times, np.linspace(5.972, 5.757, 30))
    report = growth_fit_thm2(series, "power", zeta=1.0, sigma_plus=1.5, p=4.0)
    assert report.flat and report.n_points == 0
    assert report.passed
    assert not report.reliable


def test_growth_fit_with_three_points_fits_nothing():
    # three growing points are too few for a fit: the exponent stays 0 and
    # the report is marked unreliable, though the increment grows as t^1,
    # above gamma beta = 0.6
    times = np.array([1.0, 10.0, 100.0])
    series = _synthetic_series(times, 5.0 + 2.0 * times)
    report = growth_fit_thm2(series, "power", zeta=1.0, sigma_plus=1.5, p=4.0,
                             baseline=5.0)
    assert report.n_points == 3 and report.flat and not report.reliable
    assert report.fitted_exponent == 0.0


def test_growth_fit_log_power_data():
    times = np.geomspace(2.0, 1000.0, 40)
    series = _synthetic_series(times, 1.0 + 0.5 * np.log(times) ** 1.2)
    report = growth_fit_thm2(series, "stretched_exponential", zeta=1.0,
                             sigma_plus=1.5, s=1.0, baseline=1.0)
    assert report.kind == "log_power"
    assert report.bound == pytest.approx(1.5)   # theta = 1/min(1, 1/1.5)
    assert report.fitted_exponent == pytest.approx(1.2, abs=0.02)
    assert report.passed


def test_participation_width_uniform_vector():
    h = 0.1
    u = np.ones(100) / np.sqrt(100 * h)
    assert participation_width(u, h) == pytest.approx(10.0)


def test_participation_width_of_columns_matches_each_vector():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(50, 4))
    u[:, 2] = 0.0
    widths = participation_width(u, 0.2)
    assert widths.shape == (4,) and widths[2] == 0.0
    for k in range(4):
        assert widths[k] == participation_width(u[:, k], 0.2)
    assert isinstance(participation_width(u[:, 0], 0.2), float)


def _eigen_decay_rate(u, grid, r_start):
    """Per-vector reference: the fitted exponential decay rate of |u| on
    nodes beyond r_start where |u| exceeds 1e-12 max |u|."""
    mag = np.abs(u)
    sel = (grid.nodes > r_start) & (mag > 1e-12 * mag.max())
    if np.count_nonzero(sel) < 4:
        return np.nan
    slope, _, _ = decay_rate_fit(grid.nodes[sel], mag[sel])
    return -slope


def test_decay_rates_pass_matches_the_per_vector_fit_and_its_node_count():
    # r_start leaves 6, 4 and 3 nodes (then the fit needs 4) and, for the
    # last column, nodes where |u| is below 1e-12 of its max
    grid = build_grid(40, 4.0)
    r = grid.nodes
    u = np.stack([np.exp(-0.7 * r) * (1 + 0.1 * np.sin(3 * r)), np.exp(-1.3 * r),
                  -np.exp(-0.4 * r), np.where(r < 2.0, np.exp(-20 * r), 0.0)], axis=1)
    r_start = np.array([r[-7], r[-5], r[-4], 0.5])
    rates = _decay_rates(u, r, r_start)
    assert np.isnan(rates[2]) and not np.isnan(rates[1])
    for k in range(u.shape[1]):
        assert rates[k] == pytest.approx(_eigen_decay_rate(u[:, k], grid, r_start[k]),
                                         rel=1e-12, abs=0, nan_ok=True)


@pytest.mark.parametrize("lam, box_growth", [(1.0, 1.0), (1.0, 0.5), (1.0, 1.001)])
def test_mobility_scan_rejects_a_box_that_does_not_grow(lam, box_growth):
    # round(270 x 1.001) = 270: the "grown" box is the base box, so every
    # shift would be rounding and the shift verdict could not fail
    with pytest.raises(ValueError, match="^box_growth"):
        mobility_edge_scan(lam, build_grid(270, 18.0), 2, box_growth=box_growth)


@pytest.mark.parametrize("band", ["low_band", "high_band"])
@pytest.mark.parametrize("bounds", [(0.5, 0.5), (0.8, 0.1)])
def test_mobility_scan_rejects_an_empty_band(band, bounds):
    with pytest.raises(ValueError, match=f"^{band}"):
        mobility_edge_scan(1.0, build_grid(270, 18.0), 2, **{band: bounds})


def test_mobility_scan_basics():
    grid = build_grid(1200, 30.0)
    report = mobility_edge_scan(1.0, grid, 2, low_band=(0.1, 0.5),
                                high_band=(1.8, 2.2))
    assert not report.empty_low_band
    assert not report.empty_high_band
    assert all(rec.j > 0 for rec in report.localized)
    assert report.min_decay_rate > 0.05
    assert report.min_width_ratio > 1.5


def reference_mobility_scan(lam, grid, j_max, low_band=(0.1, 0.8),
                            high_band=(1.8, 2.2), box_growth=1.5, single_range=True):
    """The earlier scan: one eigenpair solve over (low_lo, high_hi] per channel
    (or, with ``single_range`` False, one per band, as the scan solves),
    full eigenpairs on the grown box, V_j evaluated per channel operator, and
    one decay-rate fit and one participation width per eigenvector."""
    profile = FluxProfile.linear(lam)
    report = MobilityReport(lam=lam)
    n_big = int(round(grid.n_r * box_growth))
    grid_big = RadialGrid(n_r=n_big, r_max=n_big * grid.h)
    n_double = 2 * grid.n_r
    grid_double = RadialGrid(n_r=n_double, r_max=n_double * grid.h)
    for j in range(-j_max, j_max + 1):
        op = build_channel_operator(profile, j, grid)
        if single_range:
            vals, u = op.eigenpairs(value_range=(low_band[0], high_band[1]))
            low_sel = (vals >= low_band[0]) & (vals <= low_band[1])
            high_sel = (vals >= high_band[0]) & (vals <= high_band[1])
            low, high = (vals[low_sel], u[:, low_sel]), (vals[high_sel], u[:, high_sel])
        else:
            low = op.eigenpairs(value_range=low_band)
            high = op.eigenpairs(value_range=high_band)
        vals, u = low
        if vals.size:
            op_big = build_channel_operator(profile, j, grid_big)
            vals_big = op_big.eigenpairs(
                value_range=(low_band[0] - 0.05, low_band[1] + 0.05))[0]
            for idx in range(vals.size):
                region = classical_region(profile, j, float(vals[idx]), grid)
                r_hi = region.interval[1] if not region.empty else 0.0
                rate = _eigen_decay_rate(u[:, idx], grid, r_hi)
                shift = float(np.min(np.abs(vals_big - vals[idx]))) \
                    if vals_big.size else np.inf
                report.localized.append(MobilityChannelRecord(
                    j=j, eigenvalue=float(vals[idx]), decay_rate=rate,
                    eigenvalue_shift=shift))
        vals, u = high
        if vals.size:
            widths = [participation_width(u[:, idx], grid.h) for idx in range(vals.size)]
            op2 = build_channel_operator(profile, j, grid_double)
            vals2, u2 = op2.eigenpairs(value_range=tuple(high_band))
            if vals2.size:
                widths2 = [participation_width(u2[:, k], grid_double.h)
                           for k in range(vals2.size)]
                report.extended_width_ratios.append(
                    float(np.mean(widths2) / np.mean(widths)))
    report.empty_low_band = not report.localized
    report.empty_high_band = not report.extended_width_ratios
    return report


def assert_scans_agree(new, old):
    assert [rec.j for rec in new.localized] == [rec.j for rec in old.localized]
    assert len(new.localized) == len(old.localized)
    assert new.empty_low_band == old.empty_low_band
    assert new.empty_high_band == old.empty_high_band
    for a, b in zip(new.localized, old.localized):
        assert a.eigenvalue == pytest.approx(b.eigenvalue, rel=0, abs=1e-9)
        assert a.eigenvalue_shift == pytest.approx(b.eigenvalue_shift, rel=0, abs=1e-9)
        assert a.decay_rate == pytest.approx(b.decay_rate, rel=1e-12, abs=0, nan_ok=True)
    np.testing.assert_allclose(new.extended_width_ratios, old.extended_width_ratios,
                               rtol=1e-12, atol=0)


def test_mobility_scan_agrees_with_the_single_range_reference():
    # per-band base solves and eigenvalue-only grown-box solves change only
    # the bisection intervals, not which states are found
    grid = build_grid(270, 18.0)
    new = mobility_edge_scan(1.0, grid, 12)
    old = reference_mobility_scan(1.0, grid, 12)
    assert not new.empty_low_band and not new.empty_high_band
    assert_scans_agree(new, old)


@pytest.mark.parametrize("n_r, r_max, j_max", [(270, 18.0, 12), (800, 32.0, 20),
                                                (3000, 60.0, 3)],
                         ids=["coupled_ref_grid", "uncoupled_linear", "A7"])
def test_mobility_scan_agrees_with_the_per_vector_reference(n_r, r_max, j_max):
    # the per-channel decay-rate and width passes against one fit and one
    # width per eigenvector of the same per-band solves; the single-range
    # reference is no 1e-12 oracle here, since its wider bisection interval
    # moves the far tails of the eigenvectors that the fits read
    grid = build_grid(n_r, r_max)
    new = mobility_edge_scan(1.0, grid, j_max)
    old = reference_mobility_scan(1.0, grid, j_max, single_range=False)
    assert not new.empty_low_band and not new.empty_high_band
    assert_scans_agree(new, old)
    # the width contract: the scan reads the high band's widths straight from
    # the ?stein vectors, the reference from Ritz vectors (ChannelOperator.eigenpairs)
    np.testing.assert_allclose(new.extended_width_ratios, old.extended_width_ratios,
                               rtol=1e-13, atol=0)


def test_mobility_bands_are_independent_when_they_overlap():
    # low (0.1, 0.8) and high (0.6, 0.7): each band is its own solve, so the
    # scan equals two single-band scans (the other band placed below the
    # spectrum, which is positive); the single-range reference solves only
    # up to high_hi = 0.7 and loses the low-band states above it
    grid = build_grid(270, 18.0)
    low, high, none = (0.1, 0.8), (0.6, 0.7), (-1.0, -0.5)
    both = mobility_edge_scan(1.0, grid, 12, low_band=low, high_band=high)
    low_only = mobility_edge_scan(1.0, grid, 12, low_band=low, high_band=none)
    high_only = mobility_edge_scan(1.0, grid, 12, low_band=none, high_band=high)
    assert low_only.empty_high_band and high_only.empty_low_band
    assert both.localized == low_only.localized
    assert both.extended_width_ratios == high_only.extended_width_ratios
    assert any(rec.eigenvalue > 0.7 for rec in both.localized)
    old = reference_mobility_scan(1.0, grid, 12, low_band=low, high_band=high)
    assert max(rec.eigenvalue for rec in old.localized) <= 0.7
    assert len(old.localized) < len(both.localized)


def test_mobility_grown_box_takes_no_eigenvectors(monkeypatch):
    # the 1.5x box only supplies eigenvalue shifts, so it never reaches an
    # eigenpair solve of the batched kernel
    grid = build_grid(270, 18.0)
    n_big = int(round(grid.n_r * 1.5))
    solved = []
    kernel = grid_module._tridiagonal_eigh

    def recorded(d, e, select, bounds, tol=0.0, vectors=False):
        if vectors:
            solved.append(d.size)
        return kernel(d, e, select, bounds, tol=tol, vectors=vectors)

    monkeypatch.setattr(grid_module, "_tridiagonal_eigh", recorded)
    report = mobility_edge_scan(1.0, grid, 12)
    assert not report.empty_low_band
    assert n_big not in solved
    assert set(solved) == {grid.n_r, 2 * grid.n_r}


@pytest.mark.parametrize("n_r, r_max, j_max", [(270, 18.0, 12), (800, 32.0, 20),
                                                (3000, 60.0, 3)],
                         ids=["coupled_ref_grid", "uncoupled_linear", "A7"])
def test_mobility_scan_has_the_same_bits_on_one_worker_and_on_two(monkeypatch, n_r, r_max,
                                                                   j_max):
    grid = build_grid(n_r, r_max)
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(grid_module, "channel_workers", lambda: workers)
        reports.append(repr(dataclasses.asdict(mobility_edge_scan(1.0, grid, j_max))))
    assert reports[0] == reports[1]
    assert "MobilityChannelRecord" not in reports[0] and "decay_rate" in reports[0]


def test_mobility_records_carry_the_grown_box_bisection_tolerance():
    # eps |T|_1 of each channel's tridiagonal on the 1.5x box, whose
    # eigenvalues the shifts compare with
    grid = build_grid(270, 18.0)
    report = mobility_edge_scan(1.0, grid, 12)
    n_big = int(round(grid.n_r * 1.5))
    grid_big = RadialGrid(n_r=n_big, r_max=n_big * grid.h)
    assert not report.empty_low_band
    for j in {rec.j for rec in report.localized}:
        op = build_channel_operator(FluxProfile.linear(1.0), j, grid_big)
        t = np.diag(op.diagonal) + np.diag(op.off_diagonal, 1) + np.diag(op.off_diagonal, -1)
        expected = np.finfo(float).eps * np.linalg.norm(t, 1)
        for rec in report.localized:
            if rec.j == j:
                assert rec.shift_resolution == pytest.approx(expected, rel=1e-15, abs=0)


def test_mobility_scan_solves_all_three_boxes_in_one_batch(monkeypatch):
    batches = []
    channel_map = dynamics_module.channel_map

    def recorded(fn, tasks):
        tasks = list(tasks)
        batches.append(len(tasks))
        return channel_map(fn, tasks)

    monkeypatch.setattr(dynamics_module, "channel_map", recorded)
    report = mobility_edge_scan(1.0, build_grid(270, 18.0), 12)
    assert batches == [25]
    assert report.tridiagonal_solves == {"base": 50, "grown": 12, "doubled": 17}


def test_mobility_ritz_step_runs_once_per_channel_with_low_band_states(monkeypatch):
    # only the low band's Ritz values are written and compared with the grown
    # box; the base box's high band and the doubled box feed widths alone
    grid = build_grid(270, 18.0)
    steps = []
    rayleigh_ritz = dynamics_module.rayleigh_ritz

    def recorded(d, e, vals, v, residual=True):
        steps.append((d.size, vals.copy()))
        return rayleigh_ritz(d, e, vals, v, residual=residual)

    monkeypatch.setattr(dynamics_module, "rayleigh_ritz", recorded)
    report = mobility_edge_scan(1.0, grid, 12)
    assert not report.empty_low_band and not report.empty_high_band
    assert len(steps) == len({rec.j for rec in report.localized})
    assert sum(vals.size for _, vals in steps) == len(report.localized)
    for size, vals in steps:
        assert size == grid.n_r
        assert vals.size and np.all((vals > 0.1) & (vals <= 0.8))


@pytest.mark.parametrize("pass_size", [1, 1 << 30], ids=["one_channel", "one_block"])
def test_mobility_scan_has_the_same_bits_in_blocks_of_any_size(monkeypatch, pass_size):
    grid = build_grid(800, 32.0)
    default = repr(dataclasses.asdict(mobility_edge_scan(1.0, grid, 20)))
    monkeypatch.setattr(dynamics_module, "_PASS_SIZE", pass_size)
    assert repr(dataclasses.asdict(mobility_edge_scan(1.0, grid, 20))) == default


def test_a_decay_rate_has_the_same_bits_in_any_set_of_columns():
    # the scan fits many channels' columns in one pass, which must give each
    # column the rate of a pass over that column alone; the fourth column has
    # too few nodes
    r = build_grid(300, 12.0).nodes
    noise = np.random.default_rng(7).standard_normal((r.size, 6))
    u = np.exp(-0.3 * np.arange(1, 7)[None, :] * r[:, None]) * (1 + 0.2 * noise)
    r_start = np.array([1.0, 2.0, 0.5, r[-3], 3.0, 1.5])
    rates = _decay_rates(u, r, r_start)
    assert np.isnan(rates[3]) and np.count_nonzero(np.isnan(rates)) == 1
    alone = [_decay_rates(u[:, [k]], r, r_start[[k]])[0] for k in range(6)]
    np.testing.assert_array_equal(rates, alone)
    for cols in ([0, 1, 2], [2, 4, 5], [1, 3]):
        np.testing.assert_array_equal(_decay_rates(u[:, cols], r, r_start[cols]),
                                      [alone[k] for k in cols])


def test_a_low_band_above_the_edge_fits_beyond_the_scanned_classical_region():
    # the twin that must fail: a low band (1.05, 1.2] above lam^2 = 1, where
    # the closed form j/(lam -+ sqrt(E)) does not hold; each record's rate is
    # the fit beyond the end of classical_region's grid scan, bit for bit
    grid = build_grid(270, 18.0)
    profile = FluxProfile.linear(1.0)
    report = mobility_edge_scan(1.0, grid, 12, low_band=(1.05, 1.2))
    expected = []
    for op in build_channel_operators(profile, np.arange(-12, 13), grid):
        vals, u = op.eigenpairs(value_range=(1.05, 1.2))
        r_start = []
        for val in vals.tolist():
            region = classical_region(profile, op.j, val, grid)
            r_start.append(region.interval[1] if not region.empty else 0.0)
        rates = _decay_rates(u, grid.nodes, np.array(r_start)) if vals.size else []
        expected += [(op.j, val, rate) for val, rate in zip(vals.tolist(), rates)]
    assert any(j > 0 for j, _, _ in expected) and any(j == 0 for j, _, _ in expected)
    assert [(rec.j, rec.eigenvalue) for rec in report.localized] == \
        [(j, val) for j, val, _ in expected]
    np.testing.assert_array_equal([rec.decay_rate for rec in report.localized],
                                  [rate for _, _, rate in expected])


def test_channel_operators_from_one_table_equal_the_per_channel_build():
    profile = FluxProfile.linear(1.0)
    grid = build_grid(270, 18.0)
    channels = np.arange(-12, 13)
    diag_k, off = grid.kinetic_tridiagonal()
    for op in build_channel_operators(profile, channels, grid):
        single = build_channel_operator(profile, op.j, grid)
        expected = diag_k + profile.effective_potential(op.j, grid.nodes)
        assert np.array_equal(op.diagonal, expected)
        assert np.array_equal(single.diagonal, expected)
        assert np.array_equal(op.off_diagonal, off)


def test_min_decay_rate_skips_nan_rates_in_any_order():
    # a state whose classical region reaches the wall has no fitted rate (NaN)
    def report(rates):
        return MobilityReport(lam=1.0, localized=[
            MobilityChannelRecord(j=0, eigenvalue=0.5, decay_rate=r) for r in rates])

    for rates in ([np.nan, 0.5, 0.3], [0.5, np.nan, 0.3], [0.5, 0.3, np.nan]):
        assert report(rates).min_decay_rate == 0.3
    assert np.isnan(report([np.nan, np.nan]).min_decay_rate)
    assert np.isnan(report([]).min_decay_rate)
