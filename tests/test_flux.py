import dataclasses

import numpy as np
import pytest

from fluxlab.flux import (FluxProfile, classical_region,
                          validate_growth_conditions)
from fluxlab.grid import build_grid


def test_flux_eval_closed_forms():
    assert FluxProfile.power_law(1.0, 2.0).flux(2.0) == pytest.approx(4.0)
    assert FluxProfile.linear(1.0).flux(3.0) == pytest.approx(3.0)
    assert FluxProfile.uniform_field(2.0).flux(1.0) == pytest.approx(1.0)


def test_flux_eval_rejects_nonpositive_radius():
    p = FluxProfile.linear(1.0)
    with pytest.raises(ValueError):
        p.flux(0.0)
    with pytest.raises(ValueError):
        p.flux(-1.0)


def test_tabulated_interpolation_and_range_errors():
    nodes = np.linspace(0.5, 4.0, 8)
    p = FluxProfile.tabulated(nodes, nodes ** 2)
    assert p.flux(1.0) == pytest.approx(1.0, abs=0.05)
    mid = 0.5 * (nodes[2] + nodes[3])
    assert p.flux(mid) == pytest.approx(0.5 * (nodes[2] ** 2 + nodes[3] ** 2))
    with pytest.raises(ValueError):
        p.flux(0.1)
    with pytest.raises(ValueError):
        p.flux(5.0)


def test_signed_flux_rejected():
    with pytest.raises(ValueError):
        FluxProfile.tabulated([0.5, 1.0, 2.0], [0.1, -0.2, 0.3])
    with pytest.raises(ValueError):
        FluxProfile.power_law(-1.0, 2.0)
    with pytest.raises(ValueError):
        FluxProfile.uniform_field(0.0)


def test_effective_potential_values():
    assert FluxProfile.power_law(1.0, 2.0).effective_potential(3, 1.0) \
        == pytest.approx(4.0)
    assert FluxProfile.linear(1.0).effective_potential(0, 2.0) == pytest.approx(1.0)


def test_effective_potential_zero_iff_flux_equals_j():
    # power law lam r^sigma = j exactly at r = (j/lam)^(1/sigma)
    p = FluxProfile.power_law(2.0, 1.5)
    j = 5
    r_star = (j / 2.0) ** (1.0 / 1.5)
    assert p.effective_potential(j, r_star) == pytest.approx(0.0, abs=1e-12)
    r = np.linspace(0.1, 4.0, 200)
    v = p.effective_potential(j, r)
    assert np.all(v[np.abs(p.flux(r) - j) > 1e-6] > 0)


def test_uniform_field_is_half_b_r_squared():
    p = FluxProfile.uniform_field(3.0)
    r = np.linspace(0.2, 5.0, 50)
    assert np.allclose(p.flux(r), 1.5 * r ** 2)


def test_classical_region_linear_closed_form():
    grid = build_grid(200, 5.0)
    region = classical_region(FluxProfile.linear(1.0), 1, 0.25, grid)
    assert region.interval == pytest.approx((2.0 / 3.0, 2.0))
    empty = classical_region(FluxProfile.linear(1.0), -2, 0.5, grid)
    assert empty.empty


def test_classical_region_power_law_scan():
    # V_0(r) = r^2 for Phi = r^2, so the allowed set at E = 1 is (0, 1]
    grid = build_grid(400, 4.0)
    region = classical_region(FluxProfile.power_law(1.0, 2.0), 0, 1.0, grid)
    lo, hi = region.interval
    assert lo == pytest.approx(grid.nodes[0])
    assert abs(hi - 1.0) <= grid.h
    # the allowed set has no gaps: every node of the hull is allowed
    hull = grid.nodes[(grid.nodes >= lo) & (grid.nodes <= hi)]
    assert np.all(FluxProfile.power_law(1.0, 2.0).effective_potential(0, hull) <= 1.0)


def test_classical_region_rejects_negative_energy():
    grid = build_grid(50, 3.0)
    with pytest.raises(ValueError):
        classical_region(FluxProfile.linear(1.0), 1, -0.5, grid)


def test_classical_region_monotone_in_energy():
    rng = np.random.default_rng(7)
    grid = build_grid(300, 8.0)
    profiles = [FluxProfile.power_law(0.5, 1.5), FluxProfile.power_law(2.0, 2.0),
                FluxProfile.linear(1.3), FluxProfile.uniform_field(1.0)]
    for _ in range(200):
        p = profiles[rng.integers(len(profiles))]
        j = int(rng.integers(-6, 7))
        e1 = float(rng.uniform(0.0, 3.0))
        e2 = e1 + float(rng.uniform(0.0, 2.0))
        r1 = classical_region(p, j, e1, grid)
        r2 = classical_region(p, j, e2, grid)
        if r1.empty:
            continue
        assert not r2.empty
        # closed-form (linear) and node-hull representations can differ by
        # one spacing, so nesting is asserted up to h
        assert r2.interval[0] <= r1.interval[0] + grid.h
        assert r2.interval[1] >= r1.interval[1] - grid.h


def test_linear_scan_matches_closed_form_within_one_spacing():
    # the linear flux function under the power_law kind takes the scan path
    # (FluxProfile.power_law(lam, 1) returns the linear kind itself)
    grid = build_grid(2000, 8.0)
    scan_profile = dataclasses.replace(FluxProfile.linear(1.0), kind="power_law")
    for j in (1, 2, 3):
        for energy in (0.2, 0.4, 0.6):
            scanned = classical_region(scan_profile, j, energy, grid)
            closed = classical_region(FluxProfile.linear(1.0), j, energy, grid)
            if closed.interval[1] > grid.r_max:
                continue
            assert scanned.interval[0] == pytest.approx(closed.interval[0],
                                                        abs=grid.h)
            assert scanned.interval[1] == pytest.approx(closed.interval[1],
                                                        abs=grid.h)


def test_power_law_with_sigma_one_is_the_linear_profile():
    assert FluxProfile.power_law(2.0, 1.0) == FluxProfile.linear(2.0)


def test_growth_conditions_equality_case_passes():
    grid = build_grid(200, 6.0)
    report = validate_growth_conditions(FluxProfile.power_law(1.0, 1.5), grid)
    assert report.passed


def test_growth_conditions_wrong_lower_exponent_fails():
    grid = build_grid(200, 6.0)
    p = dataclasses.replace(FluxProfile.linear(1.0), sigma_minus=2.0)
    report = validate_growth_conditions(p, grid)
    assert not report.lower_pass
    assert report.first_lower_violation is not None
    assert report.first_lower_violation > 1.0


def test_growth_conditions_uniform_field_upper():
    grid = build_grid(200, 6.0)
    p = dataclasses.replace(FluxProfile.uniform_field(2.0), lambda_plus=1.0,
                            sigma_plus=2.0)
    report = validate_growth_conditions(p, grid)
    assert report.upper_pass


def test_gauge_potential_locally_square_integrable():
    # int_0^R (Phi(r)/r)^2 r dr stays finite under refinement near the origin
    for profile in (FluxProfile.power_law(1.0, 1.5), FluxProfile.linear(2.0),
                    FluxProfile.uniform_field(3.0)):
        integrals = []
        for n_r in (500, 1000, 2000):
            g = build_grid(n_r, 2.0)
            a2 = (profile.flux(g.nodes) / g.nodes) ** 2
            integrals.append(float(np.sum(a2 * g.nodes) * g.h))
        assert integrals[2] == pytest.approx(integrals[1], rel=1e-3)
        assert integrals[2] == pytest.approx(integrals[0], rel=1e-2)
