import numpy as np
import pytest

from fluxlab.angular import (CoefficientTable, GevreyEnvelope, default_m_max,
                             fourier_coefficients, gevrey_validate,
                             load_table_csv, save_table_csv, xi_constant)
from fluxlab.grid import build_grid

SQRT_PI_2 = np.sqrt(np.pi / 2.0)


@pytest.fixture
def grid():
    return build_grid(40, 4.0)


def test_single_mode_coefficients(grid):
    table = fourier_coefficients(lambda r, t: np.exp(-r) * np.cos(t),
                                 grid, m_max=4, n_theta=32)
    expected = SQRT_PI_2 * np.exp(-grid.nodes)
    assert np.allclose(table.column(1).real, expected, atol=1e-12)
    assert np.allclose(table.column(-1).real, expected, atol=1e-12)
    for m in (0, 2, 3, 4):
        if m != 1:
            assert np.max(np.abs(table.column(m))) < 1e-12


def test_radial_potential_coefficients(grid):
    g = 1.0 / (1.0 + grid.nodes)
    table = fourier_coefficients(lambda r, t: 1.0 / (1.0 + r) * np.ones_like(t),
                                 grid, m_max=2, n_theta=16)
    assert np.allclose(table.column(0).real, np.sqrt(2.0 * np.pi) * g, atol=1e-12)
    assert np.max(np.abs(table.column(1))) < 1e-13


def test_zero_potential(grid):
    table = fourier_coefficients(lambda r, t: np.zeros(np.broadcast_shapes(r.shape, t.shape)),
                                 grid, m_max=3, n_theta=16)
    assert table.max_abs() == 0.0


def test_aliasing_guard(grid):
    with pytest.raises(ValueError):
        fourier_coefficients(lambda r, t: np.cos(t), grid, m_max=8, n_theta=16)


def test_hermitian_symmetry_for_real_w(grid):
    def w(r, t):
        return np.exp(-r) * (np.cos(t) + 0.5 * np.sin(2 * t) + 0.2 * np.cos(3 * t))
    table = fourier_coefficients(w, grid, m_max=6, n_theta=64)
    assert table.hermitian_error() < 1e-13


def test_parseval_for_trig_polynomial(grid):
    def w(r, t):
        return np.exp(-r) * (1.0 + np.cos(t) + 0.3 * np.cos(5 * t))
    n_theta = 64
    table = fourier_coefficients(w, grid, m_max=8, n_theta=n_theta)
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    samples = w(grid.nodes[:, None], theta[None, :])
    quad = (2 * np.pi / n_theta) * np.sum(np.abs(samples) ** 2, axis=1)
    series = np.sum(np.abs(table.values) ** 2, axis=1)
    assert np.max(np.abs(series - quad)) < 1e-10


def test_gevrey_validate_thresholds(grid):
    table = fourier_coefficients(lambda r, t: np.exp(-r) * np.cos(t),
                                 grid, m_max=4, n_theta=32)
    # |W^(r, +-1)| = sqrt(pi/2) e^-r ~ 1.2533 e^-r; with b = 3 e^-r the envelope
    # holds iff a <= ln(3 / sqrt(pi/2)) ~ 0.873
    passing = GevreyEnvelope(a=0.8, zeta=1.0, b=lambda r: 3.0 * np.exp(-r))
    failing = GevreyEnvelope(a=1.0, zeta=1.0, b=lambda r: 3.0 * np.exp(-r))
    tiny = GevreyEnvelope(a=10.0, zeta=1.0, b=lambda r: np.exp(-r))
    assert gevrey_validate(table, passing).passed
    report = gevrey_validate(table, failing)
    assert not report.passed
    assert report.tightest_a == pytest.approx(np.log(3.0 / SQRT_PI_2), abs=1e-9)
    assert not gevrey_validate(table, tiny).passed


def test_gevrey_validate_zero_table(grid):
    table = CoefficientTable(r=grid.nodes, m_max=3,
                             values=np.zeros((grid.n_r, 7), dtype=complex))
    env = GevreyEnvelope(a=5.0, zeta=0.5, b=lambda r: np.zeros_like(r))
    assert gevrey_validate(table, env).passed


def test_gevrey_validate_passes_the_fft_round_off_of_a_true_envelope(tmp_path):
    # the coupled-ref W (gevrey_exp, a = 1.5, 270 x 12 grid) meets its envelope
    # exactly; FFT round-off of about 0.3 eps max|W^| once failed 1,061 entries
    from fluxlab.cli import _w_from_config
    from fluxlab.runio import RunConfig
    cfg = tmp_path / "w.cfg"
    cfg.write_text("w.form = gevrey_exp\nw.amp = 0.2\nw.a = 1.5\nw.mu = 0.5\nw.s = 1.0\n")
    grid = build_grid(270, 18.0)
    w = _w_from_config(RunConfig.parse(str(cfg)), grid)
    table = w.coefficients(grid, min(default_m_max(w.envelope, grid), 24))
    report = gevrey_validate(table, w.envelope)
    assert report.passed and report.worst_ratio <= 1.0
    assert report.tightest_a == pytest.approx(1.5, rel=1e-12)
    steeper = GevreyEnvelope(a=1.05 * 1.5, zeta=w.envelope.zeta, b=w.envelope.b)
    assert not gevrey_validate(table, steeper).passed


def test_xi_constant_geometric_closed_form():
    closed = (1.0 + np.exp(-1.0)) / (1.0 - np.exp(-1.0))
    assert abs(xi_constant(2.0, 1.0) - closed) < 1e-12


def test_xi_constant_large_a_limit():
    assert xi_constant(200.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_xi_constant_respects_tolerance():
    closed = 1.0 + 2.0 * np.exp(-1.0) / (1.0 - np.exp(-1.0))
    for tol in (1e-8, 1e-12):
        assert abs(xi_constant(2.0, 1.0, tol=tol) - closed) < tol


def test_xi_constant_fractional_zeta_against_direct_sum():
    direct = 1.0 + 2.0 * np.sum(np.exp(-0.75 * np.arange(1, 4000) ** 0.5))
    assert xi_constant(1.5, 0.5, tol=1e-13) == pytest.approx(direct, abs=1e-10)


def test_exponent_triangle_inequality_property():
    rng = np.random.default_rng(11)
    j = rng.integers(-10_000, 10_001, size=10_000)
    k = rng.integers(-10_000, 10_001, size=10_000)
    zeta = rng.uniform(0.05, 1.0, size=10_000)
    lhs = np.abs(j + k).astype(float) ** zeta
    rhs = np.abs(j).astype(float) ** zeta + np.abs(k).astype(float) ** zeta
    assert np.all(lhs <= rhs + 1e-12)


def test_default_m_max_rule(grid):
    env = GevreyEnvelope(a=1.5, zeta=1.0, b=lambda r: np.exp(-r))
    m = default_m_max(env, grid)
    b_max = np.exp(-grid.nodes[0])
    assert b_max * np.exp(-1.5 * m) < 1e-12
    assert b_max * np.exp(-1.5 * (m - 1)) >= 1e-12


def test_table_csv_round_trip(tmp_path, grid):
    table = fourier_coefficients(lambda r, t: np.exp(-r) * (np.cos(t) + np.sin(2 * t)),
                                 grid, m_max=3, n_theta=32)
    path = tmp_path / "coeffs.csv"
    save_table_csv(table, path)
    back = load_table_csv(path)
    assert back.m_max == table.m_max
    assert np.allclose(back.r, table.r)
    assert np.allclose(back.values, table.values, atol=1e-16)


def test_table_csv_is_lf_text_that_round_trips_bit_for_bit(tmp_path, grid):
    # 17 significant digits give every double back; a table saved with CRLF
    # line ends, as the csv module wrote them, loads the same
    table = fourier_coefficients(lambda r, t: np.exp(-r) * (np.cos(t) + np.sin(2 * t)),
                                 grid, m_max=3, n_theta=32)
    path = tmp_path / "coeffs.csv"
    save_table_csv(table, path)
    text = path.read_bytes()
    assert b"\r" not in text and text.startswith(b"i,r_i,m,re,im\n")
    back = load_table_csv(path)
    assert np.array_equal(back.r, table.r) and np.array_equal(back.values, table.values)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(text.replace(b"\n", b"\r\n"))
    again = load_table_csv(crlf)
    assert again.m_max == table.m_max
    assert np.array_equal(again.r, table.r) and np.array_equal(again.values, table.values)
