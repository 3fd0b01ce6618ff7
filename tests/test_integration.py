"""Cross-module routes: complex couplings, table-sourced W, edge clusters."""

import json

import numpy as np
import pytest

from fluxlab.angular import (AngularPotential, DecayClass, GevreyEnvelope,
                             fourier_coefficients, load_table_csv,
                             save_table_csv)
from fluxlab.flux import FluxProfile
from fluxlab.grid import RadialGrid, build_grid
from fluxlab.spectral import (BlockHamiltonian, SpectralWindow,
                              assemble_hamiltonian, diagonalize,
                              spectral_projection)
from fluxlab.weights import tunnelling_exterior_sum


def test_complex_coupling_windowed_matches_dense():
    # sin(2 theta) gives purely imaginary m = +-2 coefficients, so the block
    # matrix is complex Hermitian; both solver routes must agree
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(70, 8.0)
    env = GevreyEnvelope(a=0.7, zeta=1.0, b=lambda r: np.exp(-r / 2))
    w = AngularPotential(
        w=lambda r, t: 0.3 * np.exp(-r / 2) * (np.cos(t) + 0.5 * np.sin(2 * t)),
        envelope=env, decay=DecayClass.none())
    h = assemble_hamiltonian(profile, w, grid, 5, m_max=3)
    assert h.dtype == np.complex128
    dense = diagonalize(h)
    from fluxlab.spectral import _windowed_eigensystem
    windowed = _windowed_eigensystem(h, 1.2, 0.1)
    dense_in = dense.eigenvalues[dense.eigenvalues <= 1.3]
    assert windowed.k == dense_in.size
    assert np.allclose(windowed.eigenvalues, dense_in, atol=1e-9)
    assert windowed.gram_error() < 1e-10


def test_table_sourced_w_matches_closed_form_assembly():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(60, 7.0)
    closed = AngularPotential(
        w=lambda r, t: np.exp(-r) * np.cos(t),
        envelope=GevreyEnvelope(a=0.5, zeta=1.0, b=lambda r: 2.0 * np.exp(-r)),
        decay=DecayClass.none())
    table = fourier_coefficients(closed.w, grid, m_max=3, n_theta=32)
    tabled = AngularPotential(table=table, envelope=closed.envelope,
                              decay=DecayClass.none())
    h1 = assemble_hamiltonian(profile, closed, grid, 4, m_max=3)
    h2 = assemble_hamiltonian(profile, tabled, grid, 4, m_max=3)
    # the two routes quadrate on different n_theta, so only roundoff differs
    assert np.max(np.abs(h1.to_dense() - h2.to_dense())) < 1e-14


def test_table_csv_survives_assembly(tmp_path):
    profile = FluxProfile.linear(1.0)
    grid = build_grid(40, 6.0)
    table = fourier_coefficients(lambda r, t: np.exp(-r) * np.cos(t), grid,
                                 m_max=2, n_theta=16)
    path = tmp_path / "w.csv"
    save_table_csv(table, path)
    w = AngularPotential(table=load_table_csv(path),
                         envelope=GevreyEnvelope(a=0.5, zeta=1.0,
                                                 b=lambda r: 2 * np.exp(-r)),
                         decay=DecayClass.none())
    h = assemble_hamiltonian(profile, w, grid, 3, m_max=2)
    assert set(h.couplings) == {1}
    expected = np.sqrt(np.pi / 2) * np.exp(-grid.nodes) / np.sqrt(2 * np.pi)
    assert np.allclose(h.couplings[1], expected, atol=1e-12)


def test_degenerate_cluster_at_window_edge_enters_together():
    # uncoupled diagonal matrix with an exactly degenerate pair at E0
    grid = build_grid(8, 2.0)
    diag = np.array([[0.5, 1.0, 1.0, 1.7, 2.3, 3.0, 4.0, 5.0]])
    h = BlockHamiltonian(grid=grid, channels=np.array([0]), diagonals=diag,
                         off_diagonal=np.zeros(7), couplings={},
                         symmetric_part=np.zeros(8), potential=diag)
    window = SpectralWindow(e0=0.5, E0=1.0, delta0=0.1, c0=0.0)
    p = spectral_projection(h, window)
    assert p.rank == 3            # 0.5 plus both members of the pair at 1.0
    assert np.allclose(sorted(p.eigenvalues), [0.5, 1.0, 1.0])


def test_exterior_sum_power_law_flux_converges():
    # zero perturbation, exterior masks past the classical annuli: finite
    # weighted sum with shrinking outer shells
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(450, 16.0)
    h = assemble_hamiltonian(profile, None, grid, 10)
    es = diagonalize(h, window_upper=1.0)
    window = SpectralWindow(e0=float(es.eigenvalues[0]), E0=1.0, delta0=0.05,
                            c0=0.0)
    p = spectral_projection(h, window, eigensystem=es)
    result = tunnelling_exterior_sum(p, 2.6, 0.08, 1.0, 1.5)
    assert np.isfinite(result.partial_sum)
    assert result.partial_sum > 0
    assert result.tail_ratio < 1.0


def test_cli_tabulated_profile_and_single_mode_w(tmp_path):
    from fluxlab.cli import run
    from fluxlab.runio import write_csv
    # tabulate Phi = r^1.5 on a range covering the grid
    r = np.linspace(0.005, 9.0, 1200)
    write_csv(tmp_path / "flux.csv", ["r", "phi"],
              list(zip(r, r ** 1.5)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
profile.kind = tabulated
profile.table = {tmp_path / 'flux.csv'}
profile.lambda_plus = 1.0
profile.sigma_plus = 1.5
profile.lambda_minus = 1.0
profile.sigma_minus = 1.5
grid.n_r = 150
grid.r_max = 8.0
channels.j_max = 4
w.form = cos_exp
w.amp = 0.25
w.a = 1.0
w.mu = 0.5
w.s = 1.0
w.m_mode = 1
window.E0 = 1.0
""")
    out = tmp_path / "out"
    assert run("spectrum", str(cfg), str(out), verify=True) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["constants"]["n_eigenvalues"] > 0


def test_cli_uniform_time_grid_runs_heisenberg(tmp_path):
    from fluxlab.cli import run
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
profile.kind = power_law
profile.lambda = 1.0
profile.sigma = 1.5
grid.n_r = 120
grid.r_max = 9.0
channels.j_max = 5
w.form = gevrey_exp
w.amp = 0.25
w.a = 1.2
w.mu = 0.5
w.s = 1.0
window.E0 = 1.0
time.kind = uniform
time.t1 = 6.0
time.n = 61
seed.j0 = 3
seed.r0 = 2.5
""")
    out = tmp_path / "out"
    assert run("evolve", str(cfg), str(out), verify=True) == 0
    report = json.loads((out / "evolve_report.json").read_text())
    assert "heisenberg_max_residual" in report
    assert report["heisenberg_max_residual"] < 1e-3
