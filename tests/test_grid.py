import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from fluxlab import grid as grid_module
from fluxlab.flux import FluxProfile
from fluxlab.grid import (COARSE_TOL, RadialGrid, _bind_lapack, _tridiagonal_eigh,
                          build_channel_operator, build_channel_operators, build_grid,
                          channel_map, check_truncation, coarse_eigenpairs,
                          tridiagonal_eigenpairs, truncation_margin)


def landau_level(n, j, b0):
    """Analytic oracle E_{n,j} = (2n + 1 + |j| - j) B0 in units hbar = 2m = 1."""
    return (2 * n + 1 + abs(j) - j) * b0


def test_build_grid_basic_contract():
    g = build_grid(9, 1.0)
    assert g.h == pytest.approx(1.0 / 9.0)
    assert g.nodes[0] == pytest.approx(0.5 * g.h)
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[-1] == pytest.approx(g.r_max - 0.5 * g.h)
    g2 = build_grid(1000, 10.0)
    assert g2.h == pytest.approx(0.01)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(0, 1.0)
    with pytest.raises(ValueError):
        build_grid(7, 1.0)
    with pytest.raises(ValueError):
        build_grid(100, -2.0)


def test_cell_measure_is_exact():
    # midpoint cells integrate r dr exactly: sum r_i h = r_max^2 / 2
    g = build_grid(64, 3.0)
    assert np.sum(g.nodes) * g.h == pytest.approx(g.r_max ** 2 / 2.0, rel=1e-14)


def test_channel_operator_landau_levels():
    profile = FluxProfile.uniform_field(2.0)
    g = build_grid(2000, 12.0)
    for j, n, expected in [(0, 0, 2.0), (3, 0, 2.0), (-1, 0, 6.0), (0, 1, 6.0)]:
        op = build_channel_operator(profile, j, g)
        vals = op.eigenvalues(n + 1)
        assert vals[n] == pytest.approx(expected, rel=1e-3), (j, n)


def test_channel_operator_second_order_convergence():
    profile = FluxProfile.uniform_field(2.0)
    errors = []
    for n_r in (400, 800):
        op = build_channel_operator(profile, 0, build_grid(n_r, 12.0))
        errors.append(abs(op.eigenvalues(1)[0] - 2.0))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_eigenvector_normalization_and_weighted_form():
    profile = FluxProfile.uniform_field(2.0)
    g = build_grid(500, 10.0)
    op = build_channel_operator(profile, 1, g)
    vals, u = op.eigenpairs(value_range=(0.0, 8.0))      # levels 2 and 6
    assert vals.size == 2
    assert g.h * np.sum(u[:, 0] ** 2) == pytest.approx(1.0, abs=1e-12)
    # the weighted form u / sqrt(r) is normalized in L^2(r dr)
    phi = u[:, 0] / np.sqrt(g.nodes)
    assert np.sum(np.abs(phi) ** 2 * g.nodes) * g.h == pytest.approx(1.0, abs=1e-12)


def test_off_diagonal_metric_weights():
    g = build_grid(16, 1.0)
    _, off = g.kinetic_tridiagonal()
    i = np.arange(1, 16)
    assert np.allclose(off, -(i / np.sqrt(i ** 2 - 0.25)) / g.h ** 2)


def test_kinetic_is_positive_semidefinite():
    # the window solve's per-channel floor min V_j rests on this, so the
    # benchmark grids (800 x 32, 270 x 18) are checked too
    for n_r, r_max in [(200, 5.0), (800, 32.0), (270, 18.0)]:
        g = build_grid(n_r, r_max)
        d, e = g.kinetic_tridiagonal()
        lam0 = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                             select_range=(0, 0))[0]
        assert lam0 >= -1e-10
        # continuum floor for the critical channel is (j_{0,1} / r_max)^2
        assert lam0 == pytest.approx((2.404826 / g.r_max) ** 2, rel=0.01)


def assert_orthonormal(v, tol):
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) <= tol


@pytest.mark.parametrize("lo, hi", [(-2.0, 11.0), (9.0, 11.0)])
def test_tridiagonal_eigenpairs_resolve_wilkinson_pairs(lo, hi):
    # Wilkinson's W21+: its top two eigenvalues are split by about 7e-14,
    # far below the coarse bisection tolerance; the Ritz step separates them
    d, e = np.abs(np.arange(-10.0, 11.0)), np.ones(20)
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    exact = np.linalg.eigvalsh(t)
    exact = exact[(exact > lo) & (exact <= hi)]
    vals, v, tv = tridiagonal_eigenpairs(d, e, lo, hi)
    assert vals.size == exact.size
    norm = np.linalg.norm(t, 2)
    assert np.max(np.abs(vals - exact)) <= 1e-12 * norm
    assert exact[-1] - exact[-2] < 1e-13
    assert_orthonormal(v, 1e-12)
    assert np.allclose(tv, t @ v, rtol=0, atol=1e-14 * norm)


def test_tridiagonal_eigenpairs_match_full_precision_on_the_linear_benchmark_grid():
    # every channel of the uncoupled-linear benchmark model (800 x 32,
    # |j| <= 20) up to its window top 0.9 + 0.05: Ritz values agree with
    # full-precision bisection within its tolerance eps |T|_1, and the
    # residuals lie below the 1.1e-10 that full-precision bisection and
    # inverse iteration leave
    grid = build_grid(800, 32.0)
    ops = build_channel_operators(FluxProfile.linear(1.0), np.arange(-20, 21), grid)
    lo, top = -1.0, 0.95
    counted = 0
    for op in ops:
        d, e = op.diagonal, op.off_diagonal
        exact = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                              select_range=(lo, top))
        vals, v, tv = tridiagonal_eigenpairs(d, e, lo, top)
        assert vals.size == exact.size, op.j
        counted += vals.size
        if not vals.size:
            continue
        norm_1 = np.max(np.abs(d) + np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e]))
        assert np.max(np.abs(vals - exact)) <= np.finfo(float).eps * norm_1, op.j
        residual = np.linalg.norm(tv - v * vals, axis=0)
        assert np.max(residual) < 1.1e-10, op.j
        assert_orthonormal(v, 1e-12)
    assert counted == 125                 # the window's rank plus its margin


def assert_same_bits(got, expected):
    for a, b in zip(got, expected) if isinstance(got, tuple) else [(got, expected)]:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_r, r_max, j_max", [(270, 18.0, 12), (800, 32.0, 20)],
                         ids=["coupled_ref_grid", "uncoupled_linear"])
def test_kernel_returns_eigh_tridiagonals_bits_on_every_benchmark_channel(n_r, r_max,
                                                                          j_max):
    # the linear model of both benchmark grids: value-range pairs at the
    # coarse tolerance (the mobility bands and a window slice from below
    # the spectrum), value slices at LAPACK's default tolerance, index
    # slices with and without vectors, and on the smaller grid every pair
    grid = build_grid(n_r, r_max)
    for op in build_channel_operators(FluxProfile.linear(1.0), np.arange(-j_max, j_max + 1),
                                      grid):
        d, e = op.diagonal, op.off_diagonal
        for lo, hi in [(0.1, 0.8), (1.8, 2.2), (-1.0, 0.95)]:
            tol = COARSE_TOL * max(1.0, abs(hi))
            assert_same_bits(
                _tridiagonal_eigh(d, e, "v", (lo, hi), tol=tol, vectors=True),
                scipy.linalg.eigh_tridiagonal(d, e, select="v", select_range=(lo, hi),
                                              tol=tol))
            assert_same_bits(
                _tridiagonal_eigh(d, e, "v", (lo, hi)),
                scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                              select_range=(lo, hi)))
        assert_same_bits(
            _tridiagonal_eigh(d, e, "v", (-np.inf, 0.95)),
            scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                          select_range=(-np.inf, 0.95)))
        top = n_r - 1 if n_r < 500 else 9
        for bounds, vectors in [((0, 0), False), ((0, top), True)]:
            expected = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=not vectors,
                                                     select="i", select_range=bounds)
            assert_same_bits(_tridiagonal_eigh(d, e, "i", bounds, vectors=vectors),
                             expected)


def test_kernel_matches_eigh_tridiagonal_on_a_single_row():
    # LAPACK's wrappers reject the empty off-diagonal of a 1 x 1 block
    d, e = np.array([0.5]), np.zeros(0)
    for select, bounds in [("i", (0, 0)), ("v", (0.0, 1.0)), ("v", (0.5, 1.0)),
                           ("v", (-1.0, 0.5))]:
        for vectors in (False, True):
            assert_same_bits(
                _tridiagonal_eigh(d, e, select, bounds, vectors=vectors),
                scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=not vectors,
                                              select=select, select_range=bounds))


def test_kernel_rejects_non_finite_entries_and_empty_slices(capfd):
    d, e = np.full(6, 2.0), np.full(5, -1.0)
    for bad_d, bad_e in [(np.r_[d[:5], np.nan], e), (d, np.r_[e[:4], np.inf])]:
        with pytest.raises(ValueError, match="finite"):
            _tridiagonal_eigh(bad_d, bad_e, "v", (0.0, 1.0))
    # an empty value range would reach LAPACK's XERBLA, which prints
    for bounds in [(1.0, 1.0), (2.0, 1.0)]:
        for vectors in (False, True):
            with pytest.raises(ValueError, match="empty"):
                _tridiagonal_eigh(d, e, "v", bounds, vectors=vectors)
    for bounds in [(0, 6), (-1, 0), (3, 2)]:
        with pytest.raises(ValueError, match="index range"):
            _tridiagonal_eigh(d, e, "i", bounds)
    captured = capfd.readouterr()
    assert captured.err == "" and captured.out == ""


def test_binding_checks_the_capsule_signature():
    with pytest.raises(ImportError, match="dstebz has signature"):
        _bind_lapack("dstebz", "cciddiidddiidiidi")      # one int * short


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_channel_map_keeps_the_task_order(monkeypatch, workers):
    monkeypatch.setattr(grid_module, "channel_workers", lambda: workers)
    main = threading.current_thread()
    results = channel_map(lambda t: (t, threading.current_thread()), range(11))
    assert [t for t, _ in results] == list(range(11))
    # round-robin: chunk 0, every workers-th task from the first, runs on
    # the caller, the other chunks on the pool
    assert [thread is main for _, thread in results] == \
        [t % workers == 0 for t in range(11)]
    assert channel_map(lambda t: t, []) == []


def test_batches_of_any_size_share_one_pool(monkeypatch):
    monkeypatch.setattr(grid_module, "channel_workers", lambda: 5)
    for size in (2, 3, 4, 11, 3):
        assert channel_map(lambda t: t, range(size)) == list(range(size))
    pool_threads = [thread for thread in threading.enumerate()
                    if thread.name.startswith("fluxlab-channel")]
    assert 1 <= len(pool_threads) <= 4


def test_concurrent_kernel_calls_keep_to_their_own_workspace(monkeypatch):
    # more workers than cores and a short switch interval interleave the
    # kernel's copies in and out with other threads' LAPACK calls; one
    # workspace shared between threads would mix channels
    monkeypatch.setattr(grid_module, "channel_workers", lambda: 6)
    ops = build_channel_operators(FluxProfile.linear(1.0), np.arange(-12, 13),
                                  build_grid(270, 18.0))

    def solve(op):
        return (coarse_eigenpairs(op.diagonal, op.off_diagonal, 0.1, 2.2),
                op.eigenvalues(value_range=(0.05, 0.85)))

    serial = [solve(op) for op in ops]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [channel_map(solve, ops) for _ in range(4)]
    finally:
        sys.setswitchinterval(interval)
    for parallel in runs:
        for (pairs, vals), (serial_pairs, serial_vals) in zip(parallel, serial, strict=True):
            assert_same_bits(pairs, serial_pairs)
            assert_same_bits(vals, serial_vals)


def test_a_non_finite_channel_raises_the_kernel_error_from_the_worker(monkeypatch, capfd):
    monkeypatch.setattr(grid_module, "channel_workers", lambda: 2)
    ops = build_channel_operators(FluxProfile.linear(1.0), np.arange(-3, 4),
                                  build_grid(200, 16.0))
    diagonals = [op.diagonal for op in ops]
    diagonals[3] = np.r_[diagonals[3][:-1], np.nan]      # task 3: the worker's chunk
    raised_on = []

    def solve(d):
        try:
            return coarse_eigenpairs(d, ops[0].off_diagonal, 0.1, 0.8)
        except ValueError:
            raised_on.append(threading.current_thread())
            raise

    with pytest.raises(ValueError, match="finite"):
        channel_map(solve, diagonals)
    assert len(raised_on) == 1 and raised_on[0] is not threading.main_thread()
    captured = capfd.readouterr()
    assert captured.err == "" and captured.out == ""
    # the workspaces are clean after the failure
    for op, (vals, v) in zip(ops, channel_map(solve, [op.diagonal for op in ops])):
        assert_same_bits((vals, v), coarse_eigenpairs(op.diagonal, op.off_diagonal,
                                                      0.1, 0.8))


def test_truncation_warning():
    profile = FluxProfile.power_law(1.0, 1.5)
    tight = build_grid(100, 4.0)
    assert truncation_margin(profile, tight, 6, 1.0) < 1.5
    with pytest.warns(UserWarning):
        check_truncation(profile, tight, 6, 1.0)
    roomy = build_grid(100, 12.0)
    margin = check_truncation(profile, roomy, 3, 1.0)
    assert margin >= 1.5
