import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import splu

from fluxlab.angular import AngularPotential, DecayClass, GevreyEnvelope, xi_constant
from fluxlab.flux import FluxProfile
from fluxlab.grid import build_channel_operator, build_grid
from fluxlab.spectral import (BandCholesky, BlockHamiltonian, EigenSystem, ShiftedFactor,
                              SpectralWindow, assemble_hamiltonian, channel_projection_norm,
                              diagonalize, estimate_c0, lowest_eigenvalue,
                              spectral_projection)


def make_w(fn, a=1.0, zeta=1.0, b=None, decay=None):
    env = GevreyEnvelope(a=a, zeta=zeta,
                         b=b if b is not None else (lambda r: np.ones_like(r)))
    return AngularPotential(w=fn, envelope=env,
                            decay=decay or DecayClass.none())


def test_assemble_zero_w_is_block_diagonal():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(60, 6.0)
    h = assemble_hamiltonian(profile, None, grid, 3)
    assert h.is_block_diagonal
    for c, j in enumerate(h.channels):
        op = build_channel_operator(profile, int(j), grid)
        assert np.array_equal(h.diagonals[c], op.diagonal)
        assert np.array_equal(h.off_diagonal, op.off_diagonal)


def test_assemble_radial_w_adds_to_every_diagonal():
    profile = FluxProfile.linear(1.0)
    grid = build_grid(40, 5.0)
    g = lambda r: 0.5 * np.exp(-r)
    w = make_w(lambda r, t: 0.5 * np.exp(-r) * np.ones_like(t))
    h = assemble_hamiltonian(profile, w, grid, 2, m_max=3)
    assert h.is_block_diagonal
    op0 = build_channel_operator(profile, 0, grid)
    c0 = list(h.channels).index(0)
    assert np.allclose(h.diagonals[c0], op0.diagonal + g(grid.nodes), atol=1e-12)


def test_assemble_cosine_coupling_normalization():
    # W = cos(theta): the only coupling block is |j - k| = 1 with value 1/2
    profile = FluxProfile.linear(1.0)
    grid = build_grid(40, 5.0)
    w = make_w(lambda r, t: np.cos(t) * np.ones_like(r))
    h = assemble_hamiltonian(profile, w, grid, 3, m_max=3)
    assert set(h.couplings) == {1}
    assert np.allclose(h.couplings[1], 0.5, atol=1e-12)
    assert np.max(np.abs(h.symmetric_part)) < 1e-13


def test_assembled_matrix_is_exactly_hermitian():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(30, 5.0)
    w = make_w(lambda r, t: np.exp(-r) * (np.cos(t) + 0.3 * np.sin(2 * t)))
    h = assemble_hamiltonian(profile, w, grid, 4, m_max=4)
    a = h.to_dense()
    assert np.array_equal(a, a.conj().T)


def test_uncoupled_matrix_eigenvalues_equal_sorted_diagonal():
    grid = build_grid(8, 2.0)
    diag = np.array([[5.0, 1.0, 4.0, 2.0, 8.0, 3.0, 7.0, 6.0]])
    h = BlockHamiltonian(grid=grid, channels=np.array([0]), diagonals=diag,
                         off_diagonal=np.zeros(7), couplings={},
                         symmetric_part=np.zeros(8), potential=diag)
    es = diagonalize(h)
    assert np.array_equal(es.eigenvalues, np.sort(diag[0]))


def test_diagonalize_landau_multiplicity():
    profile = FluxProfile.uniform_field(2.0)
    grid = build_grid(600, 10.0)
    h = assemble_hamiltonian(profile, None, grid, 3)
    es = diagonalize(h, window_upper=3.0)
    ground = es.eigenvalues[np.abs(es.eigenvalues - 2.0) < 1e-3]
    assert ground.size >= 4          # channels j = 0..3 share the lowest level
    assert es.gram_error() < 1e-10


def test_windowed_solver_matches_dense_route():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(80, 8.0)
    w = make_w(lambda r, t: 0.25 * np.exp(-r / 2) * np.cos(t), a=1.0,
               b=lambda r: np.sqrt(np.pi / 2) * 0.25 * np.exp(-r / 2) * np.e)
    h = assemble_hamiltonian(profile, w, grid, 5, m_max=2)
    dense = diagonalize(h)
    from fluxlab.spectral import _windowed_eigensystem
    windowed = _windowed_eigensystem(h, 1.2, 0.1)
    dense_in = dense.eigenvalues[dense.eigenvalues <= 1.3]
    assert windowed.k == dense_in.size
    assert np.allclose(windowed.eigenvalues, dense_in, atol=1e-9)


def test_full_spectrum_above_dense_limit_raises_before_dense_work(monkeypatch):
    # dim 410 * 11 = 4510 > DENSE_LIMIT = 4000: no dense matrix may be formed
    h = coupled_model(np.cos, n_r=410, j_max=5)
    assert h.dim > 4000 and not h.is_block_diagonal

    def refuse(self):
        pytest.fail(f"dense {h.dim}x{h.dim} matrix formed above DENSE_LIMIT")

    monkeypatch.setattr(BlockHamiltonian, "to_dense", refuse)
    with pytest.raises(ValueError, match="exceeds DENSE_LIMIT = 4000"):
        diagonalize(h)


def coupled_model(angular, n_r=90, j_max=6):
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(n_r, 8.0)
    w = make_w(lambda r, t: 0.3 * np.exp(-r / 2) * angular(t), a=0.7,
               b=lambda r: np.exp(-r / 2))
    return assemble_hamiltonian(profile, w, grid, j_max, m_max=3)


both_couplings = pytest.mark.parametrize("angular", [
    np.cos, lambda t: np.cos(t) + 0.5 * np.sin(2 * t)], ids=["real", "complex_hermitian"])


@both_couplings
def test_window_eigenvectors_come_back_channel_major(angular):
    # the band-order factor's eigenvectors must be eigenvectors of the
    # channel-major H, and the channel norms must match the dense route
    h = coupled_model(angular)
    es = diagonalize(h, window_upper=1.2)
    assert es.method == "shift_invert_window" and es.k > 0
    v = es.eigenvectors
    resid = h.to_dense() @ v - v * es.eigenvalues[None, :]
    assert np.max(np.linalg.norm(resid, axis=0) / np.linalg.norm(v, axis=0)) \
        <= 1e-9 * h.norm_inf()
    window = SpectralWindow(e0=float(es.eigenvalues[0]), E0=1.2, delta0=0.1, c0=0.0)
    p = spectral_projection(h, window, eigensystem=es)
    p_dense = spectral_projection(h, window, eigensystem=diagonalize(h))
    assert p.rank == p_dense.rank > 0
    for j in (0, 2):
        assert channel_projection_norm(p, j, (0.0, 4.0)) == pytest.approx(
            channel_projection_norm(p_dense, j, (0.0, 4.0)), abs=1e-9)


@pytest.mark.parametrize("angular", [
    np.cos,                                        # real symmetric
    lambda t: np.cos(t) + 0.5 * np.sin(2 * t),     # complex Hermitian
])
def test_shifted_factor_inertia_matches_dense_count(angular):
    h = coupled_model(angular)
    ab = h.to_band()[0]
    dense = np.linalg.eigvalsh(h.to_dense())
    # below the spectrum, at a window top, and well inside the spectrum
    for sigma in (dense[0] - 0.5, 0.5, 1.05, 1.3, 5.0, 50.0):
        assert ShiftedFactor(ab, sigma).n_below == int(np.sum(dense < sigma))


def test_shifted_factor_rejects_untrustworthy_elimination():
    h = coupled_model(lambda t: np.cos(t) + 0.5 * np.sin(2 * t))
    ab = h.to_band()[0]
    # natural order eliminates the first band unknown first: a shift one ulp
    # above H[0, 0] leaves that pivot at rounding level
    kd = ab.shape[0] - 1
    with pytest.raises(RuntimeError, match="pivot"):
        ShiftedFactor(ab, np.nextafter(ab[kd, 0].real, np.inf))
    # [[1, 1], [1, 1]] - I has a zero diagonal: SuperLU interchanges rows,
    # which voids the count
    with pytest.raises(RuntimeError, match="off-diagonal"):
        ShiftedFactor(np.array([[0.0, 1.0], [1.0, 1.0]]), 1.0)


@both_couplings
def test_window_factor_is_formed_in_band_order(angular, monkeypatch):
    # natural order on the node-major band: the factor fills only the band,
    # nnz(L + U) <= dim (2 kd + 1); a channel-major input or a fill-reducing
    # ordering breaks the identity column permutation or the count
    from fluxlab import spectral
    factors = []

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spectral, "splu", recording_splu)
    h = coupled_model(angular)
    es = diagonalize(h, window_upper=1.2)
    (lu,) = factors
    kd = h.to_band()[0].shape[0] - 1
    assert kd == h.n_ch
    assert np.array_equal(lu.perm_c, np.arange(h.dim))
    assert es.factor_nnz == lu.L.nnz + lu.U.nnz - h.dim
    assert es.factor_nnz <= h.dim * (2 * kd + 1)
    assert es.method == "shift_invert_window" and es.lu_solves > 0


def band_to_dense(ab):
    """The Hermitian matrix held in LAPACK upper band storage."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    full = np.zeros((n, n), dtype=ab.dtype)
    for r in range(kd + 1):
        q = np.arange(kd - r, n)
        full[q, q - kd + r] = np.conj(ab[r, kd - r:])
        full[q - kd + r, q] = ab[r, kd - r:]
    return full


def dense_from_definition(h):
    """Channel-major H entry by entry: per channel the tridiagonal kinetic
    stencil plus V_j + W_s on the diagonal; block (c + m, c) carries
    W^(r_i, m)/sqrt(2 pi) on its diagonal and block (c, c + m) the conjugate."""
    n = h.grid.n_r
    diag_k, off_k = h.grid.kinetic_tridiagonal()
    full = np.zeros((h.dim, h.dim), dtype=h.dtype)
    idx = np.arange(n)
    for c in range(h.n_ch):
        base = c * n
        full[base + idx, base + idx] = diag_k + h.potential[c] + h.symmetric_part
        full[base + idx[:-1], base + idx[1:]] = off_k
        full[base + idx[1:], base + idx[:-1]] = off_k
    for m, w in h.couplings.items():
        for c in range(h.n_ch - m):
            lo, hi = c * n, (c + m) * n
            full[hi + idx, lo + idx] = w
            full[lo + idx, hi + idx] = np.conj(w)
    return full


def radial_w_model():
    profile = FluxProfile.linear(1.0)
    w = make_w(lambda r, t: 0.5 * np.exp(-r) * np.ones_like(t))
    return assemble_hamiltonian(profile, w, build_grid(40, 5.0), 3, m_max=3)


@pytest.mark.parametrize("model, coupled", [
    (lambda: coupled_model(np.cos), True),
    (lambda: coupled_model(lambda t: np.cos(t) + 0.5 * np.sin(2 * t)), True),
    (radial_w_model, False),                                       # W_s only
    (lambda: assemble_hamiltonian(FluxProfile.power_law(1.0, 1.5), None,
                                  build_grid(50, 6.0), 4), False),  # W = 0
], ids=["real", "complex_hermitian", "w_s_only", "w_zero"])
def test_band_holds_the_permuted_sparse_entries(model, coupled):
    h = model()
    assert h.is_block_diagonal != coupled
    # the oracle comes from the definition: to_dense() is read back from the band
    expected = dense_from_definition(h)
    ab, order = h.to_band()
    # node-major half-bandwidth n_ch when coupled, channel-major tridiagonal otherwise
    assert ab.shape == (h.n_ch + 1 if coupled else 2, h.dim)
    assert ab.dtype == h.dtype
    assert np.array_equal(band_to_dense(ab), expected[np.ix_(order, order)])
    dense = h.to_dense()
    assert dense.dtype == h.dtype
    assert np.array_equal(dense, expected)
    assert h.norm_inf() == pytest.approx(np.max(np.sum(np.abs(expected), axis=1)), rel=1e-14)


def test_band_cholesky_verdict_and_pivot_guard():
    ab = np.array([[0.0, 0.0], [1.0, 1e-14]])      # diag(1, 1e-14), kd = 1
    assert BandCholesky(ab, -1.0).positive_definite
    assert not BandCholesky(ab, 0.5).positive_definite
    # pivots r_kk^2 = 1 and 1e-14 <= 1e-12 |A|: too close to singular to certify
    with pytest.raises(RuntimeError, match="pivot"):
        BandCholesky(ab, 0.0)


@both_couplings
def test_lowest_eigenvalue_matches_dense_from_a_certified_shift(angular):
    # the complex-Hermitian coupling takes the hbmv Lanczos path
    h = coupled_model(angular)
    dense_min = float(np.linalg.eigvalsh(h.to_dense())[0])
    ab = h.to_band()[0]
    lowest = lowest_eigenvalue(ab)
    assert lowest.method == "band_cholesky_lanczos"
    # the window solve's residual contract
    assert abs(lowest.value - dense_min) <= 1e-9 * h.norm_inf()
    # Weyl's shift lies below the spectrum, where the band Cholesky holds
    assert lowest.lower_bound < dense_min
    assert BandCholesky(ab, lowest.lower_bound).positive_definite
    # must-fail twin: a shift above lambda_min is not positive definite
    assert not BandCholesky(ab, dense_min + 1e-6).positive_definite


@pytest.mark.parametrize("model", [
    radial_w_model,                                                # W_s only
    lambda: assemble_hamiltonian(FluxProfile.power_law(1.0, 1.5), None,
                                 build_grid(50, 6.0), 4),          # W = 0
], ids=["w_s_only", "w_zero"])
def test_lowest_eigenvalue_of_block_diagonal_h_is_the_lowest_channel(model):
    h = model()
    per_channel = min(scipy.linalg.eigh_tridiagonal(d, h.off_diagonal, eigvals_only=True)[0]
                      for d in h.diagonals)
    dense = np.linalg.eigvalsh(h.to_dense())[0]
    lowest = lowest_eigenvalue(h.to_band()[0])
    assert lowest.method == "channel_tridiagonal"
    assert lowest.lower_bound <= dense
    # |H|_1 = |H|_inf for symmetric H
    tol = np.finfo(float).eps * h.norm_inf()
    assert abs(lowest.value - per_channel) <= tol
    assert abs(lowest.value - dense) <= tol


def split_tridiagonal_band(blocks):
    """Upper band storage (kd = 1) of the direct sum of (diagonal, off) blocks."""
    d = np.concatenate([b[0] for b in blocks])
    e = np.concatenate([np.concatenate(([0.0], b[1])) for b in blocks])
    return np.stack([e, d])


def test_lowest_eigenvalue_of_a_split_tridiagonal_outside_the_lowest_diagonal_block():
    # the block holding the lowest diagonal entry, -1, has its lowest
    # eigenvalue at -sqrt(1.25) = -1.12; the strongly coupled block has
    # diagonal entries 0 but the eigenvalue -7 cos(pi / 7) = -6.31
    rng = np.random.default_rng(3)
    blocks = [(np.array([2.0, 3.0, 2.5]), np.array([0.5, 0.5])),
              (np.array([-1.0, 1.0]), np.array([0.5])),
              (np.zeros(6), np.full(5, 3.5)),
              (rng.uniform(0.0, 4.0, 9), rng.uniform(-1.0, 1.0, 8))]
    ab = split_tridiagonal_band(blocks)
    dense = band_to_dense(ab)
    dense_min = np.linalg.eigvalsh(dense)[0]
    tol = np.finfo(float).eps * np.max(np.sum(np.abs(dense), axis=0))
    lowest = lowest_eigenvalue(ab)
    assert abs(lowest.value - dense_min) <= tol
    # must-fail twin: the lowest diagonal block's own eigenvalue, an upper
    # bound that a route returning it would report, misses lambda_min
    ub = np.linalg.eigvalsh(band_to_dense(split_tridiagonal_band(blocks[1:2])))[0]
    assert ub - dense_min > 1.0


def test_lowest_eigenvalue_lower_bound_lies_below_a_split_tridiagonal_minimum():
    # tridiag(-1, 2, -1) of order 50 has lambda_min = 4 sin^2(pi / 102)
    # exactly; beside a block with 1e6 on the diagonal the bisected value
    # lands a few ulps above it, and the bound must not
    ab = split_tridiagonal_band([(np.full(50, 2.0), np.full(49, -1.0)),
                                 (np.array([1e6]), np.zeros(0))])
    lowest = lowest_eigenvalue(ab)
    exact = 4 * np.sin(np.pi / 102) ** 2
    assert lowest.lower_bound <= exact
    assert abs(lowest.value - exact) <= np.finfo(float).eps * 1e6


def record_eigh_tridiagonal(monkeypatch):
    """The ``select`` of every later ``scipy.linalg.eigh_tridiagonal`` call."""
    calls = []
    original = scipy.linalg.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(kwargs.get("select", "a"))
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    return calls


@pytest.mark.parametrize("j_max", [2, 9])
def test_tridiagonal_lowest_is_one_block_solve_and_one_value_slice(j_max, monkeypatch):
    h = assemble_hamiltonian(FluxProfile.linear(1.0), None, build_grid(120, 12.0), j_max)
    calls = record_eigh_tridiagonal(monkeypatch)
    lowest_eigenvalue(h.to_band()[0])
    assert calls == ["i", "v"]


def test_window_solve_skips_channels_whose_floor_is_above_the_top(monkeypatch):
    # linear flux gives V_j = (1 - j / r)^2 >= 1 for j <= 0, so those
    # channels' floors lie above the top and they have no pair to solve
    h = assemble_hamiltonian(FluxProfile.linear(1.0), None, build_grid(200, 16.0), 6)
    floors = np.min(h.potential + h.symmetric_part, axis=1)
    top = 0.9 + 0.05                      # window_upper + WINDOW_MARGIN
    assert 0 < np.count_nonzero(floors < top) < h.n_ch
    calls = record_eigh_tridiagonal(monkeypatch)
    es = diagonalize(h, window_upper=0.9)
    assert len(calls) == np.count_nonzero(floors < top)
    skipped = [b for b, floor in zip(es.blocks, floors) if floor >= top]
    assert all(b.cols.size == 0 for b in skipped)


def test_lowest_eigenvalue_raises_when_the_certificate_fails(monkeypatch):
    # a Weyl shift above lambda_min must not return a number
    from fluxlab import spectral
    h = coupled_model(np.cos)
    monkeypatch.setattr(spectral, "_tridiagonal_lowest", lambda ab: 50.0)
    with pytest.raises(RuntimeError, match="not positive definite"):
        lowest_eigenvalue(h.to_band()[0])


def test_window_over_whole_spectrum_takes_dense_fallback():
    # ARPACK cannot return dim - 1 or more pairs, so the window solve goes dense
    from fluxlab.spectral import _windowed_eigensystem
    h = coupled_model(np.cos, n_r=8, j_max=1)
    full = diagonalize(h)
    windowed = _windowed_eigensystem(h, h.norm_inf() + 1.0, 0.1)
    assert windowed.method == "dense"
    assert windowed.k == h.dim
    (block,) = windowed.blocks
    assert block.rows == slice(0, h.dim) and np.array_equal(block.cols, np.arange(h.dim))
    assert windowed.eigenvectors is block.vectors
    assert np.allclose(windowed.eigenvalues, full.eigenvalues, atol=1e-12)
    overlap = h.grid.h * np.abs(full.eigenvectors.T @ windowed.eigenvectors)
    assert np.allclose(overlap, np.eye(h.dim), atol=1e-9)


def test_projection_full_window_acts_as_identity():
    profile = FluxProfile.uniform_field(2.0)
    grid = build_grid(200, 8.0)
    h = assemble_hamiltonian(profile, None, grid, 2)
    es = diagonalize(h, window_upper=7.0)
    window = SpectralWindow(e0=float(es.eigenvalues[0]), E0=7.0, delta0=0.5, c0=0.0)
    p = spectral_projection(h, window, eigensystem=es)
    assert p.rank == int(np.sum(es.eigenvalues <= 7.0))
    v0 = p.basis[:, 0].reshape(len(h.channels), grid.n_r)
    assert np.max(np.abs(p.apply(v0) - v0)) < 1e-10
    assert p.idempotency_error() < 1e-10


def test_projection_basis_is_a_column_view():
    profile = FluxProfile.uniform_field(2.0)
    grid = build_grid(200, 8.0)
    h = assemble_hamiltonian(profile, None, grid, 2)
    es = diagonalize(h, window_upper=12.0)
    # the second Landau level only: the window starts and ends inside the columns
    window = SpectralWindow(e0=5.0, E0=7.0, delta0=0.5, c0=0.0)
    p = spectral_projection(h, window, eigensystem=es)
    assert p.selector.start > 0 and p.selector.stop < es.k
    # each window block is a column view of the eigensystem block it cuts
    for whole, cut in zip(es.blocks, p.blocks):
        assert cut.rows == whole.rows
        assert cut.cols.size == 0 or np.shares_memory(cut.vectors, whole.vectors)
    assert sum(b.cols.size for b in p.blocks) == p.rank
    inside = (es.eigenvalues >= 5.0) & (es.eigenvalues <= 7.0)
    assert np.array_equal(p.basis, es.eigenvectors[:, inside])


def test_projection_below_spectrum_has_rank_zero():
    profile = FluxProfile.uniform_field(2.0)
    grid = build_grid(150, 8.0)
    h = assemble_hamiltonian(profile, None, grid, 2)
    window = SpectralWindow(e0=-1.0, E0=0.5, delta0=0.1, c0=0.0)
    with pytest.warns(UserWarning):
        p = spectral_projection(h, window)
    assert p.rank == 0
    assert p.basis.shape == (h.dim, 0)
    assert p.idempotency_error() == 0.0


def test_projection_commutes_with_channels_when_w_is_zero():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(200, 8.0)
    h = assemble_hamiltonian(profile, None, grid, 4)
    es = diagonalize(h, window_upper=1.0)
    window = SpectralWindow(e0=float(es.eigenvalues[0]), E0=1.0, delta0=0.05, c0=0.0)
    p = spectral_projection(h, window, eigensystem=es)
    assert p.rank > 0
    # P_j E_I = E_I P_j for every j iff each window eigenvector lives in one channel
    blocks = p.basis.reshape(h.n_ch, grid.n_r, p.rank)
    assert np.array_equal(np.count_nonzero(np.any(blocks != 0, axis=1), axis=0),
                          np.ones(p.rank, dtype=int))


def test_blockwise_products_match_the_dense_basis_when_w_is_zero():
    # channel-pure eigenvectors: one block per channel, and apply, the Gram
    # matrix and both orthonormality diagnostics equal the dense products
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(120, 8.0)
    h = assemble_hamiltonian(profile, None, grid, 4)
    es = diagonalize(h, window_upper=3.0)
    window = SpectralWindow(e0=float(es.eigenvalues[2]), E0=2.0, delta0=0.1, c0=0.0)
    p = spectral_projection(h, window, eigensystem=es)
    assert 0 < p.selector.start and p.selector.stop < es.k
    assert len(p.blocks) > 1
    cols = np.sort(np.concatenate([b.cols for b in es.blocks]))
    assert np.array_equal(cols, np.arange(es.k))
    v, hh = es.eigenvectors, grid.h
    gram = hh * (v.T @ v)
    assert np.max(np.abs(es.gram - gram)) <= 1e-13
    assert abs(es.gram_error() - np.linalg.norm(gram - np.eye(es.k), 2)) <= 1e-13
    g = gram[p.selector, p.selector]
    assert abs(p.idempotency_error() - np.linalg.norm(g @ g - g, 2)) <= 1e-13
    # the diagnostics take per-block norms: equal to the dense norm of the same matrix
    assert abs(es.gram_error() - np.linalg.norm(es.gram - np.eye(es.k), 2)) <= 1e-14
    g = es.gram[p.selector, p.selector]
    assert abs(p.idempotency_error() - np.linalg.norm(g @ g - g, 2)) <= 1e-14
    rng = np.random.default_rng(5)
    u = rng.standard_normal((h.n_ch, grid.n_r)) + 1j * rng.standard_normal((h.n_ch, grid.n_r))
    vw = p.basis
    ref = (vw @ (hh * (vw.T @ u.reshape(-1)))).reshape(u.shape)
    assert np.max(np.abs(p.apply(u) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_channel_pure_route_never_forms_a_dense_basis(monkeypatch):
    # W = 0: every library path works from the channel blocks; the dense
    # (dim, k) eigenvectors exist only for tests
    from fluxlab.dynamics import prepare_state, propagate

    def refuse(self):
        pytest.fail("dense eigenvector basis formed on the per-channel route")

    monkeypatch.setattr(EigenSystem, "eigenvectors", property(refuse), raising=False)
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(120, 8.0)
    h = assemble_hamiltonian(profile, None, grid, 4)
    es = diagonalize(h, window_upper=3.0)
    window = SpectralWindow(e0=float(es.eigenvalues[2]), E0=2.0, delta0=0.1, c0=0.0)
    p = spectral_projection(h, window, eigensystem=es)
    assert p.apply(np.ones((h.n_ch, grid.n_r))).shape == (h.n_ch, grid.n_r)
    for seed in ({"kind": "eigenvector", "index": 1},
                 {"kind": "gaussian", "j0": 1.0, "r0": 3.0}):
        states = propagate(p, prepare_state(p, seed), [0.5, 1.0])
        assert abs(states[-1].norm2() - 1.0) < 1e-10
    assert channel_projection_norm(p, 1, (0.0, 4.0)) > 0
    assert es.gram_error() < 1e-12 and p.idempotency_error() < 1e-12


def test_rank_equals_eigenvalue_count_in_window():
    profile = FluxProfile.uniform_field(2.0)
    grid = build_grid(300, 10.0)
    h = assemble_hamiltonian(profile, None, grid, 2)
    es = diagonalize(h, window_upper=8.0)
    window = SpectralWindow(e0=float(es.eigenvalues[0]), E0=5.0, delta0=0.3, c0=0.0)
    p = spectral_projection(h, window, eigensystem=es)
    expected = int(np.sum((es.eigenvalues >= window.e0 - 1e-12)
                          & (es.eigenvalues <= 5.0 + 1e-12)))
    assert p.rank == expected


def test_estimate_c0_zero_potential():
    grid = build_grid(100, 10.0)
    assert estimate_c0(lambda r: np.zeros_like(r), 2.0, 1.0, grid) == 0.0
    assert estimate_c0(None, 2.0, 1.0, grid) == 0.0


def test_estimate_c0_constant_potential_shift_identity():
    # kinetic floor is (2.405 / r_max)^2, so on a large box c0 -> xi * c
    grid = build_grid(4000, 200.0)
    c = 0.3
    got = estimate_c0(lambda r: np.full_like(r, c), 2.0, 1.0, grid)
    assert got == pytest.approx(xi_constant(2.0, 1.0) * c, abs=2e-4)


def test_estimate_c0_dense_cross_check():
    grid = build_grid(300, 12.0)
    a, zeta = 2.0, 1.0
    got = estimate_c0(lambda r: np.exp(-r), a, zeta, grid)
    diag, off = grid.kinetic_tridiagonal()
    m = np.diag(diag - xi_constant(a, zeta) * np.exp(-grid.nodes)) \
        + np.diag(off, 1) + np.diag(off, -1)
    lam = np.linalg.eigvalsh(m)[0]
    assert got == pytest.approx(max(0.0, -lam), abs=1e-11)
    assert got > 0


def test_estimate_c0_rejects_negative_envelope():
    grid = build_grid(50, 5.0)
    with pytest.raises(ValueError):
        estimate_c0(lambda r: -np.ones_like(r), 1.0, 1.0, grid)


def test_channel_projection_norm_contract():
    profile = FluxProfile.uniform_field(2.0)
    grid = build_grid(300, 10.0)
    h = assemble_hamiltonian(profile, None, grid, 2)
    es = diagonalize(h, window_upper=3.0)
    window = SpectralWindow(e0=float(es.eigenvalues[0]), E0=3.0, delta0=0.2, c0=0.0)
    p = spectral_projection(h, window, eigensystem=es)
    # full-radius mask of a channel whose lowest level is retained -> norm 1
    assert channel_projection_norm(p, 0, (0.0, grid.r_max)) == pytest.approx(1.0, abs=1e-10)
    # rank-0 projection -> 0
    empty_window = SpectralWindow(e0=-2.0, E0=-1.0, delta0=0.1, c0=0.0)
    with pytest.warns(UserWarning):
        p0 = spectral_projection(h, empty_window)
    assert channel_projection_norm(p0, 0, (0.0, grid.r_max)) == 0.0
    with pytest.raises(ValueError):
        channel_projection_norm(p, 0, (0.0, grid.r_max + 1.0))


def test_window_invariants():
    with pytest.raises(ValueError):
        SpectralWindow(e0=1.0, E0=0.5, delta0=0.1, c0=0.0)
    with pytest.raises(ValueError):
        SpectralWindow(e0=0.0, E0=1.0, delta0=0.0, c0=0.0)
    w = SpectralWindow(e0=0.0, E0=1.0, delta0=0.2, c0=0.3)
    assert w.e_tilde == pytest.approx(1.5)


def test_assemble_rejects_mismatched_table_grid():
    from fluxlab.angular import fourier_coefficients
    profile = FluxProfile.linear(1.0)
    grid_a = build_grid(40, 5.0)
    grid_b = build_grid(50, 5.0)
    table = fourier_coefficients(lambda r, t: np.exp(-r) * np.cos(t),
                                 grid_b, m_max=2, n_theta=16)
    w = AngularPotential(table=table,
                         envelope=GevreyEnvelope(a=1.0, zeta=1.0,
                                                 b=lambda r: np.exp(-r)),
                         decay=DecayClass.none())
    with pytest.raises(ValueError):
        assemble_hamiltonian(profile, w, grid_a, 2, m_max=2)


def test_coupling_truncation_is_logged():
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(40, 5.0)
    w = make_w(lambda r, t: np.exp(-r) * np.cos(t), a=0.5,
               b=lambda r: 2.0 * np.exp(-r))
    h = assemble_hamiltonian(profile, w, grid, 2, m_max=2)
    assert h.m_max <= 4
    assert h.dropped_tail_bound > 0
