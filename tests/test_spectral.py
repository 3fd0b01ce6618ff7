import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from fluxlab.angular import AngularPotential, DecayClass, GevreyEnvelope, xi_constant
from fluxlab.flux import FluxProfile
from fluxlab.grid import build_channel_operator, build_grid
from fluxlab.spectral import (BandCholesky, BandLU, BlockHamiltonian, EigenSystem,
                              ShiftedFactor, SpectralWindow, _window_count,
                              _windowed_eigensystem, assemble_hamiltonian,
                              channel_projection_norm, diagonalize, estimate_c0,
                              lowest_eigenvalue, spectral_projection)


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


def coupled_model(angular, n_r=90, j_max=6, amp=0.3):
    profile = FluxProfile.power_law(1.0, 1.5)
    grid = build_grid(n_r, 8.0)
    w = make_w(lambda r, t: amp * np.exp(-r / 2) * angular(t), a=0.7,
               b=lambda r: np.exp(-r / 2))
    return assemble_hamiltonian(profile, w, grid, j_max, m_max=3)


both_couplings = pytest.mark.parametrize("angular", [
    np.cos, lambda t: np.cos(t) + 0.5 * np.sin(2 * t)], ids=["real", "complex_hermitian"])

# amp 0.3 puts w at 0.29 (real) and 0.44 (complex): Weyl's brackets are up to
# six wide and the count takes SuperLU's inertia; at amp 0.02 (w 0.020 and
# 0.029) every bracket below is at most one wide
WEAK = 0.02
WEAK_SHIFTS = (0.5, 0.8, 1.05, 1.3, 2.0, 3.0)


@both_couplings
def test_window_eigenvectors_come_back_channel_major(angular):
    # on both count routes the band-order sweep's eigenpairs must be the
    # dense route's below the top, its eigenvectors eigenvectors of the
    # channel-major H, and the channel norms must match; brackets wider than
    # one take the inertia
    for amp, certificate in ((0.3, "inertia"), (WEAK, "weyl_determinant_sign")):
        h = coupled_model(angular, amp=amp)
        es = diagonalize(h, window_upper=1.2)
        assert es.method == "shift_invert_window" and es.k > 0
        assert es.count_certificate == certificate
        k_lo, k_hi = es.weyl_bracket
        assert (k_hi - k_lo > 1) == (certificate == "inertia")
        full = diagonalize(h)
        assert np.allclose(es.eigenvalues, full.eigenvalues[full.eigenvalues < 1.2 + 0.06],
                           rtol=0, atol=1e-9 * h.norm_inf())
        v = es.eigenvectors
        resid = h.to_dense() @ v - v * es.eigenvalues[None, :]
        assert np.max(np.linalg.norm(resid, axis=0) / np.linalg.norm(v, axis=0)) \
            <= 1e-9 * h.norm_inf()
        window = SpectralWindow(e0=float(es.eigenvalues[0]), E0=1.2, delta0=0.1, c0=0.0)
        p = spectral_projection(h, window, eigensystem=es)
        p_dense = spectral_projection(h, window, eigensystem=full)
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
    # one ?gbtrf of H's node-major band (kd = n_ch) at the top serves the
    # count and every sweep solve, in 3 kd + 1 stored rows; SuperLU factors
    # only when the count takes the inertia route
    from fluxlab import spectral
    factors, inertia = [], []

    def recording_splu(ab, sigma):
        factors.append(BandLU(ab, sigma))
        return factors[-1]

    def recording_inertia(ab, sigma):
        inertia.append(sigma)
        return ShiftedFactor(ab, sigma)

    monkeypatch.setattr(spectral, "splu", recording_splu)
    monkeypatch.setattr(spectral, "ShiftedFactor", recording_inertia)
    for amp in (0.3, WEAK):
        factors.clear()
        inertia.clear()
        h = coupled_model(angular, amp=amp)
        es = diagonalize(h, window_upper=1.2)
        (lu,) = factors
        ab = h.to_band()[0]
        kd = ab.shape[0] - 1
        assert kd == h.n_ch
        assert lu.lu.shape == (3 * kd + 1, h.dim)
        assert es.factor_nnz == (3 * kd + 1) * h.dim
        assert es.method == "shift_invert_window" and es.lu_solves == lu.solves > 2
        assert len(inertia) == (es.count_certificate == "inertia")
        b = np.linspace(-1.0, 1.0, h.dim)
        x = lu.solve(b)
        assert np.linalg.norm((band_to_dense(ab) - lu.sigma * np.eye(h.dim)) @ x - b) \
            <= 1e-10 * h.norm_inf() * np.linalg.norm(x)


@both_couplings
def test_narrow_bracket_counts_match_the_dense_count(angular):
    # with the coupling scaled down every bracket is at most one wide: equal
    # ends are the count, and the determinant sign settles ends one apart
    h = coupled_model(angular, amp=WEAK)
    ab = h.to_band()[0]
    dense = np.linalg.eigvalsh(h.to_dense())
    routes = set()
    for sigma in WEAK_SHIFTS:
        count = _window_count(ab, sigma)
        k_lo, k_hi = count.bracket
        assert k_hi - k_lo <= 1, sigma
        assert count.n == int(np.sum(dense < sigma)), sigma
        assert count.certificate == ("weyl" if k_lo == k_hi else "weyl_determinant_sign")
        routes.add(count.certificate)
    assert routes == {"weyl", "weyl_determinant_sign"}


@both_couplings
def test_det_sign_is_the_parity_of_the_count_below_the_shift(angular):
    h = coupled_model(angular)
    ab = h.to_band()[0]
    dense = np.linalg.eigvalsh(h.to_dense())
    for sigma in (dense[0] - 0.5, 0.5, 1.05, 1.3, 5.0, 50.0):
        lu = BandLU(ab, sigma)
        assert lu.det_sign() == (-1) ** int(np.sum(dense < sigma)), sigma
    # [[0, 1], [1, 0]] and [[0, i], [-i, 0]]: eigenvalues -1 and 1, one row
    # interchange, det = -1
    for ab in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 1j], [0.0, 0.0]])):
        lu = BandLU(ab, 0.0)
        assert list(lu.piv) == [1, 1] and lu.det_sign() == -1


def test_det_sign_declines_a_complex_phase_off_the_real_axis():
    h = coupled_model(lambda t: np.cos(t) + 0.5 * np.sin(2 * t), amp=WEAK)
    ab = h.to_band()[0]
    assert _window_count(ab, 0.8).certificate == "weyl_determinant_sign"
    lu = BandLU(ab, 0.8)
    lu.lu[2 * lu.kd, 0] *= np.exp(0.5j)
    assert lu.det_sign() is None
    count = _window_count(ab, 0.8, lu)
    assert count.certificate == "inertia" and count.bracket == (0, 1)
    assert count.n == int(np.sum(np.linalg.eigvalsh(h.to_dense()) < 0.8))


@both_couplings
def test_a_top_next_to_an_eigenvalue_declines_the_sign(angular):
    # 1e-13 above an eigenvalue the factor's sign need not be A's own; the
    # inverse-power steps see |(A - top I)^-1| >= 1 / g and hand the count
    # to the inertia route, though the LU's pivots stay far above any pivot
    # floor such as ShiftedFactor's 1e-12 |A|
    h = coupled_model(angular, amp=WEAK)
    ab = h.to_band()[0]
    top = np.linalg.eigvalsh(h.to_dense())[6] + 1e-13
    count = _window_count(ab, top)
    assert count.bracket[1] == count.bracket[0] + 1
    assert count.certificate == "inertia"
    lu = BandLU(ab, top)
    assert np.min(np.abs(lu.lu[2 * lu.kd])) > 1e6 * 1e-12 * h.norm_inf()


@both_couplings
@pytest.mark.parametrize("upper, margin, true_end, message", [
    (1.2, 0.06, 0, "found 5 eigenvalues below 1.26; the weyl_determinant_sign count is 6"),
    (0.75, 0.05, 1, "the weyl_determinant_sign count 0 is short"),
], ids=["over_claim", "under_claim"])
def test_a_flipped_determinant_sign_raises_instead_of_a_short_window(
        angular, upper, margin, true_end, message, monkeypatch):
    # below top 1.26 lie as many eigenvalues as the bracket's bottom, below
    # top 0.8 as many as its top: a flipped sign claims the other end, and
    # the sweep (which cannot find a pair that is not there) or the band
    # Cholesky under its lowest pair (which sees the pair the sweep was not
    # asked for) must raise
    h = coupled_model(angular, amp=WEAK)
    es = _windowed_eigensystem(h, upper, margin)
    assert es.count_certificate == "weyl_determinant_sign"
    assert es.k == es.weyl_bracket[true_end]
    sign = BandLU.det_sign
    monkeypatch.setattr(BandLU, "det_sign", lambda self: -sign(self))
    with pytest.raises(RuntimeError, match=message):
        _windowed_eigensystem(h, upper, margin)


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


@pytest.mark.parametrize("model", [
    lambda: coupled_model(np.cos),
    lambda: coupled_model(lambda t: np.cos(t) + 0.5 * np.sin(2 * t)),
    lambda: assemble_hamiltonian(FluxProfile.power_law(1.0, 1.5), None,
                                 build_grid(50, 6.0), 4),          # kd = 1
], ids=["real", "complex_hermitian", "tridiagonal"])
def test_band_csc_is_the_hermitian_matrix_without_stored_zeros(model):
    from fluxlab.spectral import _band_to_csc
    ab = model().to_band()[0]
    expected = band_to_dense(ab)
    a = _band_to_csc(ab)
    assert a.format == "csc" and a.dtype == ab.dtype and a.has_sorted_indices
    assert np.count_nonzero(a.data) == a.nnz == np.count_nonzero(expected)
    assert np.array_equal(a.toarray(), expected)


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


def record_tridiagonal_solves(monkeypatch):
    """(select, rows) of every later call of the ``?stebz`` kernel
    (``fluxlab.grid._tridiagonal_eigh``), under each name it is bound to."""
    from fluxlab import grid, spectral
    calls = []
    original = grid._tridiagonal_eigh

    def counted(d, e, select, *args, **kwargs):
        calls.append((select, len(d)))
        return original(d, e, select, *args, **kwargs)

    for module in (grid, spectral):
        monkeypatch.setattr(module, "_tridiagonal_eigh", counted)
    return calls


def record_ldl_sweeps(monkeypatch):
    """(rows, info) of every later ``?pttrf`` call."""
    sweeps = []
    original = scipy.linalg.lapack.dpttrf

    def counted(d, e, **kwargs):
        out = original(d, e, **kwargs)
        sweeps.append((len(d), out[2]))
        return out

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", counted)
    return sweeps


def split_oracle(blocks):
    """Dense lambda_min of the direct sum of (diagonal, off) blocks, the index
    of the block that holds it, and eps |T|_1."""
    minima = [np.linalg.eigvalsh(band_to_dense(split_tridiagonal_band([b])))[0]
              for b in blocks]
    dense = band_to_dense(split_tridiagonal_band(blocks))
    tol = np.finfo(float).eps * np.max(np.sum(np.abs(dense), axis=0))
    return min(minima), int(np.argmin(minima)), tol


def channel_minima(h):
    """Each channel tridiagonal's lowest eigenvalue, from dense eigvalsh."""
    return [np.linalg.eigvalsh(np.diag(d) + np.diag(h.off_diagonal, 1)
                               + np.diag(h.off_diagonal, -1))[0] for d in h.diagonals]


def path(n, coupling):
    """A zero-diagonal path of n rows with one off-diagonal value: its
    lowest eigenvalue is -2 coupling cos(pi / (n + 1))."""
    return np.zeros(n), np.full(n - 1, coupling)


SPLIT_CASES = {
    # ub = -1.12 sits in the fourth block; the three before it each go lower
    # than the last, so the sweep fails in each and restarts after it
    "three_failing_before": [path(4, 1.0), path(5, 1.5), path(6, 2.0),
                             (np.array([-1.0, 1.0]), np.array([0.5]))],
    # after ub, a failing block is followed at once by the lowest one, whose
    # first row alone (0) would pass: a restart one row late misses it
    "failing_then_lowest_after": [(np.array([1.0, 2.0]), np.array([0.3])),
                                  (np.array([-1.0, 1.0]), np.array([0.5])),
                                  path(3, 3.0), path(2, 5.0),
                                  (np.array([0.5]), np.zeros(0))],
    # size-1 blocks first, last and holding the lowest diagonal entry
    "size_one_blocks": [(np.array([3.0]), np.zeros(0)), path(6, 3.5),
                        (np.array([-1.0]), np.zeros(0)), (np.array([2.0]), np.zeros(0)),
                        path(2, 0.25), (np.array([4.0]), np.zeros(0))],
    "diagonal": [(np.array([v]), np.zeros(0)) for v in (3.0, -2.0, 5.0, -2.5, 0.0)],
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_lowest_eigenvalue_of_split_tridiagonals_matches_the_dense_oracle(case):
    blocks = SPLIT_CASES[case]
    dense_min, block, tol = split_oracle(blocks)
    lowest = lowest_eigenvalue(split_tridiagonal_band(blocks))
    assert abs(lowest.value - dense_min) <= tol
    assert lowest.lower_bound <= dense_min
    assert lowest.channel == block


def test_failing_blocks_are_each_bisected_over_their_own_rows(monkeypatch):
    # the lowest diagonal block and the three failing ones, one solve each,
    # then the Ritz polish of the lowest; each sweep starts where the last
    # failing block ends and fails in the next block's leading rows, and the
    # last failing block ends the rows before the lowest diagonal block
    blocks = SPLIT_CASES["three_failing_before"]
    sizes = [b[0].size for b in blocks]
    calls = record_tridiagonal_solves(monkeypatch)
    sweeps = record_ldl_sweeps(monkeypatch)
    lowest = lowest_eigenvalue(split_tridiagonal_band(blocks))
    assert calls == [("i", 2), ("v", 4), ("v", 5), ("v", 6), ("v", 6)]
    assert sweeps == [(15, 3), (11, 3), (6, 3)]
    assert lowest.channel == 2 and sum(sizes) == 17


def test_lowest_eigenvalue_of_a_complex_hermitian_tridiagonal():
    # unit phases on the off-diagonals leave the spectrum of the moduli's
    # tridiagonal, which splits where a modulus is zero
    blocks = SPLIT_CASES["failing_then_lowest_after"]
    ab = split_tridiagonal_band(blocks).astype(complex)
    ab[0] *= np.exp(1j * np.linspace(0.0, 3.0, ab.shape[1]))
    dense_min = np.linalg.eigvalsh(band_to_dense(ab))[0]
    _, block, tol = split_oracle(blocks)
    lowest = lowest_eigenvalue(ab)
    assert abs(lowest.value - dense_min) <= tol
    assert lowest.channel == block


@both_couplings
def test_channel_tridiagonal_minimum_of_a_coupled_band(angular, monkeypatch):
    # t, the channel tridiagonals' lowest eigenvalue, read from H's node-major
    # band, is the lowest per-channel eigenvalue, and its channel is named
    from fluxlab import spectral
    h = coupled_model(angular)
    minima = channel_minima(h)
    found = []
    original = spectral._tridiagonal_lowest
    monkeypatch.setattr(spectral, "_tridiagonal_lowest",
                        lambda ab: found.append(original(ab)) or found[-1])
    lowest = lowest_eigenvalue(h.to_band()[0])
    (t,) = found
    tol = np.finfo(float).eps * np.max(np.abs(h.diagonals) + 2 * np.abs(h.off_diagonal[0]))
    assert abs(t.value - min(minima)) <= tol
    assert t.block == lowest.channel == int(np.argmin(minima))
    assert t.rows == slice(t.block * h.grid.n_r, (t.block + 1) * h.grid.n_r)


@pytest.mark.parametrize("j_max", [2, 9])
def test_tridiagonal_lowest_bisects_only_the_channels_whose_pivot_fails(j_max, monkeypatch):
    # the channel with the lowest diagonal entry is bisected first; the sweep
    # visits the others in row order and bisects each one that goes lower
    # than every channel bisected before it; the Ritz polish comes last
    h = assemble_hamiltonian(FluxProfile.linear(1.0), None, build_grid(120, 12.0), j_max)
    n = h.grid.n_r
    minima = channel_minima(h)
    first = int(np.argmin(h.diagonals.min(axis=1)))
    failing, top = 0, minima[first]
    for c in range(h.n_ch):
        if c != first and minima[c] < top:
            failing, top = failing + 1, minima[c]
    from fluxlab import spectral
    polished = []
    kernel = spectral.tridiagonal_eigenpairs
    monkeypatch.setattr(spectral, "tridiagonal_eigenpairs",
                        lambda *args: polished.append(kernel(*args)) or polished[-1])
    calls = record_tridiagonal_solves(monkeypatch)
    sweeps = record_ldl_sweeps(monkeypatch)
    lowest = lowest_eigenvalue(h.to_band()[0])
    assert calls == [("i", n)] + [("v", n)] * failing + [("v", n)]
    # the polish spends one inverse-iteration vector
    assert [vecs.shape for _, vecs, _ in polished] == [(n, 1)]
    assert sum(info != 0 for _, info in sweeps) == failing
    assert all(rows <= h.dim - n for rows, _ in sweeps)
    assert lowest.channel == int(np.argmin(minima))
    assert (j_max, failing) != (9, 0)


def test_window_solve_skips_channels_whose_floor_is_above_the_top(monkeypatch):
    # linear flux gives V_j = (1 - j / r)^2 >= 1 for j <= 0, so those
    # channels' floors lie above the top and they have no pair to solve
    h = assemble_hamiltonian(FluxProfile.linear(1.0), None, build_grid(200, 16.0), 6)
    floors = np.min(h.potential + h.symmetric_part, axis=1)
    top = 0.9 + 0.05                      # window_upper + WINDOW_MARGIN
    assert 0 < np.count_nonzero(floors < top) < h.n_ch
    calls = record_tridiagonal_solves(monkeypatch)
    es = diagonalize(h, window_upper=0.9)
    assert len(calls) == np.count_nonzero(floors < top)
    skipped = [b for b, floor in zip(es.blocks, floors) if floor >= top]
    assert all(b.cols.size == 0 for b in skipped)


def test_lowest_eigenvalue_raises_when_the_certificate_fails(monkeypatch):
    # a Weyl shift above lambda_min must not return a number
    from fluxlab import spectral
    h = coupled_model(np.cos)
    monkeypatch.setattr(spectral, "_tridiagonal_lowest",
                        lambda ab: spectral._TridiagonalLowest(50.0, 0, slice(0, 1)))
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
