import numpy as np
import pytest

from blindchan.checks import davis_kahan_trials
from blindchan.exceptions import InputError
from blindchan.metrics import sin_angle
from blindchan.models import complex_gaussian
from blindchan import blas, spectral

from conftest import make_instance, noisy_outputs


def random_gapped_psd(rng, n, floor=0.0, gap=0.3):
    """PSD matrix with smallest eigenvalue `floor` separated by `gap`."""
    q, _ = np.linalg.qr(complex_gaussian(rng, n, n))
    lam = np.concatenate([[floor], floor + gap + rng.uniform(0.0, 1.0, n - 1)])
    return (q * lam) @ q.conj().T, q[:, 0]


def eigenpair_residual(a, res):
    """||A v - lambda_min v|| / ||A||_F of the service's smallest eigenpair."""
    v = res.vector
    return np.linalg.norm(a @ v - res.lambda_min * v) / np.linalg.norm(a)


class TestEigHermitian:
    def test_diagonal_example(self):
        res = spectral.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(res.eigenvalues, [3, 2, 1], atol=1e-14)
        np.testing.assert_allclose(np.abs(res.vector), [0, 1, 0], atol=1e-14)

    def test_construct_then_decompose(self, rng):
        n = 12
        q, _ = np.linalg.qr(complex_gaussian(rng, n, n))
        lam = np.sort(rng.uniform(0.5, 5.0, n))[::-1]
        a = (q * lam) @ q.conj().T
        res = spectral.eig_hermitian(a)
        np.testing.assert_allclose(res.eigenvalues, lam, atol=1e-10)
        assert eigenpair_residual(a, res) <= 1e-9

    def test_reconstruction_and_trace(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 25))
            g = complex_gaussian(rng, n, n)
            a = (g + g.conj().T) / 2
            res = spectral.eig_hermitian(a)
            assert eigenpair_residual(a, res) <= 1e-9
            assert abs(res.eigenvalues.sum() - np.trace(a).real) <= 1e-9 * np.linalg.norm(a) * n

    def test_noiseless_gram_has_null_vector(self, rng):
        from blindchan.xcorr import cross_corr_matrix

        _, _, _, _, ys = make_instance(rng, 3, 6, 24)
        res = spectral.eig_hermitian(cross_corr_matrix(ys, 6))
        assert res.eigenvalues[-1] <= 1e-10 * res.eigenvalues[0]

    def test_noiseless_subspace_matrix_aligns_with_coefficients(self, rng):
        from blindchan.solvers import solve_subspace_cross_conv

        bases, u, truth, _, ys = make_instance(rng, 3, 8, 32, dim=3)
        est = solve_subspace_cross_conv(ys, bases, 0.0)
        assert sin_angle(est.u_hat, u) <= 1e-8

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            spectral.eig_hermitian(np.array([[np.inf, 0], [0, 1]]))

    def test_phase_canonicalization_deterministic(self, rng):
        a, _ = random_gapped_psd(rng, 8)
        v1 = spectral.eig_hermitian(a).vector
        v2 = spectral.eig_hermitian(a.copy()).vector
        np.testing.assert_array_equal(v1, v2)
        pivot = v1[np.argmax(np.abs(v1))]
        assert abs(pivot.imag) <= 1e-12 * abs(pivot.real)
        assert pivot.real > 0


def pca_dense_matrices():
    """The cc, sccc and ls matrices of one noisy K=32, M=16, D=6, L=640, 20 dB instance."""
    from blindchan import solvers
    from blindchan.models import (
        gen_channels_in_subspace, gen_pca_subspace, sigma_for_snr,
    )

    K, M, D, L = 32, 16, 6, 640
    rng = np.random.default_rng(640)
    bases = gen_pca_subspace(K, D, M, rng)
    u, filters = gen_channels_in_subspace(bases, rng)
    x = complex_gaussian(rng, L)
    noise_var = sigma_for_snr(100.0, K, L, M, x, u)
    ys = noisy_outputs(x, filters, rng, noise_var)
    captured = []

    def capture(a, overwrite_a=False):
        captured.append(np.array(a))
        return spectral.eig_hermitian(a, overwrite_a=overwrite_a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "eig_hermitian", capture)
        solvers.solve_cross_conv(ys, K)
        solvers.solve_subspace_cross_conv(ys, bases, noise_var)
    # ls solves its Gram by structure; the dense path it falls back to gets this matrix
    captured.append(solvers._ls_gram(*solvers._ls_factors(np.fft.fft(ys, axis=1), bases)))
    return captured


class TestSmallestPairOracle:
    """The inverse-iteration shortcut pinned to the dense eigh oracle."""

    def assert_matches_eigh(self, a):
        w, vecs = np.linalg.eigh((a + a.conj().T) / 2)
        res = spectral.eig_hermitian(a)
        assert np.max(np.abs(res.eigenvalues[::-1] - w)) <= 1e-13 * abs(w).max()
        assert sin_angle(res.vector, vecs[:, 0]) <= 1e-10
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64, 200, 512, 700])
    def test_random_gapped_psd(self, rng, n):
        for floor in (0.0, 0.5):
            a, _ = random_gapped_psd(rng, n, floor=floor, gap=0.3)
            self.assert_matches_eigh(a)

    def test_noisy_estimator_matrices(self):
        matrices = pca_dense_matrices()
        assert [len(a) for a in matrices] == [512, 96, 640]
        for a in matrices:
            self.assert_matches_eigh(a)

    @pytest.mark.parametrize("name", ["shifted_diagonal", "zero", "identical_channels"])
    def test_singular_inputs(self, rng, name):
        if name == "shifted_diagonal":
            a = np.diag(np.array([3.0, 1.0, 2.0]) - 1.0)
        elif name == "zero":
            a = np.zeros((5, 5))
        else:
            from blindchan.sigops import convolve_short
            from blindchan.xcorr import cross_corr_matrix

            y = convolve_short(complex_gaussian(rng, 16), complex_gaussian(rng, 4))
            a = cross_corr_matrix([y, y.copy()], 4)
        res = spectral.eig_hermitian(a)
        v = res.vector
        assert np.all(np.isfinite(v))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(a @ v - res.lambda_min * v) <= 1e-9 * np.linalg.norm(a)
        if name == "shifted_diagonal":
            np.testing.assert_allclose(np.abs(v), [0, 1, 0], atol=1e-14)
        if name == "identical_channels":
            assert res.degenerate


class TestFallbackOracle(TestSmallestPairOracle):
    """The same dense-oracle assertions on the path without scipy-openblas."""

    @pytest.fixture(autouse=True)
    def no_library(self, monkeypatch):
        monkeypatch.setattr(blas, "LIB", None)


def hermitian(rng, n, scale=1.0):
    """An exactly Hermitian n x n matrix with entries of size `scale`."""
    a = complex_gaussian(rng, n, n)
    return (a + a.conj().T) / 2 * scale


class TestOverwrite:
    """overwrite_a=True: the caller's exactly Hermitian Fortran-ordered buffer
    goes to the reduction with no copy and gives the copying path's bits."""

    @pytest.fixture(params=["zhetrd", "fallback"])
    def path(self, request, monkeypatch):
        if request.param == "fallback":
            monkeypatch.setattr(blas, "LIB", None)
        elif blas.LIB is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        return request.param

    def assert_same_bits(self, a):
        buffer = np.asfortranarray(a)
        with blas.single_thread():
            want = spectral.eig_hermitian(a)
            got = spectral.eig_hermitian(buffer, overwrite_a=True)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.vector.tobytes() == want.vector.tobytes()
        return buffer

    @pytest.mark.parametrize("n", [2, 7, 32, 96, 512])
    def test_same_bits_as_the_copying_path(self, path, n):
        self.assert_same_bits(hermitian(np.random.default_rng(n), n))

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e200, 1e300])
    def test_same_bits_at_extreme_scales(self, path, scale):
        # the scales of test_blas's eigvalsh pin, where the zlanhe norm scales a
        self.assert_same_bits(hermitian(np.random.default_rng(9), 9, scale))

    def test_the_gram_of_cc_is_taken_as_it_is_built(self, rng):
        from blindchan.xcorr import cross_corr_matrix

        gram = cross_corr_matrix(complex_gaussian(rng, 4, 40), 8)
        assert self.assert_same_bits(gram) is gram  # Fortran-ordered: handed over as built
        if blas.LIB is not None:
            assert not np.array_equal(gram, gram.conj().T)  # the reduction wrote into it

    @pytest.mark.parametrize("buffer", [
        lambda a: np.ascontiguousarray(a),
        lambda a: np.asfortranarray(a.astype(np.complex64)),
        lambda a: np.asfortranarray(a.real),
    ], ids=["c_ordered", "complex64", "float64"])
    def test_refuses_a_buffer_it_cannot_take(self, path, buffer):
        a = buffer(hermitian(np.random.default_rng(3), 5))
        with pytest.raises(ValueError, match="Fortran-ordered complex128"):
            spectral.eig_hermitian(a, overwrite_a=True)

    @pytest.mark.parametrize("entry, value", [
        ((0, 0), np.nan), ((0, 0), np.inf), ((2, 2), complex(1, np.nan)), ((3, 1), np.nan),
        ((3, 1), -np.inf), ((4, 2), complex(1, np.nan)), ((4, 2), complex(0, np.inf)),
    ])
    def test_refuses_a_non_finite_lower_triangle(self, path, entry, value):
        # with its NaN check on, LAPACKE's zlanhe returns -5, not NaN
        a = np.asfortranarray(hermitian(np.random.default_rng(4), 5))
        a[entry] = value
        with pytest.raises(InputError, match="non-finite"):
            spectral.eig_hermitian(a, overwrite_a=True)


class TestSplitAndRepeatedMinimum:
    """Structured inputs: T splits into blocks, or lambda_min repeats."""

    @pytest.mark.parametrize("name, degenerate", [
        ("block_diagonal", False), ("repeated_minimum", True), ("identity", True),
        ("zero_last", False), ("rank_one", True),
    ])
    def test_eigenpair(self, rng, name, degenerate):
        if name == "block_diagonal":  # T splits, and the minimum sits in the later block
            a = np.zeros((7, 7), dtype=complex)
            a[:4, :4] = random_gapped_psd(rng, 4, floor=1.0)[0]
            a[4:, 4:] = random_gapped_psd(rng, 3, floor=0.0)[0]
        elif name == "repeated_minimum":
            a = np.diag([3.0, 1.0, 1.0, 2.0, 1.0])
        elif name == "identity":
            a = np.eye(6)
        elif name == "zero_last":
            a = np.diag([5.0, 4.0, 3.0, 2.0, 0.0])
        else:
            x = complex_gaussian(rng, 6)
            a = np.outer(x, x.conj())
        res = spectral.eig_hermitian(a)
        v = res.vector
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(a @ v - res.lambda_min * v) <= 1e-9 * np.linalg.norm(a)
        assert res.degenerate == degenerate
        if not degenerate:
            assert sin_angle(v, np.linalg.eigh(a)[1][:, 0]) <= 1e-10


class TestSpectralGap:
    def test_diagonal_example(self):
        res = spectral.eig_hermitian(np.diag([0.0, 1.0, 5.0]))
        assert res.lambda_min == pytest.approx(0.0, abs=1e-14)
        assert res.lambda_second == pytest.approx(1.0)
        assert res.lambda_max == pytest.approx(5.0)
        assert res.gap_ratio == pytest.approx(0.2)

    def test_unconstrained_gap_is_tiny(self, rng):
        # scaled-down analogue of the headline spectrum: the second-smallest
        # eigenvalue sits orders of magnitude below the largest
        from blindchan.xcorr import cross_corr_matrix

        _, _, _, _, ys = make_instance(rng, 4, 64, 256)
        res = spectral.eig_hermitian(cross_corr_matrix(ys, 64))
        assert res.gap_ratio <= 1e-3

    def test_subspace_compression_opens_gap(self, rng):
        # compressing the same kind of matrix by a random 8-dimensional model
        # lifts the ratio by orders of magnitude
        from blindchan.xcorr import compressed_cross_corr

        K, M, D, L = 64, 4, 8, 256
        _, _, _, _, ys = make_instance(rng, M, K, L)
        phi = complex_gaussian(rng, M, K, D)
        res = spectral.eig_hermitian(compressed_cross_corr(ys, phi))
        assert res.gap_ratio >= 0.05

    def test_needs_dimension_two(self):
        with pytest.raises(InputError):
            spectral.eig_hermitian(np.array([[1.0]]))


class TestShiftInvariance:
    def test_identity_shift_preserves_argmin_eigenvector(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 17))
            a, _ = random_gapped_psd(rng, n, floor=0.0, gap=0.2)
            sigma = float(rng.uniform(-1, 3))
            v1 = spectral.eig_hermitian(a).vector
            v2 = spectral.eig_hermitian(a + sigma * np.eye(n)).vector
            assert sin_angle(v1, v2) <= 1e-10


class TestDavisKahan:
    def test_zero_perturbation(self, rng):
        a, _ = random_gapped_psd(rng, 6, floor=0.1)
        report = spectral.davis_kahan_check(a, np.zeros((6, 6)))
        assert report.premise_holds
        assert report.lhs == 0.0
        assert report.rhs == 0.0

    def test_identity_shift_perturbation(self, rng):
        a, _ = random_gapped_psd(rng, 6, floor=0.5, gap=1.0)
        report = spectral.davis_kahan_check(a, 0.05 * np.eye(6))
        assert report.premise_holds
        assert report.lhs <= 1e-10
        assert report.lhs <= report.rhs

    def test_bound_holds_on_random_premise_pairs(self, rng):
        assert davis_kahan_trials(200, 10, rng) == 200
