import numpy as np
import pytest

from blindchan.checks import block_diag, explicit_compressed_gram
from blindchan.exceptions import ConfigurationError, DimensionError
from blindchan.models import complex_gaussian
from blindchan.sigops import conv_matrix
from blindchan.spectral import eig_hermitian
from blindchan import solvers, xcorr

from conftest import make_instance


class TestCrossRelationMatrix:
    def test_two_channel_layout(self, rng):
        y1 = complex_gaussian(rng, 8)
        y2 = complex_gaussian(rng, 8)
        Y = xcorr.cross_relation_matrix([y1, y2], 3)
        np.testing.assert_allclose(Y[:, :3], conv_matrix(y2, 3), atol=1e-14)
        np.testing.assert_allclose(Y[:, 3:], -conv_matrix(y1, 3), atol=1e-14)

    def test_row_count(self, rng):
        M, L, K = 4, 12, 3
        ys = [complex_gaussian(rng, L) for _ in range(M)]
        assert xcorr.cross_relation_matrix(ys, K).shape == (72, M * K)

    def test_noiseless_annihilates_truth(self, rng):
        _, _, truth, _, ys = make_instance(rng, 3, 4, 16)
        Y = xcorr.cross_relation_matrix(ys, 4)
        bound = 1e-10 * np.linalg.norm(Y, 2) * np.linalg.norm(truth)
        assert np.linalg.norm(Y @ truth) <= bound

    def test_needs_two_channels(self, rng):
        with pytest.raises(ConfigurationError):
            xcorr.cross_relation_matrix([complex_gaussian(rng, 8)], 2)

    @pytest.mark.parametrize("M,K,L", [(2, 3, 8), (4, 3, 12), (5, 2, 7)])
    def test_equals_per_pair_strips(self, rng, M, K, L):
        ys = complex_gaussian(rng, M, L)
        strips = []
        for i in range(M - 1):
            for j in range(i + 1, M):
                strip = np.zeros((L, M * K), dtype=complex)
                strip[:, i * K : (i + 1) * K] = conv_matrix(ys[j], K)
                strip[:, j * K : (j + 1) * K] = -conv_matrix(ys[i], K)
                strips.append(strip)
        np.testing.assert_array_equal(xcorr.cross_relation_matrix(ys, K), np.vstack(strips))

    def test_size_cap(self, rng):
        ys = [complex_gaussian(rng, 2**12) for _ in range(2)]
        with pytest.raises(ConfigurationError):
            xcorr.cross_relation_matrix(ys, 2**10)


class TestCrossCorrMatrix:
    def test_matches_explicit_oracle(self, rng):
        for _ in range(5):
            ys = [complex_gaussian(rng, 32) for _ in range(3)]
            Y = xcorr.cross_relation_matrix(ys, 8)
            oracle = Y.conj().T @ Y
            fast = xcorr.cross_corr_matrix(ys, 8)
            err = np.linalg.norm(fast - oracle) / np.linalg.norm(oracle)
            assert err <= 1e-10

    @pytest.mark.parametrize("M,K,L", [(2, 1, 1), (3, 7, 29), (4, 32, 64), (16, 32, 640)])
    def test_equals_per_pair_block_assembly(self, rng, M, K, L):
        # reference: one FFT correlation per channel pair, the pairs below the
        # diagonal mirrored, each Gram block written on its own
        ys = complex_gaussian(rng, M, L)
        fhat = [np.fft.fft(y) for y in ys]
        idx = (np.arange(K)[:, None] - np.arange(K)[None, :]) % L
        blocks = {}
        for a in range(M):
            for b in range(a, M):
                blocks[a, b] = np.fft.ifft(np.conj(fhat[a]) * fhat[b])[idx]
                blocks[b, a] = blocks[a, b].conj().T if b > a else blocks[a, b]
        diag_sum = sum(blocks[a, a] for a in range(M))
        want = np.zeros((M * K, M * K), dtype=complex)
        for n in range(M):
            for m in range(M):
                block = diag_sum - blocks[m, m] if n == m else -blocks[m, n]
                want[n * K : (n + 1) * K, m * K : (m + 1) * K] = block
        np.testing.assert_array_equal(xcorr.cross_corr_matrix(ys, K), want)

    def test_noiseless_smallest_eigenvalue(self, rng):
        _, _, _, _, ys = make_instance(rng, 4, 6, 24)
        w = np.linalg.eigvalsh(xcorr.cross_corr_matrix(ys, 6))
        assert w[0] <= 1e-10 * w[-1]

    def test_hand_gram_two_by_two(self):
        # M=2, K=1: the Gram reduces to plain inner products of the signals
        y1 = np.array([1.0, 0.0], dtype=complex)
        y2 = np.array([0.0, 1.0], dtype=complex)
        g = xcorr.cross_corr_matrix([y1, y2], 1)
        np.testing.assert_allclose(g[0:1, 0:1], [[1.0]], atol=1e-14)
        np.testing.assert_allclose(g[1:2, 1:2], [[1.0]], atol=1e-14)
        np.testing.assert_allclose(g[0:1, 1:2], [[0.0]], atol=1e-14)

    def test_hermitian_and_psd(self, rng):
        for _ in range(50):
            M = int(rng.integers(2, 5))
            K = int(rng.integers(2, 9))
            L = int(rng.integers(3 * K, 6 * K))
            ys = [complex_gaussian(rng, L) for _ in range(M)]
            a = xcorr.cross_corr_matrix(ys, K)
            assert np.linalg.norm(a - a.conj().T) <= 1e-10 * np.linalg.norm(a)
            w = np.linalg.eigvalsh((a + a.conj().T) / 2)
            assert w[0] >= -1e-10 * w[-1]

    def test_noiseless_null_space_is_one_dimensional(self, rng):
        # K <= L/3: only scalar multiples of the truth are annihilated
        for _ in range(10):
            _, _, _, _, ys = make_instance(rng, 3, 8, 32)
            w = np.linalg.eigvalsh(xcorr.cross_corr_matrix(ys, 8))
            assert w[0] <= 1e-10 * w[-1]
            assert w[1] > 1e-8 * w[-1]


#: (M, K, D, L) shapes for the compressed Gram, with the edges M=2, D=1,
#: D=K, L=K and L<3K, and the lag window's boundary: L = 2K-1, 2K, 2K+1
#: (the first length it wraps at), a prime L > 2K, and L = 8K and 20K.
COMPRESSED_SHAPES = [
    (2, 6, 3, 24),
    (3, 8, 1, 32),
    (3, 5, 5, 20),
    (4, 6, 2, 6),
    (3, 8, 4, 12),
    (2, 3, 3, 3),
    (5, 7, 3, 40),
    (3, 8, 3, 15),
    (3, 8, 3, 16),
    (3, 8, 3, 17),
    (3, 7, 2, 31),
    (4, 8, 4, 64),
    (2, 6, 3, 120),
]


class TestCompressedCrossCorr:
    @pytest.mark.parametrize("shape", COMPRESSED_SHAPES)
    def test_matches_explicit_oracle(self, rng, shape):
        M, K, D, L = shape
        ys = [complex_gaussian(rng, L) for _ in range(M)]
        bases = complex_gaussian(rng, M, K, D)
        oracle = explicit_compressed_gram(ys, bases)
        fast = xcorr.compressed_cross_corr(ys, bases)
        assert np.linalg.norm(fast - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("noise_var", [0.0, 0.3])
    @pytest.mark.parametrize("shape", COMPRESSED_SHAPES)
    def test_debiased_solver_matrix_matches_oracle(self, monkeypatch, rng, shape, noise_var):
        # the matrix sccc hands to its eigensolve is the explicit compressed
        # Gram minus the noise Gram noise_var*(M-1)*L*I compressed the same way
        M, K, D, L = shape
        bases, _, _, _, ys = make_instance(rng, M, K, L, dim=D, noise_var=noise_var)
        seen = []

        def recording(matrix):
            seen.append(matrix)
            return eig_hermitian(matrix)

        monkeypatch.setattr(solvers, "eig_hermitian", recording)
        solvers.solve_subspace_cross_conv(ys, bases, noise_var)
        phi = block_diag(bases)
        shift = xcorr.noise_gram_mean(M, L, noise_var)
        oracle = explicit_compressed_gram(ys, bases) - shift * (phi.conj().T @ phi)
        assert np.linalg.norm(seen[0] - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_noiseless_annihilates_coefficients(self, rng):
        bases, u, _, _, ys = make_instance(rng, 3, 8, 32, dim=3)
        compressed = xcorr.compressed_cross_corr(ys, bases)
        assert np.linalg.norm(compressed @ u) <= 1e-10 * np.linalg.norm(compressed, 2)

    def test_shape_checks(self, rng):
        ys = [complex_gaussian(rng, 16) for _ in range(3)]
        with pytest.raises(DimensionError):
            xcorr.compressed_cross_corr(ys, complex_gaussian(rng, 2, 4, 2))
        with pytest.raises(DimensionError):
            xcorr.compressed_cross_corr(ys, complex_gaussian(rng, 4, 2))
        with pytest.raises(DimensionError):
            xcorr.compressed_cross_corr(ys, complex_gaussian(rng, 3, 17, 2))


def test_noise_gram_mean_follows_debias_identity(rng):
    # short Monte Carlo sanity run; the 2000-draw 5% version is in acceptance
    M, K, L = 2, 3, 12
    noise_var = 0.4
    acc = np.zeros((M * K, M * K), dtype=complex)
    n = 400
    for _ in range(n):
        ws = [complex_gaussian(rng, L, var=noise_var) for _ in range(M)]
        acc += xcorr.cross_corr_matrix(ws, K)
    acc /= n
    target = xcorr.noise_gram_mean(M, L, noise_var) * np.eye(M * K)
    assert np.linalg.norm(acc - target) / np.linalg.norm(target) <= 0.15
