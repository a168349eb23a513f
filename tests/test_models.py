import numpy as np
import pytest

from blindchan.exceptions import ConfigurationError, InputError
from blindchan import checks, models


class TestRngStreams:
    def test_same_triple_is_bit_identical(self):
        a = models.RngStreams(42).stream("noise", 7).standard_normal(16)
        b = models.RngStreams(42).stream("noise", 7).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_labels_and_indices_are_independent(self):
        s = models.RngStreams(42)
        a = s.stream("noise", 0).standard_normal(16)
        b = s.stream("source", 0).standard_normal(16)
        c = s.stream("noise", 1).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_order_of_construction_is_irrelevant(self):
        s1 = models.RngStreams(9)
        first = s1.stream("a", 0).standard_normal(4)
        _ = s1.stream("b", 0).standard_normal(4)
        s2 = models.RngStreams(9)
        _ = s2.stream("b", 0).standard_normal(4)
        again = s2.stream("a", 0).standard_normal(4)
        np.testing.assert_array_equal(first, again)


class TestGaussianSubspace:
    def test_unit_second_moment(self, rng):
        bases = models.gen_gaussian_subspace(100, 50, 20, rng)
        mean_sq = np.mean(np.abs(bases) ** 2)
        assert 0.98 <= mean_sq <= 1.02

    def test_square_basis_invertible(self, rng):
        bases = models.gen_gaussian_subspace(12, 12, 3, rng)
        assert min(np.linalg.svd(phi, compute_uv=False)[-1] for phi in bases) > 0

    def test_condition_number_bounded_for_tall_bases(self, rng):
        # K >= 64 D keeps the blocks well conditioned for nearly every draw
        K, D = 64, 1
        good = 0
        for _ in range(100):
            bases = models.gen_gaussian_subspace(K, D, 1, rng)
            s = np.linalg.svd(bases[0], compute_uv=False)
            good += s[0] / s[-1] <= 3
        assert good >= 95

    def test_dim_bounds(self, rng):
        with pytest.raises(ConfigurationError):
            models.gen_gaussian_subspace(4, 5, 2, rng)


def per_draw_pca_basis(filter_len, dim, n_train, rng, n_channels):
    """gen_pca_subspace from n_train training filters drawn one rng.uniform pair at a time."""
    half = filter_len / 4.0
    rows = []
    for _ in range(n_train):
        shift = rng.uniform(half, filter_len - half)
        amp = np.exp(rng.uniform(np.log(0.5), np.log(2.0)))
        rows.append(amp * models.bandpass_pulse(np.arange(filter_len) - shift, filter_len))
    train = np.stack(rows)
    second_moment = train.conj().T @ train / n_train
    _, v = np.linalg.eigh((second_moment + second_moment.conj().T) / 2)
    return np.repeat(v[:, ::-1][None, :, :dim], n_channels, axis=0)


class TestPcaSubspace:
    @pytest.mark.parametrize(
        "filter_len,dim,n_train,seed", [(32, 6, 300, 0), (33, 5, 250, 1), (7, 3, 150, 2), (512, 4, 200, 3)]
    )
    def test_batched_draws_match_per_draw_loop(self, filter_len, dim, n_train, seed):
        # the generator draws n_train = 50 D filters, fewer than K at (512, 4), in one
        # uniform call that consumes the stream in the per-draw order
        batched_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        bases = models.gen_pca_subspace(filter_len, dim, 2, batched_rng)
        want = per_draw_pca_basis(filter_len, dim, n_train, loop_rng, 2)
        np.testing.assert_array_equal(bases, want)
        np.testing.assert_array_equal(batched_rng.random(4), loop_rng.random(4))

    def test_bandpass_family_rank_is_guarded(self, rng):
        # the compact window vanishes at its boundary, so the family spans
        # strictly fewer than K directions and a full basis is impossible
        with pytest.raises(ConfigurationError, match="needs d < k"):
            models.gen_pca_subspace(16, 16, 1, rng)

    def test_orthonormal_columns(self, rng):
        bases = models.gen_pca_subspace(24, 6, 1, rng)
        gram = bases[0].conj().T @ bases[0]
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_projection_residual_non_increasing_in_dim(self, rng):
        K = 32
        fresh = models.sample_parametric_filter(K, 100, rng)
        residuals = []
        for dim in (2, 4, 8, 16):
            basis = models.gen_pca_subspace(K, dim, 1, np.random.default_rng(5))[0]
            proj = fresh @ basis.conj() @ basis.T
            residuals.append(np.linalg.norm(fresh - proj))
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: the basis is formed from conj(sum f f^H), so it spans "
               "the family's mirror image",
    )
    def test_fresh_family_draws_lie_near_the_span(self):
        rng = np.random.default_rng(1)
        basis = models.gen_pca_subspace(32, 6, 1, rng)[0]
        fresh = models.sample_parametric_filter(32, 100, rng)
        residual = fresh - (fresh @ basis.conj()) @ basis.T
        relative = np.linalg.norm(residual, axis=1) / np.linalg.norm(fresh, axis=1)
        assert np.median(relative) <= 0.05

    def test_shared_across_channels(self, rng):
        bases = models.gen_pca_subspace(16, 4, 3, rng)
        np.testing.assert_array_equal(bases[0], bases[2])


class TestChannelsInSubspace:
    def test_flat_profile_flatness_one(self, rng):
        # flatness sqrt(M) max_m ||u_m|| / ||u|| is 1 exactly when the blocks share a norm
        bases = models.gen_gaussian_subspace(8, 3, 4, rng)
        u, _ = models.gen_channels_in_subspace(bases, rng, "flat")
        np.testing.assert_allclose(np.linalg.norm(u.reshape(4, 3), axis=1), 1.0, rtol=0, atol=1e-12)

    def test_spiky_profile_flatness_sqrt_m(self, rng):
        # ... and sqrt(M) when one block carries all of it
        bases = models.gen_gaussian_subspace(8, 3, 4, rng)
        u, _ = models.gen_channels_in_subspace(bases, rng, "spiky")
        norms = np.linalg.norm(u.reshape(4, 3), axis=1)
        assert norms[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(norms[1:] == 0)

    def test_channels_lie_in_model_range(self, rng):
        bases = models.gen_gaussian_subspace(8, 3, 4, rng)
        _, filters = models.gen_channels_in_subspace(bases, rng)
        phi = checks.block_diag(bases)
        h = filters.reshape(-1)
        proj = phi @ np.linalg.lstsq(phi, h, rcond=None)[0]
        assert np.linalg.norm(h - proj) <= 1e-10 * np.linalg.norm(h)

    def test_unknown_profile(self, rng):
        bases = models.gen_gaussian_subspace(8, 3, 4, rng)
        with pytest.raises(InputError):
            models.gen_channels_in_subspace(bases, rng, "lumpy")


class TestGenSource:
    def test_flat_spectrum_autocorr_is_energy(self, rng):
        # every |fft(x)|^2 is L, so the circular autocorrelation
        # ifft(|fft(x)|^2) is ||x||^2 at lag 0 and zero at every other lag
        x = models.gen_source("flat_spectrum", 64, rng)
        np.testing.assert_allclose(np.abs(np.fft.fft(x)) ** 2, 64, rtol=1e-12)
        autocorr = np.fft.ifft(np.abs(np.fft.fft(x)) ** 2)
        energy = np.linalg.norm(x) ** 2
        assert autocorr[0].real == pytest.approx(energy, rel=1e-12)
        np.testing.assert_allclose(autocorr[1:], 0, rtol=0, atol=1e-12 * energy)

    def test_gaussian_sample_variance(self, rng):
        x = models.gen_source("gaussian", 100_000, rng)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.03)

    def test_energy_concentration(self, rng):
        L = 4096
        x = models.gen_source("gaussian", L, rng)
        assert np.linalg.norm(x) ** 2 == pytest.approx(L, rel=0.05)

    def test_unknown_kind(self, rng):
        with pytest.raises(InputError):
            models.gen_source("chirp", 16, rng)


class TestAddNoise:
    def test_zero_noise_is_identity(self, rng):
        s = models.complex_gaussian(rng, 12)
        np.testing.assert_array_equal(models.add_noise(s, 0.0, rng), s)

    def test_empirical_covariance(self, rng):
        L, sw = 8, 0.9
        draws = np.stack(
            [models.add_noise(np.zeros(L), sw, rng) for _ in range(10_000)]
        )
        cov = draws.conj().T @ draws / len(draws)
        target = sw**2 * np.eye(L)
        assert np.linalg.norm(cov - target) <= 0.05 * np.linalg.norm(target)

    @pytest.mark.parametrize("M,L", [(4, 64), (16, 640), (3, 29)])
    def test_stack_equals_per_row_draws(self, M, L):
        # one draw for the M x L outputs: row by row, real parts then imaginary
        # parts, so the bits and the stream state match M one-row draws
        clean = models.complex_gaussian(np.random.default_rng(M * L), M, L)
        sw = 0.37
        stacked_rng = np.random.default_rng(11)
        looped_rng = np.random.default_rng(11)
        stacked = models.add_noise(clean, sw, stacked_rng)
        looped = np.stack(
            [y + models.complex_gaussian(looped_rng, L, var=sw**2) for y in clean]
        )
        np.testing.assert_array_equal(stacked, looped)
        np.testing.assert_array_equal(stacked_rng.standard_normal(4), looped_rng.standard_normal(4))

    def test_vector_equals_one_row(self):
        s = models.complex_gaussian(np.random.default_rng(3), 29)
        got = models.add_noise(s, 0.5, np.random.default_rng(4))
        want = s + models.complex_gaussian(np.random.default_rng(4), 29, var=0.25)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            models.add_noise(s[None, :], 0.5, np.random.default_rng(4)), want[None, :]
        )

    def test_zero_noise_leaves_stack_and_stream(self, rng):
        clean = models.complex_gaussian(rng, 3, 16)
        stream = np.random.default_rng(5)
        got = models.add_noise(clean, 0.0, stream)
        np.testing.assert_array_equal(got, clean)
        assert got is not clean
        np.testing.assert_array_equal(
            stream.standard_normal(4), np.random.default_rng(5).standard_normal(4)
        )

    @pytest.mark.parametrize("s", [np.zeros((2, 3, 4)), np.zeros((0, 4)), [[1.0, np.nan]]])
    def test_bad_signal_rejected(self, s, rng):
        with pytest.raises(InputError):
            models.add_noise(s, 1.0, rng)

    @pytest.mark.parametrize("sw", [-0.5, np.nan, np.inf])
    def test_bad_noise_level_rejected(self, sw, rng):
        # a NaN level used to return all-NaN outputs without a word
        with pytest.raises(InputError, match="noise level"):
            models.add_noise(np.ones((2, 4)), sw, rng)

    def test_channels_get_independent_draws(self, rng):
        L, sw = 8, 1.0
        a = np.stack([models.add_noise(np.zeros(L), sw, rng) for _ in range(10_000)])
        b = np.stack([models.add_noise(np.zeros(L), sw, rng) for _ in range(10_000)])
        assert abs(np.mean(a.conj() * b)) <= 0.05 * sw**2


class TestSigmaForSnr:
    def test_formula_arithmetic(self):
        # direct formula evaluation: K ||x||^2 ||u||^2 / (M L eta)
        x = np.array([np.sqrt(10), 0, 0, 0, 0], dtype=complex)
        u = np.array([1.0, 1.0], dtype=complex)
        got = models.sigma_for_snr(8.0, 4, 5, 2, x, u)
        assert got == pytest.approx(4 * 10 * 2 / (2 * 5 * 8.0))

    def test_inverse_proportionality(self, rng):
        x = models.complex_gaussian(rng, 16)
        u = models.complex_gaussian(rng, 6)
        assert models.sigma_for_snr(8.0, 4, 16, 2, x, u) == pytest.approx(
            models.sigma_for_snr(4.0, 4, 16, 2, x, u) / 2
        )

    def test_zero_energy_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            models.sigma_for_snr(1.0, 4, 8, 2, np.zeros(8), np.ones(4))

    def test_empirical_matches_formula(self, rng):
        # the Monte Carlo energy ratio at the returned noise variance hits the target
        x = models.complex_gaussian(rng, 32)
        u = models.complex_gaussian(rng, 9)
        noise_var = models.sigma_for_snr(10.0, 8, 32, 3, x, u)
        empirical = checks.empirical_snr(8, 32, 3, x, u, noise_var, 2000, rng)
        assert empirical == pytest.approx(10.0, rel=0.03)
