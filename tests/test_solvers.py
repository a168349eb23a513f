import warnings

import numpy as np
import pytest

from blindchan.exceptions import ConfigurationError, DimensionError, InputError
from blindchan.metrics import sin_angle
from blindchan.models import (
    bandpass_pulse,
    complex_gaussian,
    gen_channels_in_subspace,
    gen_gaussian_subspace,
    gen_pca_subspace,
    gen_source,
    sigma_for_snr,
    SubspaceModel,
)
from blindchan.sigops import convolve_short
from blindchan.spectral import EigenResult, canonical_phase
from blindchan.xcorr import cross_corr_matrix
from blindchan import solvers

from conftest import make_instance, noisy_outputs


def bandpass_instance(seed, filter_len=32, n_channels=8, dim=6, l_over_k=10, snr_db=40.0):
    """One observation set drawn from the shared band-pass PCA model."""
    rng = np.random.default_rng(seed)
    L = l_over_k * filter_len
    model = gen_pca_subspace(bandpass_pulse, filter_len, dim, 50 * dim, rng,
                             n_channels=n_channels)
    u, filters = gen_channels_in_subspace(model, rng)
    x = complex_gaussian(rng, L)
    noise_var = sigma_for_snr(10 ** (snr_db / 10), filter_len, L, n_channels, x, u)
    ys = noisy_outputs(x, filters, rng, noise_var)
    return model, filters.reshape(-1), x, ys


class TestCrossConv:
    def test_noiseless_exact_recovery(self, rng):
        _, _, truth, _, ys = make_instance(rng, 4, 16, 48)
        est = solvers.solve_cross_conv(ys, 16)
        assert sin_angle(est.h_hat, truth) <= 1e-6
        assert not est.degenerate

    def test_scale_invariance(self, rng):
        _, _, _, _, ys = make_instance(rng, 3, 8, 32, noise_var=0.05)
        base = solvers.solve_cross_conv(ys, 8)
        scaled = solvers.solve_cross_conv([(-2.0 + 1.5j) * y for y in ys], 8)
        assert sin_angle(base.h_hat, scaled.h_hat) <= 1e-10

    def test_identical_channels_flagged_degenerate(self, rng):
        # shared channel: the constraints cannot separate the pair, so the
        # null space blows up to dimension K (explicit SVD oracle) and the
        # solver must flag the instance
        from blindchan.xcorr import cross_relation_matrix

        K, L = 4, 16
        h = complex_gaussian(rng, K)
        x = complex_gaussian(rng, L)
        y = convolve_short(x, h)
        ys = [y, y.copy()]
        svals = np.linalg.svd(cross_relation_matrix(ys, K), compute_uv=False)
        assert np.sum(svals <= 1e-10 * svals[0]) == K
        est = solvers.solve_cross_conv(ys, K)
        assert est.degenerate

    def test_unit_norm_and_canonical_phase(self, rng):
        _, _, _, _, ys = make_instance(rng, 3, 8, 32, noise_var=0.1)
        est = solvers.solve_cross_conv(ys, 8)
        assert np.linalg.norm(est.h_hat) == pytest.approx(1.0, abs=1e-12)
        pivot = est.h_hat[np.argmax(np.abs(est.h_hat))]
        assert pivot.real > 0
        assert abs(pivot.imag) <= 1e-12 * pivot.real


class TestSubspaceCrossConv:
    def test_noiseless_exact_recovery(self, rng):
        model, _, truth, _, ys = make_instance(rng, 4, 16, 48, dim=4)
        est = solvers.solve_subspace_cross_conv(ys, model, 0.0)
        assert sin_angle(est.h_hat, truth) <= 1e-8

    def test_debias_shift_is_neutral_for_orthonormal_model(self, rng):
        model, u, truth, x, _ = make_instance(rng, 3, 8, 40, dim=3)
        model = SubspaceModel(bases=np.stack([np.linalg.qr(phi)[0] for phi in model.bases]))
        _, filters = gen_channels_in_subspace(model, rng)
        noise_var = 0.02
        ys = noisy_outputs(x, filters, rng, noise_var)
        with_shift = solvers.solve_subspace_cross_conv(ys, model, noise_var)
        without = solvers.solve_subspace_cross_conv(ys, model, 0.0)
        assert sin_angle(with_shift.h_hat, without.h_hat) <= 1e-10

    def test_reduces_to_cross_conv_for_identity_model(self, rng):
        K, M = 6, 3
        _, _, _, _, ys = make_instance(rng, M, K, 24, noise_var=0.05)
        identity = SubspaceModel(bases=np.repeat(np.eye(K, dtype=complex)[None], M, axis=0))
        sub = solvers.solve_subspace_cross_conv(ys, identity, 0.0)
        full = solvers.solve_cross_conv(ys, K)
        assert sin_angle(sub.h_hat, full.h_hat) <= 1e-10

    def test_beats_unconstrained_on_noisy_instances(self, rng):
        K, M, D, L = 32, 4, 8, 640
        wins = 0
        trials = 20
        for t in range(trials):
            inner = np.random.default_rng(900 + t)
            model = gen_gaussian_subspace(K, D, M, inner)
            u, filters = gen_channels_in_subspace(model, inner)
            x = complex_gaussian(inner, L)
            noise_var = sigma_for_snr(100.0, K, L, M, x, u)
            ys = noisy_outputs(x, filters, inner, noise_var)
            cc = solvers.solve_cross_conv(ys, K)
            sub = solvers.solve_subspace_cross_conv(ys, model, noise_var)
            wins += sin_angle(sub.h_hat, filters) < sin_angle(cc.h_hat, filters)
        assert wins >= int(0.8 * trials)

    def test_channel_count_mismatch(self, rng):
        model, _, _, _, ys = make_instance(rng, 3, 8, 32, dim=2)
        from blindchan.exceptions import DimensionError

        with pytest.raises(DimensionError):
            solvers.solve_subspace_cross_conv(ys[:2], model, 0.0)


class TestOracleLs:
    def test_noiseless_exact(self, rng):
        model, u, truth, x, ys = make_instance(rng, 3, 8, 40, dim=3)
        est = solvers.solve_oracle_ls(ys, x, model)
        assert sin_angle(est.h_hat, truth) <= 1e-10

    def test_matches_pseudoinverse_oracle(self, rng):
        from blindchan.sigops import circulant, zero_pad

        model, _, _, x, ys = make_instance(rng, 3, 8, 40, dim=3, noise_var=0.1)
        est = solvers.solve_oracle_ls(ys, x, model)
        cx = circulant(x)
        for m in range(3):
            padded = np.vstack([model.bases[m], np.zeros((40 - 8, 3))])
            design = cx @ padded
            want = np.linalg.pinv(design) @ ys[m]
            np.testing.assert_allclose(est.u_hat[m * 3 : (m + 1) * 3], want, atol=1e-8)

    def test_error_decreases_with_length(self, rng):
        K, M, D = 8, 3, 3
        eta = 100.0
        medians = []
        for l_over_k in (5, 10, 20):
            L = l_over_k * K
            errs = []
            for t in range(200):
                inner = np.random.default_rng(1000 * l_over_k + t)
                model = gen_gaussian_subspace(K, D, M, inner)
                u, filters = gen_channels_in_subspace(model, inner)
                x = complex_gaussian(inner, L)
                noise_var = sigma_for_snr(eta, K, L, M, x, u)
                ys = noisy_outputs(x, filters, inner, noise_var)
                est = solvers.solve_oracle_ls(ys, x, model)
                errs.append(sin_angle(est.h_hat, filters))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    @pytest.mark.parametrize("M,K,D,L", [(3, 7, 3, 29), (4, 32, 8, 64)])
    def test_equals_per_channel_padded_reference(self, M, K, D, L):
        # reference: each basis block zero-padded and transformed on its own
        rng = np.random.default_rng(M * L)
        model = gen_gaussian_subspace(K, D, M, rng)
        x = complex_gaussian(rng, L)
        ys = [complex_gaussian(rng, L) for _ in range(M)]
        u = []
        for m in range(M):
            padded = np.vstack([model.bases[m], np.zeros((L - K, D))])
            design = np.fft.ifft(np.fft.fft(x)[:, None] * np.fft.fft(padded, axis=0), axis=0)
            u.append(np.linalg.lstsq(design, ys[m], rcond=None)[0])
        est = solvers.solve_oracle_ls(ys, x, model)
        np.testing.assert_array_equal(est.u_hat, np.concatenate(u))

    def test_rank_deficient_design_rejected(self, rng):
        model, _, _, x, ys = make_instance(rng, 3, 8, 40, dim=3)
        bases = model.bases.copy()
        bases[1][:, 2] = 0.0  # kill one basis column
        broken = SubspaceModel(bases=bases)
        with pytest.raises(ConfigurationError):
            solvers.solve_oracle_ls(ys, x, broken)


@pytest.mark.parametrize("solve", [
    lambda ys, x, model: solvers.solve_oracle_ls(ys, x, model),
    lambda ys, x, model: solvers.solve_linearized_ls(ys, model),
], ids=["oracle", "ls"])
def test_baselines_reject_signal_shorter_than_filter(rng, solve):
    model = gen_gaussian_subspace(8, 2, 3, rng)
    ys = [complex_gaussian(rng, 6) for _ in range(3)]
    with pytest.raises(DimensionError, match="filter length 8 exceeds signal length 6"):
        solve(ys, ys[0], model)


#: Each estimator as a function of (observations, source, model).
ESTIMATORS = {
    "cc": lambda ys, x, model: solvers.solve_cross_conv(ys, model.filter_len),
    "sccc": lambda ys, x, model: solvers.solve_subspace_cross_conv(ys, model, 0.0),
    "oracle": lambda ys, x, model: solvers.solve_oracle_ls(ys, x, model),
    "ls": lambda ys, x, model: solvers.solve_linearized_ls(ys, model),
    "noise_var": lambda ys, x, model: solvers.estimate_noise_variance(ys),
}

#: fault -> (observations, source) with the fault injected, the error it must
#: raise, and the estimators that can see it (a channel count needs a model).
FAULTS = {
    "extra-row": (lambda ys, x: (ys + ys[:1], x), DimensionError,
                  "model has 3 channels but got 4", ("sccc", "oracle", "ls")),
    "missing-row": (lambda ys, x: (ys[:-1], x), DimensionError,
                    "model has 3 channels but got 2", ("sccc", "oracle", "ls")),
    "ragged": (lambda ys, x: (ys[:-1] + [ys[-1][:-1]], x), DimensionError,
               "must share a common length", tuple(ESTIMATORS)),
    "nan-row": (lambda ys, x: (ys[:-1] + [np.full(len(x), np.nan)], x), InputError,
                "non-finite", tuple(ESTIMATORS)),
    "short-source": (lambda ys, x: (ys, x[:-1]), DimensionError,
                     "source length 39 differs from signal length 40", ("oracle",)),
}


@pytest.mark.parametrize("fault,method", [
    (fault, method) for fault, (*_, methods) in FAULTS.items() for method in methods
])
def test_malformed_outputs_rejected_alike(rng, fault, method):
    # every estimator runs the one shared check of the channel outputs
    model, _, _, x, ys = make_instance(rng, 3, 8, 40, dim=3)
    inject, error, message, _ = FAULTS[fault]
    bad_ys, bad_x = inject(list(ys), x)
    with pytest.raises(error, match=message):
        ESTIMATORS[method](bad_ys, bad_x, model)


@pytest.mark.parametrize("method", ["cc", "sccc"])
def test_short_window_solves_without_warning(rng, method):
    # L = 2K lies below the recommended L >= 3K: estimates degrade there, but
    # the solvers report only through their return values
    model, _, _, x, ys = make_instance(rng, 3, 8, 16, dim=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ESTIMATORS[method](ys, x, model)


class TestLinearizedLs:
    def test_noiseless_flat_source_exact(self, rng):
        K, M, D, L = 8, 3, 3, 64
        model = gen_gaussian_subspace(K, D, M, rng)
        u, filters = gen_channels_in_subspace(model, rng)
        x = gen_source("flat_spectrum", L, 1.0, rng)
        ys = convolve_short(x, filters)
        est = solvers.solve_linearized_ls(ys, model)
        assert sin_angle(est.h_hat, filters) <= 1e-6

    def test_exact_solution_annihilates_system(self, rng):
        # oracle: the true (inverse spectrum, coefficients) pair satisfies
        # every constraint row of the linearization exactly
        K, M, D, L = 8, 3, 3, 64
        model = gen_gaussian_subspace(K, D, M, rng)
        u, filters = gen_channels_in_subspace(model, rng)
        x = gen_source("flat_spectrum", L, 1.0, rng)
        ys = convolve_short(x, filters)
        s_true = 1.0 / np.fft.fft(x)
        for m in range(M):
            padded = np.vstack([model.bases[m], np.zeros((L - K, D))])
            ghat = np.fft.fft(padded, axis=0)
            resid = np.fft.fft(ys[m]) * s_true - ghat @ u[m * D : (m + 1) * D]
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(np.fft.fft(ys[m]) * s_true)

    def test_bandpass_family_ill_conditioned_and_fails(self):
        # the compactly supported family leaves half the spectrum unexcited:
        # the observed system condition blows up and recovery collapses even
        # at very high SNR
        errs = []
        conds = []
        for seed in range(10):
            model, truth, x, ys = bandpass_instance(seed, snr_db=80.0)
            est = solvers.solve_linearized_ls(ys, model)
            errs.append(sin_angle(est.h_hat, truth))
            conds.append(est.condition)
        assert min(conds) > 1e3
        assert np.percentile(errs, 95) > 0.5

    def test_spectral_zero_flagged_without_warning(self, rng):
        # the channel 1 + z^-1 vanishes at the Nyquist bin, so one output
        # spectrum has an exact zero: ls reports it in ill_posed, not by warning
        K, M, L = 4, 2, 16
        identity = SubspaceModel(bases=np.repeat(np.eye(K, dtype=complex)[None], M, axis=0))
        filters = np.stack([np.array([1, 1, 0, 0], dtype=complex), complex_gaussian(rng, K)])
        ys = convolve_short(complex_gaussian(rng, L), filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = solvers.solve_linearized_ls(ys, identity)
        assert est.ill_posed

    def test_scale_invariance(self, rng):
        model, truth, x, ys = bandpass_instance(3, snr_db=20.0)
        base = solvers.solve_linearized_ls(ys, model)
        scaled = solvers.solve_linearized_ls([(0.5 - 2j) * y for y in ys], model)
        assert sin_angle(base.h_hat, scaled.h_hat) <= 1e-10


def test_noise_variance_estimator_on_bandpass(rng):
    # the quiet out-of-band bins carry noise only, so the estimate lands
    # within a factor of a few of the truth on a band-pass instance
    K, M, D, L = 32, 8, 6, 320
    model = gen_pca_subspace(bandpass_pulse, K, D, 50 * D, rng, n_channels=M)
    u, filters = gen_channels_in_subspace(model, rng)
    x = complex_gaussian(rng, L)
    true_var = sigma_for_snr(100.0, K, L, M, x, u)
    ys = noisy_outputs(x, filters, rng, true_var)
    got = solvers.estimate_noise_variance(ys)
    assert 0.3 * true_var <= got <= 3.0 * true_var


def eigh_reference(matrix):
    """The eigen service's contract computed by LAPACK's full eigh."""
    w, vecs = np.linalg.eigh((matrix + matrix.conj().T) / 2)
    return EigenResult(eigenvalues=w[::-1], vector=canonical_phase(vecs[:, 0]))


@pytest.mark.parametrize("method", ["cc", "sccc", "ls"])
def test_estimator_matches_full_eigh_reference(monkeypatch, method):
    # the inverse-iteration eigenpair must leave every estimate where the
    # full decomposition puts it
    for seed in (77, 78, 79):
        model, _, _, ys = bandpass_instance(seed, snr_db=20.0)
        noise_var = solvers.estimate_noise_variance(ys)
        run = {
            "cc": lambda: solvers.solve_cross_conv(ys, 32),
            "sccc": lambda: solvers.solve_subspace_cross_conv(ys, model, noise_var),
            "ls": lambda: solvers.solve_linearized_ls(ys, model),
        }[method]
        fast = run()
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "eig_hermitian", eigh_reference)
            full = run()
        assert sin_angle(fast.h_hat, full.h_hat) <= 1e-9
        assert fast.degenerate == full.degenerate


def time_domain_compression(ys, bases):
    """Block congruence of the materialized MK x MK Gram with the model bases."""
    M, K, D = bases.shape
    gram = cross_corr_matrix(ys, K)
    out = np.zeros((M * D, M * D), dtype=np.complex128)
    for n in range(M):
        for m in range(M):
            out[n * D : (n + 1) * D, m * D : (m + 1) * D] = (
                bases[n].conj().T @ gram[n * K : (n + 1) * K, m * K : (m + 1) * K] @ bases[m]
            )
    return out


def test_sccc_matches_time_domain_compression(monkeypatch):
    # the frequency-domain compressed Gram must leave the estimate where the
    # block congruence of the full Gram puts it
    for seed in (77, 78, 79):
        model, _, _, ys = bandpass_instance(seed, snr_db=20.0)
        noise_var = solvers.estimate_noise_variance(ys)
        fast = solvers.solve_subspace_cross_conv(ys, model, noise_var)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "compressed_cross_corr", time_domain_compression)
            slow = solvers.solve_subspace_cross_conv(ys, model, noise_var)
        assert sin_angle(fast.h_hat, slow.h_hat) <= 1e-9
        assert fast.degenerate == slow.degenerate
