import warnings

import numpy as np
import pytest

from blindchan.exceptions import ConfigurationError, DimensionError, InputError
from blindchan.metrics import sin_angle
from blindchan.models import (
    complex_gaussian,
    gen_channels_in_subspace,
    gen_gaussian_subspace,
    gen_pca_subspace,
    gen_source,
    sigma_for_snr,
)
from blindchan.sigops import convolve_short
from blindchan.spectral import EigenResult, canonical_phase
from blindchan.xcorr import cross_corr_matrix
from blindchan import solvers

from conftest import make_instance, noisy_outputs


def bandpass_instance(seed, filter_len=32, n_channels=8, dim=6, l_over_k=10, snr_db=40.0):
    """One observation set drawn from the shared band-pass PCA model, with its
    noise variance."""
    rng = np.random.default_rng(seed)
    L = l_over_k * filter_len
    bases = gen_pca_subspace(filter_len, dim, n_channels, rng)
    u, filters = gen_channels_in_subspace(bases, rng)
    x = complex_gaussian(rng, L)
    noise_var = sigma_for_snr(10 ** (snr_db / 10), filter_len, L, n_channels, x, u)
    ys = noisy_outputs(x, filters, rng, noise_var)
    return bases, filters.reshape(-1), x, ys, noise_var


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
        bases, _, truth, _, ys = make_instance(rng, 4, 16, 48, dim=4)
        est = solvers.solve_subspace_cross_conv(ys, bases, 0.0)
        assert sin_angle(est.h_hat, truth) <= 1e-8

    def test_debias_shift_is_neutral_for_orthonormal_model(self, rng):
        bases, u, truth, x, _ = make_instance(rng, 3, 8, 40, dim=3)
        bases = np.stack([np.linalg.qr(phi)[0] for phi in bases])
        _, filters = gen_channels_in_subspace(bases, rng)
        noise_var = 0.02
        ys = noisy_outputs(x, filters, rng, noise_var)
        with_shift = solvers.solve_subspace_cross_conv(ys, bases, noise_var)
        without = solvers.solve_subspace_cross_conv(ys, bases, 0.0)
        assert sin_angle(with_shift.h_hat, without.h_hat) <= 1e-10

    def test_reduces_to_cross_conv_for_identity_model(self, rng):
        K, M = 6, 3
        _, _, _, _, ys = make_instance(rng, M, K, 24, noise_var=0.05)
        identity = np.repeat(np.eye(K, dtype=complex)[None], M, axis=0)
        sub = solvers.solve_subspace_cross_conv(ys, identity, 0.0)
        full = solvers.solve_cross_conv(ys, K)
        assert sin_angle(sub.h_hat, full.h_hat) <= 1e-10

    def test_beats_unconstrained_on_noisy_instances(self, rng):
        K, M, D, L = 32, 4, 8, 640
        wins = 0
        trials = 20
        for t in range(trials):
            inner = np.random.default_rng(900 + t)
            bases = gen_gaussian_subspace(K, D, M, inner)
            u, filters = gen_channels_in_subspace(bases, inner)
            x = complex_gaussian(inner, L)
            noise_var = sigma_for_snr(100.0, K, L, M, x, u)
            ys = noisy_outputs(x, filters, inner, noise_var)
            cc = solvers.solve_cross_conv(ys, K)
            sub = solvers.solve_subspace_cross_conv(ys, bases, noise_var)
            wins += sin_angle(sub.h_hat, filters) < sin_angle(cc.h_hat, filters)
        assert wins >= int(0.8 * trials)

    def test_channel_count_mismatch(self, rng):
        bases, _, _, _, ys = make_instance(rng, 3, 8, 32, dim=2)
        from blindchan.exceptions import DimensionError

        with pytest.raises(DimensionError):
            solvers.solve_subspace_cross_conv(ys[:2], bases, 0.0)


class TestOracleLs:
    def test_noiseless_exact(self, rng):
        bases, u, truth, x, ys = make_instance(rng, 3, 8, 40, dim=3)
        est = solvers.solve_oracle_ls(ys, x, bases)
        assert sin_angle(est.h_hat, truth) <= 1e-10

    def test_matches_pseudoinverse_oracle(self, rng):
        from blindchan.sigops import circulant, zero_pad

        bases, _, _, x, ys = make_instance(rng, 3, 8, 40, dim=3, noise_var=0.1)
        est = solvers.solve_oracle_ls(ys, x, bases)
        cx = circulant(x)
        for m in range(3):
            padded = np.vstack([bases[m], np.zeros((40 - 8, 3))])
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
                bases = gen_gaussian_subspace(K, D, M, inner)
                u, filters = gen_channels_in_subspace(bases, inner)
                x = complex_gaussian(inner, L)
                noise_var = sigma_for_snr(eta, K, L, M, x, u)
                ys = noisy_outputs(x, filters, inner, noise_var)
                est = solvers.solve_oracle_ls(ys, x, bases)
                errs.append(sin_angle(est.h_hat, filters))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    @pytest.mark.parametrize("M,K,D,L", [(3, 7, 3, 29), (4, 32, 8, 64)])
    def test_equals_per_channel_padded_reference(self, M, K, D, L):
        # reference: each basis block zero-padded and transformed on its own
        rng = np.random.default_rng(M * L)
        bases = gen_gaussian_subspace(K, D, M, rng)
        x = complex_gaussian(rng, L)
        ys = [complex_gaussian(rng, L) for _ in range(M)]
        u = []
        for m in range(M):
            padded = np.vstack([bases[m], np.zeros((L - K, D))])
            design = np.fft.ifft(np.fft.fft(x)[:, None] * np.fft.fft(padded, axis=0), axis=0)
            u.append(np.linalg.lstsq(design, ys[m], rcond=None)[0])
        est = solvers.solve_oracle_ls(ys, x, bases)
        np.testing.assert_array_equal(est.u_hat, np.concatenate(u))

    def test_rank_deficient_design_rejected(self, rng):
        bases, _, _, x, ys = make_instance(rng, 3, 8, 40, dim=3)
        broken = bases.copy()
        broken[1][:, 2] = 0.0  # kill one basis column
        with pytest.raises(ConfigurationError):
            solvers.solve_oracle_ls(ys, x, broken)


@pytest.mark.parametrize("solve", [
    lambda ys, x, bases: solvers.solve_oracle_ls(ys, x, bases),
    lambda ys, x, bases: solvers.solve_linearized_ls(ys, bases),
], ids=["oracle", "ls"])
def test_baselines_reject_signal_shorter_than_filter(rng, solve):
    bases = gen_gaussian_subspace(8, 2, 3, rng)
    ys = [complex_gaussian(rng, 6) for _ in range(3)]
    with pytest.raises(DimensionError, match="filter length 8 exceeds signal length 6"):
        solve(ys, ys[0], bases)


#: Each estimator as a function of (observations, source, (M, K, D) bases).
ESTIMATORS = {
    "cc": lambda ys, x, bases: solvers.solve_cross_conv(ys, bases.shape[1]),
    "sccc": lambda ys, x, bases: solvers.solve_subspace_cross_conv(ys, bases, 0.0),
    "oracle": lambda ys, x, bases: solvers.solve_oracle_ls(ys, x, bases),
    "ls": lambda ys, x, bases: solvers.solve_linearized_ls(ys, bases),
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
    bases, _, _, x, ys = make_instance(rng, 3, 8, 40, dim=3)
    inject, error, message, _ = FAULTS[fault]
    bad_ys, bad_x = inject(list(ys), x)
    with pytest.raises(error, match=message):
        ESTIMATORS[method](bad_ys, bad_x, bases)


@pytest.mark.parametrize("method", ["cc", "sccc"])
def test_short_window_solves_without_warning(rng, method):
    # L = 2K lies below the recommended L >= 3K: estimates degrade there, but
    # the solvers report only through their return values
    bases, _, _, x, ys = make_instance(rng, 3, 8, 16, dim=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ESTIMATORS[method](ys, x, bases)


class TestLinearizedLs:
    def test_noiseless_flat_source_exact(self, rng):
        K, M, D, L = 8, 3, 3, 64
        bases = gen_gaussian_subspace(K, D, M, rng)
        u, filters = gen_channels_in_subspace(bases, rng)
        x = gen_source("flat_spectrum", L, rng)
        ys = convolve_short(x, filters)
        est = solvers.solve_linearized_ls(ys, bases)
        assert sin_angle(est.h_hat, filters) <= 1e-6

    def test_exact_solution_annihilates_system(self, rng):
        # oracle: the true (inverse spectrum, coefficients) pair satisfies
        # every constraint row of the linearization exactly
        K, M, D, L = 8, 3, 3, 64
        bases = gen_gaussian_subspace(K, D, M, rng)
        u, filters = gen_channels_in_subspace(bases, rng)
        x = gen_source("flat_spectrum", L, rng)
        ys = convolve_short(x, filters)
        s_true = 1.0 / np.fft.fft(x)
        for m in range(M):
            padded = np.vstack([bases[m], np.zeros((L - K, D))])
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
            bases, truth, x, ys, _ = bandpass_instance(seed, snr_db=80.0)
            est = solvers.solve_linearized_ls(ys, bases)
            errs.append(sin_angle(est.h_hat, truth))
            conds.append(est.condition)
        assert min(conds) > 1e3
        assert np.percentile(errs, 95) > 0.5

    def test_spectral_zero_flagged_without_warning(self, rng):
        # the channel 1 + z^-1 vanishes at the Nyquist bin, so one output
        # spectrum has an exact zero: ls reports it in ill_posed, not by warning
        K, M, L = 4, 2, 16
        identity = np.repeat(np.eye(K, dtype=complex)[None], M, axis=0)
        filters = np.stack([np.array([1, 1, 0, 0], dtype=complex), complex_gaussian(rng, K)])
        ys = convolve_short(complex_gaussian(rng, L), filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = solvers.solve_linearized_ls(ys, identity)
        assert est.ill_posed

    def test_scale_invariance(self, rng):
        bases, truth, x, ys, _ = bandpass_instance(3, snr_db=20.0)
        base = solvers.solve_linearized_ls(ys, bases)
        scaled = solvers.solve_linearized_ls([(0.5 - 2j) * y for y in ys], bases)
        assert sin_angle(base.h_hat, scaled.h_hat) <= 1e-10


def eigh_reference(matrix):
    """The eigen service's contract computed by LAPACK's full eigh."""
    w, vecs = np.linalg.eigh((matrix + matrix.conj().T) / 2)
    return EigenResult(eigenvalues=w[::-1], vector=canonical_phase(vecs[:, 0]))


@pytest.mark.parametrize("method", ["cc", "sccc", "ls"])
def test_estimator_matches_full_eigh_reference(monkeypatch, method):
    # the inverse-iteration eigenpair must leave every estimate where the
    # full decomposition puts it; ls compares its structured solve with the
    # dense path its guards fall back to
    for seed in (77, 78, 79):
        bases, _, _, ys, noise_var = bandpass_instance(seed, snr_db=20.0)
        run = {
            "cc": lambda: solvers.solve_cross_conv(ys, 32),
            "sccc": lambda: solvers.solve_subspace_cross_conv(ys, bases, noise_var),
            "ls": lambda: solvers.solve_linearized_ls(ys, bases),
        }[method]
        fast = run()
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "eig_hermitian", eigh_reference)
            patch.setattr(solvers, "_LS_MAX_STEPS", 0)
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


def gaussian_instance(seed, filter_len, n_channels, dim, l_over_k, snr_db):
    """One observation set drawn from a Gaussian-basis model, with its noise variance."""
    rng = np.random.default_rng(seed)
    L = l_over_k * filter_len
    bases = gen_gaussian_subspace(filter_len, dim, n_channels, rng)
    u, filters = gen_channels_in_subspace(bases, rng)
    x = complex_gaussian(rng, L)
    noise_var = sigma_for_snr(10 ** (snr_db / 10), filter_len, L, n_channels, x, u)
    return bases, noisy_outputs(x, filters, rng, noise_var), noise_var


def test_sccc_matches_time_domain_compression(monkeypatch):
    # the frequency-domain compressed Gram must leave the estimate where the
    # block congruence of the full Gram puts it, also where the lag window
    # wraps a long signal (K=64, L=8K)
    instances = [bandpass_instance(seed, snr_db=20.0) for seed in (77, 78, 79)]
    instances = [(bases, ys, noise_var) for bases, _, _, ys, noise_var in instances]
    instances.append(gaussian_instance(80, 64, 4, 8, 8, 20.0))
    for bases, ys, noise_var in instances:
        fast = solvers.solve_subspace_cross_conv(ys, bases, noise_var)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "compressed_cross_corr", time_domain_compression)
            slow = solvers.solve_subspace_cross_conv(ys, bases, noise_var)
        assert sin_angle(fast.h_hat, slow.h_hat) <= 1e-9
        assert fast.degenerate == slow.degenerate


def ls_system(seed, basis, filter_len, n_channels, dim, l_over_k, snr_db):
    """Observations, bases and the ls Gram's (energy, W) factors of one instance."""
    if basis == "pca":
        bases, _, _, ys, _ = bandpass_instance(seed, filter_len, n_channels, dim, l_over_k, snr_db)
    else:
        bases, ys, _ = gaussian_instance(seed, filter_len, n_channels, dim, l_over_k, snr_db)
    return ys, bases, solvers._ls_factors(np.fft.fft(ys, axis=1), bases)


class TestStructuredLs:
    """The secular-equation solve of the ls Gram pinned to dense eigh."""

    #: |lambda - lambda_eigh| <= C eps lambda_max, sin-angle <= C eps lambda_max / gap
    C = 64

    @pytest.mark.parametrize("cell", [
        ("pca", 32, 16, 6, 20, 20), ("pca", 32, 8, 6, 20, 60), ("pca", 32, 8, 6, 20, 80),
        ("pca", 32, 16, 6, 2, 20), ("pca", 32, 8, 6, 2, 80),
        ("gaussian", 32, 4, 8, 2, 20), ("gaussian", 32, 4, 8, 4, 80),
        ("gaussian", 32, 4, 8, 10, 20), ("gaussian", 64, 4, 8, 2, 80),
    ], ids=lambda cell: "-".join(map(str, cell)))
    def test_matches_dense_eigh(self, cell):
        eps = np.finfo(float).eps
        for seed in (1, 2):
            ys, bases, (energy, w) = ls_system(seed, *cell)
            vals, vecs = np.linalg.eigh(solvers._ls_gram(energy, w))
            lam_max = np.abs(vals).max()
            gap = vals[1] - vals[0]
            lam, s = solvers._ls_smallest_pair(energy, w)
            assert abs(lam - vals[0]) <= self.C * eps * lam_max
            assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
            assert sin_angle(s, vecs[:, 0]) <= self.C * eps * lam_max / gap
            est = solvers.solve_linearized_ls(ys, bases)
            assert est.lambda_min == lam and not est.degenerate
            assert np.isnan(est.gap_ratio)

    def test_exhausted_budget_takes_the_dense_path(self, monkeypatch):
        ys, bases, (energy, w) = ls_system(3, "pca", 32, 8, 6, 20, 20)
        structured = solvers.solve_linearized_ls(ys, bases)
        seen = []
        eig_hermitian = solvers.eig_hermitian

        def spy(a):
            seen.append(a.shape)
            return eig_hermitian(a)

        monkeypatch.setattr(solvers, "eig_hermitian", spy)
        assert solvers._ls_smallest_pair(energy, w) is not None
        monkeypatch.setattr(solvers, "_LS_MAX_STEPS", 0)
        assert solvers._ls_smallest_pair(energy, w) is None
        dense = solvers.solve_linearized_ls(ys, bases)
        assert seen == [(640, 640)]
        assert sin_angle(dense.h_hat, structured.h_hat) <= 1e-9
        assert dense.lambda_min == pytest.approx(structured.lambda_min, rel=1e-12)
        assert dense.degenerate == structured.degenerate

    def test_exact_tie_is_flagged_degenerate(self, monkeypatch, rng):
        # bins 3 and 9 have equal energy 1 and zero W rows, so they decouple and
        # lambda_1 = lambda_2 = 1; every other eigenvalue is at least 3
        L, MD = 32, 6
        w = complex_gaussian(rng, L, MD)
        w[[3, 9]] = 0
        energy = 3 + np.linalg.norm(w, 2) ** 2 + rng.random(L)
        energy[[3, 9]] = 1.0
        assert solvers._ls_smallest_pair(energy, w) is None
        ys, bases, _ = ls_system(4, "gaussian", 8, 2, 3, 4, 20)
        monkeypatch.setattr(solvers, "_ls_factors", lambda yhat, bases: (energy, w))
        est = solvers.solve_linearized_ls(ys, bases)
        assert est.degenerate
        assert est.lambda_min == pytest.approx(1.0, abs=1e-12)
