import numpy as np
import pytest

from blindchan.exceptions import ConfigurationError, InputError
from blindchan.models import complex_gaussian, gen_source
from blindchan.sigops import circulant
from blindchan import checks, metrics


class TestSinAngle:
    def test_phase_invariance(self, rng):
        a = complex_gaussian(rng, 8)
        assert metrics.sin_angle(a, np.exp(0.7j) * a) <= 1e-12

    def test_orthogonal_vectors(self):
        assert metrics.sin_angle(np.eye(4)[0], np.eye(4)[2]) == pytest.approx(1.0)

    def test_symmetry_and_scaling(self, rng):
        a = complex_gaussian(rng, 8)
        b = complex_gaussian(rng, 8)
        base = metrics.sin_angle(a, b)
        assert abs(metrics.sin_angle(b, a) - base) <= 1e-12
        assert abs(metrics.sin_angle(2.3j * a, b) - base) <= 1e-12
        assert abs(metrics.sin_angle(a, -0.4 * b) - base) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            metrics.sin_angle(np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("a,b", [
        ([np.nan, 1], [1, 0]),
        ([1, 0], [np.nan, 1]),
        ([np.inf, 1], [1, 0]),
    ])
    def test_nonfinite_vector_rejected(self, a, b):
        # a NaN estimate must not be recorded as the worst error, 1
        with pytest.raises(InputError, match="finite"):
            metrics.sin_angle(a, b)


class TestAngleInequality:
    def test_closed_form_matches_theta_grid(self, rng):
        # oracle: dense scan over the phase circle
        thetas = np.linspace(0, 2 * np.pi, 20_000, endpoint=False)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = complex_gaussian(rng, n)
            b = complex_gaussian(rng, n)
            grid = min(np.linalg.norm(a - np.exp(1j * t) * b) for t in thetas)
            closed = metrics.min_phase_distance(a, b)
            assert closed <= grid + 1e-12
            assert grid - closed <= 1e-6  # grid resolution, not formula error

    def test_sandwich_inequality(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            a = complex_gaussian(rng, n)
            b = complex_gaussian(rng, n)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            s = metrics.sin_angle(a, b)
            d = metrics.min_phase_distance(a, b)
            assert s <= d + 1e-12
            assert d <= np.sqrt(2) * s + 1e-12


class TestFlatness:
    def test_equal_blocks(self):
        assert metrics.flatness(np.array([1, 0, 0, 1]), 2) == pytest.approx(1.0)

    def test_single_block_carries_everything(self):
        u = np.zeros(8, dtype=complex)
        u[0] = 3.0
        assert metrics.flatness(u, 4) == pytest.approx(2.0)

    def test_range(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 6))
            u = complex_gaussian(rng, m * 3)
            mu = metrics.flatness(u, m)
            assert 1.0 - 1e-12 <= mu <= np.sqrt(m) + 1e-12


class TestSnr:
    def test_formula_arithmetic(self):
        x = np.array([np.sqrt(10), 0, 0, 0, 0], dtype=complex)
        u = np.array([1.0, 1.0], dtype=complex)
        assert metrics.snr(4, 5, 2, x, u, 1.0) == pytest.approx(8.0)

    def test_doubling_noise_halves_snr(self, rng):
        x = complex_gaussian(rng, 12)
        u = complex_gaussian(rng, 4)
        assert metrics.snr(3, 12, 2, x, u, 2.0) == pytest.approx(
            metrics.snr(3, 12, 2, x, u, 1.0) / 2
        )

    def test_zero_noise_is_infinite(self, rng):
        assert metrics.snr(3, 12, 2, complex_gaussian(rng, 12), np.ones(4), 0.0) == np.inf

    def test_empirical_matches_formula(self, rng):
        x = complex_gaussian(rng, 32)
        u = complex_gaussian(rng, 9)
        formula = metrics.snr(8, 32, 3, x, u, 0.5)
        empirical = checks.empirical_snr(8, 32, 3, x, u, 0.5, 2000, rng)
        assert empirical == pytest.approx(formula, rel=0.03)

    def test_db_conversions(self):
        assert metrics.db_to_linear(20.0) == pytest.approx(100.0)


def conv3_selection(K, L):
    """The conv3 window as its [0 I; I 0] block display: rows pick the
    wrap-around entries L-K+1, ..., L-1, then 0, ..., 2K-2."""
    return np.vstack(
        [
            np.hstack([np.zeros((K - 1, L - K + 1)), np.eye(K - 1)]),
            np.hstack([np.eye(2 * K - 1), np.zeros((2 * K - 1, L - 2 * K + 1))]),
        ]
    )


def support_selection(K, L):
    """The support window as its [I 0] block display: the first K entries."""
    return np.hstack([np.eye(K), np.zeros((K, L - K))])


def assemble_windowed(x_or_pair, filter_len):
    """Brute-force oracle: dense circulants and selection matrices."""
    if isinstance(x_or_pair, tuple):
        a, b = x_or_pair
    else:
        a = b = x_or_pair
    s = conv3_selection(filter_len, len(a))
    return s @ circulant(a).conj().T @ circulant(b) @ s.T


def test_windows_match_block_displays(rng):
    # the windowed correlation matrix behind rho_x and rho_xw, entry for
    # entry, against the dense circulants cut by the literal block display
    for K, L in ((3, 12), (2, 4), (5, 13)):
        a = complex_gaussian(rng, L)
        b = complex_gaussian(rng, L)
        symbol = np.conj(np.fft.fft(a)) * np.fft.fft(b)
        np.testing.assert_allclose(
            metrics._window_corr_matrix(symbol, K, L), assemble_windowed((a, b), K),
            rtol=0, atol=1e-12 * np.linalg.norm(a) * np.linalg.norm(b),
        )


class TestAutocorrNorm:
    def test_flat_spectrum_source(self, rng):
        x = gen_source("flat_spectrum", 48, 0.7, rng)
        assert metrics.autocorr_norm(x, 6) / np.linalg.norm(x) ** 2 == pytest.approx(
            1.0, abs=1e-10
        )

    def test_impulse(self):
        assert metrics.autocorr_norm(np.eye(32)[0], 4) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_assembly(self, rng):
        x = complex_gaussian(rng, 64)
        oracle = np.linalg.svd(assemble_windowed(x, 8), compute_uv=False)[0]
        assert metrics.autocorr_norm(x, 8) == pytest.approx(oracle, rel=1e-10)

    def test_bounded_by_peak_spectrum(self, rng):
        for _ in range(100):
            L = int(rng.integers(16, 64))
            K = int(rng.integers(2, (L + 2) // 3 + 1))
            x = complex_gaussian(rng, L)
            bound = np.max(np.abs(np.fft.fft(x)) ** 2)
            assert metrics.autocorr_norm(x, K) <= bound + 1e-9

    def test_window_needs_room(self, rng):
        with pytest.raises(ConfigurationError):
            metrics.autocorr_norm(complex_gaussian(rng, 16), 8)


class TestCrosscorrNorm:
    def test_zero_noise(self, rng):
        x = complex_gaussian(rng, 32)
        assert metrics.crosscorr_norm(x, [np.zeros(32)], 4) == 0.0

    def test_self_cross_equals_auto(self, rng):
        x = complex_gaussian(rng, 32)
        assert metrics.crosscorr_norm(x, [x], 4) == pytest.approx(
            metrics.autocorr_norm(x, 4), rel=1e-10
        )

    def test_matches_dense_assembly(self, rng):
        x = complex_gaussian(rng, 40)
        w = complex_gaussian(rng, 40)
        windowed = assemble_windowed((x, w), 5)
        oracle = np.linalg.svd(windowed, compute_uv=False)[0]
        assert metrics.crosscorr_norm(x, [w], 5) == pytest.approx(oracle, rel=1e-10)

    def test_growth_scaling_in_length(self, rng):
        # median grows roughly like sqrt(L): log-log slope in [0.3, 0.7]
        K = 8
        medians = []
        lengths = (64, 256, 1024)
        for L in lengths:
            vals = []
            for _ in range(50):
                x = complex_gaussian(rng, L)
                w = complex_gaussian(rng, L)
                vals.append(metrics.crosscorr_norm(x, [w], K))
            medians.append(np.median(vals))
        slope = np.polyfit(np.log(lengths), np.log(medians), 1)[0]
        assert 0.3 <= slope <= 0.7


class TestNoiseCorrNorms:
    def test_zero_noise_zero_variance(self):
        rho_w, rho_bar = metrics.noise_corr_norms([np.zeros(16), np.zeros(16)], 4, 0.0)
        assert rho_w == 0.0
        assert rho_bar == 0.0

    def test_matches_dense_assembly(self, rng):
        M, K, L = 2, 4, 16
        noise_var = 0.8
        ws = [complex_gaussian(rng, L, var=noise_var) for _ in range(M)]
        s = support_selection(K, L)
        best = 0.0
        avg = np.zeros((K, K), dtype=complex)
        for m in range(M):
            for mp in range(M):
                mat = circulant(ws[m]).conj().T @ circulant(ws[mp])
                if m == mp:
                    mat = mat - noise_var * L * np.eye(L)
                windowed = s @ mat @ s.T
                best = max(best, np.linalg.svd(windowed, compute_uv=False)[0])
                if m == mp:
                    avg += windowed
        avg /= M
        rho_w, rho_bar = metrics.noise_corr_norms(ws, K, noise_var)
        assert rho_w == pytest.approx(best, rel=1e-10)
        assert rho_bar == pytest.approx(np.linalg.svd(avg, compute_uv=False)[0], rel=1e-10)

    def test_single_channel_average_is_max(self, rng):
        ws = [complex_gaussian(rng, 24)]
        rho_w, rho_bar = metrics.noise_corr_norms(ws, 4, 1.0)
        assert rho_bar <= rho_w + 1e-12


def test_metric_report_assembles_everything(rng):
    from conftest import make_instance

    bases, u, truth, x, ys = make_instance(rng, 3, 4, 24, dim=2, noise_var=0.1)
    ws = [np.zeros(24) for _ in range(3)]
    report = metrics.metric_report(truth, truth, x, u, ws, 4, 3, 0.1, gap_ratio=0.3)
    assert report.sin_angle <= 1e-12
    assert 1.0 - 1e-9 <= report.mu <= np.sqrt(3) + 1e-9
    assert report.rho_x > 0
    assert report.gap_ratio == pytest.approx(0.3)
