import numpy as np
import pytest

from blindchan.exceptions import InputError
from blindchan.models import complex_gaussian
from blindchan import metrics


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


class TestSnr:
    def test_db_conversions(self):
        assert metrics.db_to_linear(20.0) == pytest.approx(100.0)
