import numpy as np
import pytest

from blindchan.exceptions import DimensionError, InputError
from blindchan.models import complex_gaussian
from blindchan import sigops


def naive_circular_convolve(a, b):
    L = len(a)
    return np.array([sum(a[k] * b[(l - k) % L] for k in range(L)) for l in range(L)])


class TestCircularConvolve:
    """Circular convolution of two signals, through convolve_short."""

    def test_impulse_identity(self, rng):
        v = complex_gaussian(rng, 9)
        out = sigops.convolve_short(np.eye(9)[0], v)
        np.testing.assert_allclose(out, v, atol=1e-13)

    def test_impulse_shift(self, rng):
        v = complex_gaussian(rng, 8)
        out = sigops.convolve_short(np.eye(8)[1], v)
        np.testing.assert_allclose(out, np.roll(v, 1), atol=1e-13)

    def test_small_example_matches_naive(self):
        a = np.array([1, 2, 0, 0], dtype=complex)
        b = np.array([3, 4, 0, 0], dtype=complex)
        expected = naive_circular_convolve(a, b)
        np.testing.assert_allclose(expected, [3, 10, 8, 0], atol=1e-14)
        np.testing.assert_allclose(sigops.convolve_short(a, b), expected, atol=1e-13)

    def test_fft_matches_naive_randomized(self, rng):
        for _ in range(100):
            L = int(rng.integers(4, 129))
            a = complex_gaussian(rng, L)
            b = complex_gaussian(rng, L)
            scale = np.linalg.norm(a) * np.linalg.norm(b)
            dev = np.max(np.abs(sigops.convolve_short(a, b) - naive_circular_convolve(a, b)))
            assert dev <= 1e-12 * scale

    def test_commutativity(self, rng):
        for _ in range(20):
            L = int(rng.integers(4, 65))
            a = complex_gaussian(rng, L)
            b = complex_gaussian(rng, L)
            dev = np.max(np.abs(sigops.convolve_short(a, b) - sigops.convolve_short(b, a)))
            assert dev <= 1e-12

    def test_linear_circular_agreement(self, rng):
        # zero-padded short filters: circular result matches linear on its support
        for _ in range(20):
            K = int(rng.integers(2, 17))
            L = int(rng.integers(2 * K, 5 * K))
            f = complex_gaussian(rng, K)
            g = complex_gaussian(rng, K)
            circ = sigops.convolve_short(sigops.zero_pad(f, L), g)
            np.testing.assert_allclose(circ[: 2 * K - 1], np.convolve(f, g), atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            sigops.convolve_short(np.ones(4), np.ones(5))

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            sigops.convolve_short(np.array([1.0, np.nan]), np.ones(2))


#: (M, K, L) shapes of filter stacks, with the edges K = 1, K = L and L < 3K.
STACK_SHAPES = [
    (16, 32, 640), (4, 32, 64), (4, 512, 4096), (3, 7, 29), (4, 64, 1280), (2, 1, 1),
    (5, 13, 13), (3, 8, 100), (4, 64, 256), (16, 32, 320), (4, 32, 40),
]


class TestConvolveShort:
    def test_impulse_gives_padding(self, rng):
        h = complex_gaussian(rng, 3)
        out = sigops.convolve_short(np.eye(7)[0], h)
        np.testing.assert_allclose(out, sigops.zero_pad(h, 7), atol=1e-13)

    def test_small_example(self):
        out = sigops.convolve_short(np.array([3, 4, 0, 0], dtype=complex), np.array([1, 2]))
        np.testing.assert_allclose(out, [3, 10, 8, 0], atol=1e-13)

    def test_matches_dense_matrix(self, rng):
        K, L = 5, 16
        v = complex_gaussian(rng, L)
        h = complex_gaussian(rng, K)
        dense = sigops.conv_matrix(v, K)
        np.testing.assert_allclose(sigops.convolve_short(v, h), dense @ h, atol=1e-12)

    def test_filter_longer_than_signal(self):
        with pytest.raises(DimensionError):
            sigops.convolve_short(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("M,K,L", STACK_SHAPES)
    def test_filter_stack_equals_per_row_loop(self, M, K, L):
        rng = np.random.default_rng([M, K, L])
        x = complex_gaussian(rng, L)
        filters = complex_gaussian(rng, M, K)
        loop = [sigops.convolve_short(x, h) for h in filters]
        np.testing.assert_array_equal(sigops.convolve_short(x, filters), np.array(loop))

    @pytest.mark.parametrize("h,error", [
        (np.ones((2, 3, 2)), InputError),
        (np.ones((2, 5)), DimensionError),
        (np.array([[1.0, 2.0], [np.nan, 0.0]]), InputError),
        (np.ones(0), InputError),
        (np.ones((2, 0)), InputError),
    ], ids=["3d", "longer-than-signal", "non-finite", "empty", "empty-rows"])
    def test_rejects_bad_filter_stack(self, h, error):
        with pytest.raises(error):
            sigops.convolve_short(np.ones(4), h)
