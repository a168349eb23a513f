import numpy as np
import pytest

from blindchan.models import complex_gaussian
from blindchan.sigops import convolve_short


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_instance(rng, n_channels, filter_len, signal_len, dim=None, noise_var=0.0):
    """One synthetic multichannel observation set.

    Channels are drawn in a Gaussian subspace when dim is given, otherwise as
    unstructured Gaussian filters.  Returns (model_or_None, u_or_None,
    stacked_truth, source, observations).
    """
    from blindchan.models import gen_channels_in_subspace, gen_gaussian_subspace

    model = None
    u = None
    if dim is not None:
        model = gen_gaussian_subspace(filter_len, dim, n_channels, rng)
        u, filters = gen_channels_in_subspace(model, rng)
    else:
        filters = complex_gaussian(rng, n_channels, filter_len)
    x = complex_gaussian(rng, signal_len)
    ys = []
    for m in range(n_channels):
        y = convolve_short(x, filters[m])
        if noise_var > 0:
            y = y + complex_gaussian(rng, signal_len, var=noise_var)
        ys.append(y)
    return model, u, filters.reshape(-1), x, ys
