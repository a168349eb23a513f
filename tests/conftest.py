import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blindchan import harness
from blindchan.models import add_noise, complex_gaussian
from blindchan.sigops import convolve_short


@pytest.fixture(autouse=True)
def fresh_workers():
    """Each test starts and ends without forked trial workers: workers live for
    the life of the process and keep the code they were forked with, so this
    way a monkeypatch made inside a test reaches the workers that test forks."""
    harness._close_workers()
    yield
    harness._close_workers()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_instance(rng, n_channels, filter_len, signal_len, dim=None, noise_var=0.0):
    """One synthetic multichannel observation set.

    Channels are drawn in a Gaussian subspace when dim is given, otherwise as
    unstructured Gaussian filters.  Returns (bases_or_None, u_or_None,
    stacked_truth, source, observations), the observations as an M x L array.
    """
    from blindchan.models import gen_channels_in_subspace, gen_gaussian_subspace

    bases = None
    u = None
    if dim is not None:
        bases = gen_gaussian_subspace(filter_len, dim, n_channels, rng)
        u, filters = gen_channels_in_subspace(bases, rng)
    else:
        filters = complex_gaussian(rng, n_channels, filter_len)
    x = complex_gaussian(rng, signal_len)
    ys = noisy_outputs(x, filters, rng, noise_var) if noise_var > 0 else convolve_short(x, filters)
    return bases, u, filters.reshape(-1), x, ys


def noisy_outputs(x, filters, rng, noise_var):
    """The M x L outputs of the filter stack driven by x, plus CN(0, noise_var)
    noise drawn from rng one row at a time in a single add_noise call."""
    return add_noise(convolve_short(x, filters), np.sqrt(noise_var), rng)


def run_isolated(script):
    """Run a Python script in a fresh -I interpreter that imports blindchan from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {src!r})\n{script}"],
        capture_output=True, text=True, timeout=120,
    )
