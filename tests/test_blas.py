"""The OpenBLAS pin around trials and the LAPACK kernels of the eigensolve."""

from pathlib import Path

import numpy as np
import pytest

from blindchan import blas, harness, spectral
from blindchan.metrics import sin_angle
from blindchan.models import complex_gaussian

needs_openblas = pytest.mark.skipif(blas.LIB is None, reason="numpy bundles no scipy-openblas here")


def test_the_bundled_library_loads():
    # a misspelled or missing symbol makes blas._load return None without a
    # word: every needs_openblas test would skip and trials take the fallback
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    if not list(libs.glob("libscipy_openblas64_*.so")):
        pytest.skip("numpy bundles no scipy-openblas here")
    assert blas.LIB is not None


@pytest.mark.parametrize("path", ["zhetrd", "fallback"])
@pytest.mark.parametrize("n", [2, 7, 32, 96, 512, 640])
def test_one_reduction_matches_lapack_bit_for_bit(monkeypatch, n, path):
    # at one BLAS thread, where every run computes: zhetrd + dsterf is what
    # eigvalsh runs, and the fallback is one eigh
    if path == "fallback":
        monkeypatch.setattr(blas, "LIB", None)
    elif blas.LIB is None:
        pytest.skip("numpy bundles no scipy-openblas here")
    rng = np.random.default_rng(n)
    a = complex_gaussian(rng, n, n)
    h = (a + a.conj().T) / 2
    with blas.single_thread():
        res = spectral.eig_hermitian(a)
        if path == "fallback":
            w, vecs = np.linalg.eigh(h)
            np.testing.assert_array_equal(res.vector, spectral.canonical_phase(vecs[:, 0]))
        else:
            w = np.linalg.eigvalsh(h)
    np.testing.assert_array_equal(res.eigenvalues[::-1], w)


@needs_openblas
@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e200, 1e300])
def test_extreme_scales_keep_eigvalsh_bits_and_the_vector(scale):
    # eigvalsh's zheevd first scales max |a_ij| into [2**-485, 2**485]; the
    # reduction does the same, or zstein overflows at 1e200
    a = complex_gaussian(np.random.default_rng(9), 9, 9)
    a = (a + a.conj().T) / 2
    with blas.single_thread():
        res = spectral.eig_hermitian(a * scale)
        np.testing.assert_array_equal(res.eigenvalues[::-1], np.linalg.eigvalsh(a * scale))
    assert sin_angle(res.vector, spectral.eig_hermitian(a).vector) <= 1e-12


def test_a_lapack_failure_names_the_routine(monkeypatch):
    class Failing:
        @staticmethod
        def scipy_LAPACKE_zhetrd64_(*args):
            return -4  # LAPACK's "argument 4 is illegal"

    monkeypatch.setattr(blas, "LIB", Failing())
    with pytest.raises(np.linalg.LinAlgError, match="zhetrd info -4"):
        spectral.eig_hermitian(np.eye(3))


def small_spec(**overrides):
    base = dict(filter_len=8, n_channels=3, subspace_dim=2, l_over_k=5, snr_db=20.0, trials=3)
    base.update(overrides)
    return harness.ExperimentSpec(**base)


@needs_openblas
class TestPin:
    @pytest.fixture
    def blas_threads(self):
        """OpenBLAS's thread count getter, with the count set to 2 for the test."""
        get = blas.LIB.scipy_openblas_get_num_threads64_
        set_threads = blas.LIB.scipy_openblas_set_num_threads64_
        before = get()
        set_threads(2)
        yield get
        set_threads(before)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_trials_run_on_one_thread_and_the_count_is_restored(
        self, monkeypatch, tmp_path, blas_threads, threads
    ):
        # worker processes report one line per trial through a file
        record = tmp_path / "blas_threads.txt"
        run_trial = harness.run_trial

        def recording(spec, index):
            with open(record, "a") as fh:
                fh.write(f"{blas_threads()}\n")
            return run_trial(spec, index)

        monkeypatch.setattr(harness, "run_trial", recording)
        harness.run_point(small_spec(), threads=threads)
        assert record.read_text().split() == ["1", "1", "1"]
        assert blas_threads() == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_count_restored_after_a_trial_raises(self, monkeypatch, blas_threads, threads):
        def failing(spec, index):
            raise ZeroDivisionError("trial failed")

        monkeypatch.setattr(harness, "run_trial", failing)
        with pytest.raises(ZeroDivisionError, match="trial failed"):
            harness.run_point(small_spec(), threads=threads)
        assert blas_threads() == 2

