"""The OpenBLAS pin around trials and the LAPACK kernels of the eigensolve."""

from pathlib import Path

import numpy as np
import pytest

from blindchan import blas, harness, solvers, spectral, xcorr
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
@pytest.mark.parametrize("scale, n", [
    pytest.param(scale, n, id=f"{scale:g}" if n == 9 else f"{scale:g}-n{n}")
    for n in (9, 64, 512) for scale in (1e-300, 1e-160, 1e150, 1e200, 1e300)
])
def test_extreme_scales_keep_eigvalsh_bits_and_the_vector(scale, n):
    # eigvalsh's zheevd first scales max |a_ij| into [2**-485, 2**485]; the
    # reduction does the same, or zstein overflows at 1e200.  At n >= 64 zstein
    # also overflows at 2**485 itself unless it is handed T scaled back to
    # about unit norm
    a = complex_gaussian(np.random.default_rng(9), n, n)
    a = (a + a.conj().T) / 2
    with blas.single_thread():
        res = spectral.eig_hermitian(a * scale)
        np.testing.assert_array_equal(res.eigenvalues[::-1], np.linalg.eigvalsh(a * scale))
    assert np.all(np.isfinite(res.vector))
    assert sin_angle(res.vector, spectral.eig_hermitian(a).vector) <= 1e-12


@needs_openblas
def test_cc_recovers_outputs_of_extreme_scale():
    # outputs at 1e75 give a Gram near 1e150 * L, where the eigensolve scales
    ys = complex_gaussian(np.random.default_rng(4), 4, 64)
    with blas.single_thread():
        want = solvers.solve_cross_conv(ys, 32)
        got = solvers.solve_cross_conv(ys * 1e75, 32)
    assert np.all(np.isfinite(got.h_hat))
    assert sin_angle(got.h_hat, want.h_hat) <= 1e-9


def unit_part_hermitian(n):
    """A Hermitian n x n matrix whose largest |Re a_ij| and |Im a_ij| is exactly
    1, at entry (1, 0) = 1 + 1j, where |a_ij| = sqrt(2) is the largest."""
    a = complex_gaussian(np.random.default_rng(n), n, n) / 16
    a = (a + a.conj().T) / 2
    a[1, 0], a[0, 1] = 1 + 1j, 1 - 1j
    assert np.abs(a.view(np.float64)).max() == 1 and np.abs(a).max() == np.sqrt(2)
    return a


@needs_openblas
@pytest.mark.parametrize("n", [9, 64])
@pytest.mark.parametrize("largest_part", [
    pytest.param(2.0**-486, id="2^-486"),
    pytest.param(np.nextafter(2.0**-485, 0), id="below-2^-485"),
    pytest.param(2.0**-485, id="at-2^-485"),
    pytest.param(2.0**484, id="at-2^484"),
    pytest.param(np.nextafter(2.0**484, np.inf), id="above-2^484"),
    pytest.param(2.0**485, id="2^485"),
])
def test_the_range_check_keeps_eigvalsh_bits_and_the_vector(n, largest_part):
    # with max(|Re a_ij|, |Im a_ij|) in [2**-485, 2**484] the eigensolve skips
    # zlanhe, as zheevd's max |a_ij| is inside its scaling bounds; just outside,
    # zlanhe decides, and at 2**-486 and 2**485 (max |a_ij| = sqrt(2) times
    # either) zheevd scales.  Scaling by a real factor keeps `a` exactly Hermitian
    a = unit_part_hermitian(n)
    with blas.single_thread():
        res = spectral.eig_hermitian(a * largest_part)
        np.testing.assert_array_equal(
            res.eigenvalues[::-1], np.linalg.eigvalsh(a * largest_part))
        assert np.all(np.isfinite(res.vector))
        assert sin_angle(res.vector, spectral.eig_hermitian(a).vector) <= 1e-12


class LibSpy:
    """blas.LIB with a record of the names of the routines called through it."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)

        def call(*args):
            self.calls.append(name)
            return fn(*args)

        return call


@needs_openblas
@pytest.mark.parametrize("scale, zlanhe_calls", [(1.0, 0), (1e-160, 1)])
def test_zlanhe_runs_only_outside_the_range_check(monkeypatch, scale, zlanhe_calls):
    gram = xcorr.cross_corr_matrix(complex_gaussian(np.random.default_rng(6), 4, 64), 8)
    spy = LibSpy(blas.LIB)
    monkeypatch.setattr(blas, "LIB", spy)
    spectral.eig_hermitian(gram * scale, overwrite_a=True)
    assert spy.calls.count("scipy_LAPACKE_zlanhe64_") == zlanhe_calls


def test_a_lapack_failure_names_the_routine(monkeypatch):
    class Failing:
        @staticmethod
        def scipy_LAPACKE_zhetrd_work64_(*args):
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

