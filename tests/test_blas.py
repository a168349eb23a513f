"""The OpenBLAS pin around trials and the one-factorization inverse iteration."""

import numpy as np
import pytest

from blindchan import blas, harness, spectral
from blindchan.models import complex_gaussian

needs_openblas = pytest.mark.skipif(blas.LIB is None, reason="numpy bundles no scipy-openblas here")


def two_solves(a):
    """eig_hermitian's vector by the reference path: two np.linalg.solve calls
    on the shifted matrix, each factoring it again."""
    a = (a + a.conj().T) / 2
    n = len(a)
    w = np.linalg.eigvalsh(a)
    k = np.arange(n)
    v = np.exp(1j * np.pi * k * k / n) / np.sqrt(n)
    a[np.diag_indices(n)] -= w[0] - 4 * n * np.finfo(float).eps * max(abs(w[0]), abs(w[-1]))
    for _ in range(2):
        v = np.linalg.solve(a, v)
        v /= np.linalg.norm(v)
    return spectral.canonical_phase(v)


@pytest.mark.parametrize("path", ["zgetrf", "fallback"])
@pytest.mark.parametrize("n", [2, 7, 32, 96, 512, 640])
def test_one_factorization_matches_two_solves(monkeypatch, n, path):
    # bit for bit at one BLAS thread, where every run computes
    if path == "fallback":
        monkeypatch.setattr(blas, "LIB", None)
    elif blas.LIB is None:
        pytest.skip("numpy bundles no scipy-openblas here")
    rng = np.random.default_rng(n)
    a = complex_gaussian(rng, n, n)
    with blas.single_thread():
        np.testing.assert_array_equal(spectral.eig_hermitian(a).vector, two_solves(a))


def test_lu_solver_refuses_a_singular_matrix_like_solve():
    a = np.diag([1.0, 0.0, 2.0]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        np.linalg.solve(a, np.ones(3))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        blas.lu_solver(a)(np.ones(3))


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

