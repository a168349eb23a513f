"""Named invariant suites behind the `check` command.

Each check is a pure function returning (ok, detail).  The fast suite covers
oracle equivalences and algebraic identities and finishes well under a
minute; the full suite adds the Monte Carlo expectation identities and the
perturbation-bound sweep.  The Monte Carlo helpers are shared with the test
suite so both run the same code at the same tolerances.
"""

import hashlib

import numpy as np

from . import harness, metrics, sigops, solvers, spectral, xcorr
from .models import complex_gaussian, sigma_for_snr

#: Master seed of every check's random stream.
SEED = 20240817


# ---------------------------------------------------------------------------
# Monte Carlo expectation helpers (shared with the acceptance tests)

def mean_filter_autocorr_error(filter_len, signal_len, dim, n_draws, rng):
    """Relative Frobenius deviation of the averaged circulant Gram of random
    in-model filters from K ||u||^2 I."""
    u = complex_gaussian(rng, dim)
    acc = np.zeros((signal_len, signal_len), dtype=np.complex128)
    for _ in range(n_draws):
        phi = complex_gaussian(rng, filter_len, dim)
        h = sigops.zero_pad(phi @ u, signal_len)
        ch = sigops.circulant(h)
        acc += ch.conj().T @ ch
    acc /= n_draws
    target = filter_len * np.linalg.norm(u) ** 2 * np.eye(signal_len)
    return float(np.linalg.norm(acc - target) / np.linalg.norm(target))


def mean_filter_basis_corr_error(filter_len, signal_len, dim, n_draws, rng):
    """Relative Frobenius deviation of the averaged filter/basis correlation
    from K e_1 u^H."""
    u = complex_gaussian(rng, dim)
    acc = np.zeros((signal_len, dim), dtype=np.complex128)
    for _ in range(n_draws):
        phi = complex_gaussian(rng, filter_len, dim)
        h = sigops.zero_pad(phi @ u, signal_len)
        padded = np.concatenate([phi, np.zeros((signal_len - filter_len, dim))])
        acc += sigops.circulant(h).conj().T @ padded
    acc /= n_draws
    target = np.zeros((signal_len, dim), dtype=np.complex128)
    target[0] = filter_len * np.conj(u)
    return float(np.linalg.norm(acc - target) / np.linalg.norm(target))


def mean_compressed_energy_errors(filter_len, signal_len, dim, n_draws, rng):
    """Relative Frobenius deviations of the averaged source-weighted block
    Gram, for independent blocks and for the same block twice.

    Targets: K^2 ||x||^2 ||u||^2 I_D (independent) and
    K^2 ||x||^2 (||u||^2 I_D + u u^H) (same block).
    """
    u = complex_gaussian(rng, dim)
    x = complex_gaussian(rng, signal_len)
    cx = sigops.circulant(x)
    cx_gram = cx.conj().T @ cx
    acc_indep = np.zeros((dim, dim), dtype=np.complex128)
    acc_same = np.zeros((dim, dim), dtype=np.complex128)
    pad_rows = np.zeros((signal_len - filter_len, dim))
    for _ in range(n_draws):
        phi = complex_gaussian(rng, filter_len, dim)
        phi_other = complex_gaussian(rng, filter_len, dim)
        h = sigops.zero_pad(phi @ u, signal_len)
        ch = sigops.circulant(h)
        core = ch.conj().T @ cx_gram @ ch
        padded = np.concatenate([phi, pad_rows])
        padded_other = np.concatenate([phi_other, pad_rows])
        acc_indep += padded_other.conj().T @ core @ padded_other
        acc_same += padded.conj().T @ core @ padded
    acc_indep /= n_draws
    acc_same /= n_draws
    scale = filter_len**2 * np.linalg.norm(x) ** 2
    target_indep = scale * np.linalg.norm(u) ** 2 * np.eye(dim)
    target_same = scale * (np.linalg.norm(u) ** 2 * np.eye(dim) + np.outer(u, u.conj()))
    err_indep = float(np.linalg.norm(acc_indep - target_indep) / np.linalg.norm(target_indep))
    err_same = float(np.linalg.norm(acc_same - target_same) / np.linalg.norm(target_same))
    return err_indep, err_same


def mean_noise_gram_error(n_channels, filter_len, signal_len, noise_var, n_draws, rng):
    """Relative Frobenius deviation of the averaged noise-only constraint Gram
    from noise_var * (M-1) * L * I."""
    size = n_channels * filter_len
    acc = np.zeros((size, size), dtype=np.complex128)
    for _ in range(n_draws):
        ws = [complex_gaussian(rng, signal_len, var=noise_var) for _ in range(n_channels)]
        acc += xcorr.cross_corr_matrix(ws, filter_len)
    acc /= n_draws
    target = xcorr.noise_gram_mean(n_channels, signal_len, noise_var) * np.eye(size)
    return float(np.linalg.norm(acc - target) / np.linalg.norm(target))


def empirical_snr(filter_len, signal_len, n_channels, x, u, noise_var, n_draws, rng):
    """Monte Carlo estimate of the SNR's defining energy ratio over fresh
    basis and noise draws: models.sigma_for_snr(eta, ...) is the noise_var
    at which it tends to eta."""
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    dim = u.size // n_channels
    u_blocks = u.reshape(n_channels, dim)
    num = 0.0
    den = 0.0
    for _ in range(n_draws):
        for m in range(n_channels):
            phi = complex_gaussian(rng, filter_len, dim)
            num += np.linalg.norm(sigops.convolve_short(x, phi @ u_blocks[m])) ** 2
            den += np.linalg.norm(complex_gaussian(rng, signal_len, var=noise_var)) ** 2
    return float(num / den)


def davis_kahan_trials(n_trials, dim, rng):
    """Random premise-satisfying (A, E) pairs; returns how many satisfy the bound."""
    holds = 0
    for _ in range(n_trials):
        q, _ = np.linalg.qr(complex_gaussian(rng, dim, dim))
        gap = rng.uniform(0.5, 2.0)
        floor = rng.uniform(0.1, 1.0)
        lam = np.sort(rng.uniform(gap, 3 * gap, dim - 1))[::-1] + floor + gap
        lam = np.concatenate([lam, [floor]])
        a = (q * lam) @ q.conj().T
        e = complex_gaussian(rng, dim, dim)
        e = (e + e.conj().T) / 2
        e *= rng.uniform(0.1, 1.0) * min(gap / 5, floor) / np.linalg.norm(e, 2)
        report = spectral.davis_kahan_check(a, e)
        if report.premise_holds and report.lhs <= report.rhs + 1e-12:
            holds += 1
    return holds


# ---------------------------------------------------------------------------
# Individual named checks, each returning (ok, detail)

def check_conv_fft_vs_naive(rng):
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(4, 129))
        a = complex_gaussian(rng, L)
        b = complex_gaussian(rng, L)
        naive = np.array(
            [sum(a[k] * b[(l - k) % L] for k in range(L)) for l in range(L)]
        )
        dev = np.max(np.abs(sigops.convolve_short(a, b) - naive))
        worst = max(worst, dev / (np.linalg.norm(a) * np.linalg.norm(b)))
    return worst <= 1e-12, f"max scaled deviation {worst:.2e}"


def check_conv_commutativity(rng):
    worst = 0.0
    for _ in range(50):
        L = int(rng.integers(4, 129))
        a = complex_gaussian(rng, L)
        b = complex_gaussian(rng, L)
        worst = max(
            worst,
            np.max(np.abs(sigops.convolve_short(a, b) - sigops.convolve_short(b, a))),
        )
    return worst <= 1e-12, f"max deviation {worst:.2e}"


def check_conv_linear_circular(rng):
    worst = 0.0
    for _ in range(50):
        K = int(rng.integers(2, 17))
        L = int(rng.integers(2 * K, 4 * K + 1))
        f = complex_gaussian(rng, K)
        g = complex_gaussian(rng, K)
        circ = sigops.convolve_short(sigops.zero_pad(f, L), g)
        lin = np.convolve(f, g)
        worst = max(worst, np.max(np.abs(circ[: 2 * K - 1] - lin)))
    return worst <= 1e-10, f"max deviation {worst:.2e}"


def check_xcorr_fast_vs_explicit(rng):
    worst = 0.0
    for _ in range(20):
        ys = [complex_gaussian(rng, 32) for _ in range(3)]
        explicit = xcorr.cross_relation_matrix(ys, 8)
        oracle = explicit.conj().T @ explicit
        fast = xcorr.cross_corr_matrix(ys, 8)
        worst = max(worst, np.linalg.norm(fast - oracle) / np.linalg.norm(oracle))
    return worst <= 1e-10, f"max relative Frobenius error {worst:.2e}"


def block_diag(bases):
    """Dense MK x MD block-diagonal matrix of the (M, K, D) bases (small-scale oracles)."""
    M, K, D = bases.shape
    out = np.zeros((M * K, M * D), dtype=np.complex128)
    for m in range(M):
        out[m * K : (m + 1) * K, m * D : (m + 1) * D] = bases[m]
    return out


def explicit_compressed_gram(ys, bases):
    """block_diag(bases)^H A^H A block_diag(bases) with A the explicit
    cross-relation matrix: the oracle of xcorr.compressed_cross_corr."""
    reduced = xcorr.cross_relation_matrix(ys, bases.shape[1]) @ block_diag(bases)
    return reduced.conj().T @ reduced


def check_compress_vs_explicit(rng):
    worst = 0.0
    for _ in range(20):
        M = int(rng.integers(2, 5))
        K = int(rng.integers(1, 9))
        D = int(rng.integers(1, K + 1))
        L = int(rng.integers(K, 10 * K + 1))
        ys = [complex_gaussian(rng, L) for _ in range(M)]
        bases = complex_gaussian(rng, M, K, D)
        oracle = explicit_compressed_gram(ys, bases)
        fast = xcorr.compressed_cross_corr(ys, bases)
        worst = max(worst, np.linalg.norm(fast - oracle) / np.linalg.norm(oracle))
    return worst <= 1e-12, f"max relative Frobenius error {worst:.2e}"


def check_xcorr_hermitian_psd(rng):
    """The Gram is exactly Hermitian (eig_hermitian reads only its lower
    triangle when cc hands it over) and positive semidefinite."""
    asymmetric = 0
    worst_neg = 0.0
    for _ in range(50):
        M = int(rng.integers(2, 5))
        K = int(rng.integers(2, 9))
        L = int(rng.integers(3 * K, 6 * K))
        ys = [complex_gaussian(rng, L) for _ in range(M)]
        a = xcorr.cross_corr_matrix(ys, K)
        asymmetric += int(np.count_nonzero(a != a.conj().T))
        w = np.linalg.eigvalsh(a)
        worst_neg = max(worst_neg, -w[0] / w[-1])
    ok = asymmetric == 0 and worst_neg <= 1e-10
    return ok, f"entries off Hermitian {asymmetric}, min eig ratio {-worst_neg:.2e}"


def check_debiased_gram_hermitian(rng):
    """The matrix sccc eigendecomposes is exactly Hermitian and Fortran-ordered
    complex128, noiseless and debiased alike (eig_hermitian reads only its
    lower triangle when sccc hands it over)."""
    asymmetric = 0
    not_fortran = 0
    for i in range(50):
        M = int(rng.integers(2, 5))
        K = int(rng.integers(2, 9))
        D = int(rng.integers(1, K + 1))
        L = int(rng.integers(K, 6 * K))
        ys = complex_gaussian(rng, M, L)
        bases = complex_gaussian(rng, M, K, D)
        a = solvers.debiased_compressed_gram(ys, bases, 0.0 if i % 2 else float(rng.random()))
        asymmetric += int(np.count_nonzero(a != a.conj().T))
        not_fortran += not (a.flags.f_contiguous and a.dtype == np.complex128)
    ok = asymmetric == 0 and not_fortran == 0
    return ok, f"entries off Hermitian {asymmetric}, not Fortran-ordered complex128 {not_fortran}"


def check_noiseless_null_vector(rng):
    """Noiseless Gram annihilates the true channels and has a 1-D null space."""
    worst_null = 0.0
    worst_second = np.inf
    for _ in range(10):
        M, K = 3, 8
        L = 4 * K
        h = complex_gaussian(rng, M, K)
        x = complex_gaussian(rng, L)
        a = xcorr.cross_corr_matrix(sigops.convolve_short(x, h), K)
        stacked = h.reshape(-1)
        quad = float(np.real(np.vdot(stacked, a @ stacked))) / np.linalg.norm(stacked) ** 2
        w = np.linalg.eigvalsh((a + a.conj().T) / 2)
        worst_null = max(worst_null, abs(quad) / w[-1])
        worst_second = min(worst_second, w[1] / w[-1])
    ok = worst_null <= 1e-10 and worst_second > 1e-8
    return ok, f"null residual {worst_null:.2e}, smallest second ratio {worst_second:.2e}"


def _hermitian_with_spectrum(rng, lam):
    q, _ = np.linalg.qr(complex_gaussian(rng, len(lam), len(lam)))
    return (q * lam) @ q.conj().T


def _eig_check_matrices(rng):
    """(matrix, whether its smallest eigenvector is unique): 20 dense random
    Hermitian matrices, a block-diagonal one whose minimum lies in the later
    block (its tridiagonal form splits there) and one whose minimum repeats."""
    for _ in range(20):
        n = int(rng.integers(3, 33))
        a = complex_gaussian(rng, n, n)
        yield (a + a.conj().T) / 2, True
    block = np.zeros((12, 12), dtype=np.complex128)
    block[:5, :5] = _hermitian_with_spectrum(rng, rng.uniform(1.0, 2.0, 5))
    block[5:, 5:] = _hermitian_with_spectrum(rng, np.r_[0.0, rng.uniform(0.3, 2.0, 6)])
    yield block, True
    yield _hermitian_with_spectrum(rng, np.r_[0.0, 0.0, rng.uniform(0.3, 2.0, 6)]), False


def check_eig_reconstruction(rng):
    """The service's smallest eigenpair and spectrum against LAPACK's full eigh;
    where the smallest eigenvector is not unique, the spectrum and residual only."""
    worst_res = worst_trace = worst_eigh = 0.0
    for a, unique in _eig_check_matrices(rng):
        n = len(a)
        res = spectral.eig_hermitian(a)
        na = np.linalg.norm(a)
        v = res.vector
        worst_res = max(worst_res, np.linalg.norm(a @ v - res.lambda_min * v) / na)
        worst_trace = max(
            worst_trace, abs(res.eigenvalues.sum() - np.trace(a).real) / (na * n)
        )
        w, vecs = np.linalg.eigh(a)
        dev = np.max(np.abs(res.eigenvalues[::-1] - w)) / na
        if unique:
            dev = max(dev, metrics.sin_angle(vecs[:, 0], v))
        worst_eigh = max(worst_eigh, dev)
    ok = worst_res <= 1e-9 and worst_trace <= 1e-9 and worst_eigh <= 1e-10
    return ok, (f"eigenpair residual {worst_res:.2e}, trace deviation {worst_trace:.2e}, "
                f"eigh deviation {worst_eigh:.2e}")


def check_shift_invariance(rng):
    # A gap between the two smallest eigenvalues keeps the argmin eigenvector
    # numerically identifiable; without one the invariant is vacuous.
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 17))
        q, _ = np.linalg.qr(complex_gaussian(rng, n, n))
        lam = np.concatenate([[0.0], rng.uniform(0.1, 1.0, n - 1)])
        a = (q * lam) @ q.conj().T
        sigma = float(rng.uniform(-1, 3))
        v1 = spectral.eig_hermitian(a).vector
        v2 = spectral.eig_hermitian(a + sigma * np.eye(n)).vector
        worst = max(worst, metrics.sin_angle(v1, v2))
    return worst <= 1e-10, f"max sin-angle {worst:.2e}"


def check_angle_inequality(rng):
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        a = complex_gaussian(rng, n)
        b = complex_gaussian(rng, n)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        s = metrics.sin_angle(a, b)
        d = metrics.min_phase_distance(a, b)
        if not (s <= d + 1e-12 and d <= np.sqrt(2) * s + 1e-12):
            ok = False
            break
    return ok, "sin <= min-phase distance <= sqrt(2) sin on 1000 unit pairs"


def check_percentile_nearest_rank(rng):
    cases = [
        ([0.1], 95, 0.1),
        ([i / 100 for i in range(1, 101)], 95, 0.95),
        ([i / 100 for i in range(1, 101)], 7, 0.07),  # 0.07 * 100 rounds above 7
        ([0.2, 0.4, 0.6, 0.8], 50, 0.4),
    ]
    ok = all(harness.aggregate_percentile(vals, p) == expect for vals, p, expect in cases)
    return ok, "nearest-rank on reference lists"


def check_determinism(rng):
    spec = harness.ExperimentSpec(
        filter_len=8, n_channels=3, subspace_dim=2, l_over_k=4, snr_db=20,
        trials=1, methods=("cc", "sccc"), seed=123,
    )
    first = harness.run_trial(spec, 0)
    second = harness.run_trial(spec, 0)
    ok = first == second
    return ok, "repeated (seed, trial) bit-identical"


def check_mean_noise_gram(rng):
    err = mean_noise_gram_error(3, 8, 32, 0.7, 2000, rng)
    return err <= 0.05, f"relative Frobenius error {err:.4f} (tol 0.05)"


def check_mean_filter_autocorr(rng):
    err = mean_filter_autocorr_error(8, 32, 3, 2000, rng)
    return err <= 0.05, f"relative Frobenius error {err:.4f} (tol 0.05)"


def check_mean_filter_basis_corr(rng):
    err = mean_filter_basis_corr_error(8, 32, 3, 2000, rng)
    return err <= 0.05, f"relative Frobenius error {err:.4f} (tol 0.05)"


def check_mean_compressed_energy(rng):
    err_indep, err_same = mean_compressed_energy_errors(8, 32, 3, 2000, rng)
    ok = err_indep <= 0.05 and err_same <= 0.05
    return ok, f"relative errors {err_indep:.4f} / {err_same:.4f} (tol 0.05)"


def check_davis_kahan_bound(rng):
    holds = davis_kahan_trials(200, 12, rng)
    return holds == 200, f"bound held on {holds}/200 premise-satisfying pairs"


def check_snr_empirical_vs_formula(rng):
    x = complex_gaussian(rng, 32)
    u = complex_gaussian(rng, 9)
    eta = 10.0
    noise_var = sigma_for_snr(eta, 8, 32, 3, x, u)
    empirical = empirical_snr(8, 32, 3, x, u, noise_var, 2000, rng)
    rel = abs(empirical - eta) / eta
    return rel <= 0.03, f"relative deviation {rel:.4f} (tol 0.03)"


FAST_CHECKS = (
    ("conv_fft_vs_naive", check_conv_fft_vs_naive),
    ("conv_commutativity", check_conv_commutativity),
    ("conv_linear_circular", check_conv_linear_circular),
    ("xcorr_fast_vs_explicit", check_xcorr_fast_vs_explicit),
    ("compress_vs_explicit", check_compress_vs_explicit),
    ("xcorr_hermitian_psd", check_xcorr_hermitian_psd),
    ("debiased_gram_hermitian", check_debiased_gram_hermitian),
    ("noiseless_null_vector", check_noiseless_null_vector),
    ("eig_reconstruction", check_eig_reconstruction),
    ("shift_invariance", check_shift_invariance),
    ("angle_inequality", check_angle_inequality),
    ("percentile_nearest_rank", check_percentile_nearest_rank),
    ("determinism", check_determinism),
)

FULL_CHECKS = FAST_CHECKS + (
    ("mean_noise_gram", check_mean_noise_gram),
    ("mean_filter_autocorr", check_mean_filter_autocorr),
    ("mean_filter_basis_corr", check_mean_filter_basis_corr),
    ("mean_compressed_energy", check_mean_compressed_energy),
    ("davis_kahan_bound", check_davis_kahan_bound),
    ("snr_empirical_vs_formula", check_snr_empirical_vs_formula),
)


def run_checks(level="fast"):
    """Run the named invariant suite, printing a PASS or FAIL line per check;
    returns the list of failed names."""
    suite = FAST_CHECKS if level == "fast" else FULL_CHECKS
    failures = []
    for name, fn in suite:
        tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
        rng = np.random.default_rng([SEED, tag])
        ok, detail = fn(rng)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)
    return failures
