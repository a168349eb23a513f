"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines; the slow Monte Carlo criteria stay within their stated
runtime caps on a desktop-class machine.
"""

import time

import numpy as np
import pytest

from blindchan import checks, harness, metrics, solvers, spectral, xcorr
from blindchan.models import (
    RngStreams,
    complex_gaussian,
    gen_channels_in_subspace,
    gen_gaussian_subspace,
)
from blindchan.sigops import convolve_short


def report(number, ok, description, detail, elapsed, cap):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {description}: {detail} "
          f"({elapsed:.1f}s < {cap:.0f}s)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < cap, f"criterion {number} exceeded runtime cap: {elapsed:.1f}s"


def test_criterion_01_fast_gram_matches_explicit_oracle():
    start = time.time()
    ok, detail = checks.check_xcorr_fast_vs_explicit(np.random.default_rng(101))
    report(1, ok, "fast Gram equals explicit oracle", f"{detail} (tol 1e-10)",
           time.time() - start, 5)


def test_criterion_02_noiseless_exact_recovery():
    start = time.time()
    streams = RngStreams(202)
    worst_cc = 0.0
    worst_sccc = 0.0
    for i in range(50):
        rng = streams.stream("instance", i)
        bases = gen_gaussian_subspace(16, 4, 4, rng)
        _, filters = gen_channels_in_subspace(bases, rng)
        x = complex_gaussian(rng, 48)
        ys = convolve_short(x, filters)
        cc = solvers.solve_cross_conv(ys, 16)
        sccc = solvers.solve_subspace_cross_conv(ys, bases, 0.0)
        worst_cc = max(worst_cc, metrics.sin_angle(cc.h_hat, filters))
        worst_sccc = max(worst_sccc, metrics.sin_angle(sccc.h_hat, filters))
    ok = worst_cc <= 1e-6 and worst_sccc <= 1e-8
    report(2, ok, "noiseless exact recovery on 50 instances",
           f"max sin-angle cc {worst_cc:.2e} (tol 1e-6), sccc {worst_sccc:.2e} (tol 1e-8)",
           time.time() - start, 30)


def test_criterion_03_spectral_gap_reproduction():
    start = time.time()
    streams = RngStreams(303)
    K, M, D = 64, 4, 8
    L = 4 * K
    tiny = 0
    open_gap = 0
    n_seeds = 20
    for i in range(n_seeds):
        rng = streams.stream("gap", i)
        x = complex_gaussian(rng, L)
        h = complex_gaussian(rng, M, K)
        ys = convolve_short(x, h)
        tiny += spectral.eig_hermitian(xcorr.cross_corr_matrix(ys, K)).gap_ratio <= 1e-3
        bases = gen_gaussian_subspace(K, D, M, rng)
        _, filters = gen_channels_in_subspace(bases, rng)
        compressed = xcorr.compressed_cross_corr(convolve_short(x, filters), bases)
        open_gap += spectral.eig_hermitian(compressed).gap_ratio >= 0.05
    ok = tiny >= 18 and open_gap >= 18
    report(3, ok, "spectral-gap contrast on 20 seeds",
           f"unconstrained <=1e-3 on {tiny}/20, constrained >=0.05 on {open_gap}/20 "
           "(need 18 each)", time.time() - start, 60)


def test_criterion_04_expectation_identities():
    start = time.time()
    rng = np.random.default_rng(404)
    e1 = checks.mean_filter_autocorr_error(8, 32, 3, 2000, rng)
    e2 = checks.mean_filter_basis_corr_error(8, 32, 3, 2000, rng)
    e3a, e3b = checks.mean_compressed_energy_errors(8, 32, 3, 2000, rng)
    ok = max(e1, e2, e3a, e3b) <= 0.05
    report(4, ok, "expectation identities over 2000 draws",
           f"rel Frobenius errors {e1:.3f}/{e2:.3f}/{e3a:.3f}/{e3b:.3f} (tol 0.05)",
           time.time() - start, 120)


def test_criterion_05_noise_debias_identity():
    start = time.time()
    rng = np.random.default_rng(505)
    err = checks.mean_noise_gram_error(3, 8, 32, 0.7, 2000, rng)
    report(5, err <= 0.05, "noise Gram debias identity over 2000 draws",
           f"rel Frobenius error {err:.3f} (tol 0.05)", time.time() - start, 120)


def test_criterion_06_angle_inequality():
    start = time.time()
    ok, detail = checks.check_angle_inequality(np.random.default_rng(606))
    report(6, ok, "angle/min-phase sandwich on 1000 unit pairs", detail,
           time.time() - start, 30)


def test_criterion_07_perturbation_bound():
    start = time.time()
    rng = np.random.default_rng(707)
    holds = checks.davis_kahan_trials(200, 12, rng)
    report(7, holds == 200, "sin-theta perturbation bound",
           f"held on {holds}/200 premise-satisfying pairs", time.time() - start, 60)


def criterion_8_spec():
    return harness.ExperimentSpec(
        filter_len=64, n_channels=4, subspace_dim=8, l_over_k=20, snr_db=20.0,
        trials=200, methods=("cc", "sccc"), seed=808,
    )


def test_criterion_08_subspace_constraint_beats_classical():
    start = time.time()
    point = harness.run_point(criterion_8_spec(), threads=2)
    cc95 = point.percentile("cc")
    sccc95 = point.percentile("sccc")
    report(8, sccc95 <= 0.5 * cc95, "constrained beats classical at 20 dB",
           f"p95 sccc {sccc95:.4f} vs cc {cc95:.4f} (need ratio <= 0.5)",
           time.time() - start, 600)


def test_criterion_09_monotone_trends():
    start = time.time()
    base = harness.ExperimentSpec(
        filter_len=32, n_channels=4, subspace_dim=8, l_over_k=20, snr_db=20.0,
        trials=200, methods=("sccc",), seed=909,
    )

    def medians(spec):
        result = harness.run_experiment(spec, threads=2)
        return [r["median"] for r in result.rows]

    from dataclasses import replace

    by_length = medians(replace(base, sweep=harness.Sweep("l-over-k", (5, 10, 20))))
    by_channels = medians(replace(base, sweep=harness.Sweep("m", (2, 4, 6))))
    by_dim = medians(replace(base, sweep=harness.Sweep("d", (4, 8, 16))))
    ok = (
        by_length[0] > by_length[1] > by_length[2]
        and by_channels[0] > by_channels[1] > by_channels[2]
        and by_dim[0] < by_dim[1] < by_dim[2]
    )
    detail = (
        f"L medians {['%.4f' % v for v in by_length]} decreasing, "
        f"M medians {['%.4f' % v for v in by_channels]} decreasing, "
        f"D medians {['%.4f' % v for v in by_dim]} increasing"
    )
    report(9, ok, "monotone error trends", detail, time.time() - start, 600)


def test_criterion_10_error_scaling_with_length():
    start = time.time()
    spec = harness.ExperimentSpec(
        filter_len=32, n_channels=4, subspace_dim=4, l_over_k=10, snr_db=20.0,
        trials=200, methods=("sccc",), seed=1010,
        sweep=harness.Sweep("l-over-k", (10, 40)),
    )
    rows = harness.run_experiment(spec, threads=2).rows
    ratio = rows[0]["median"] / rows[1]["median"]
    report(10, ratio >= 1.5, "error vs length follows inverse-sqrt scaling",
           f"median ratio L=10K/L=40K is {ratio:.2f} (need >= 1.5, prediction 2.0)",
           time.time() - start, 600)


def test_criterion_11_bandpass_pca_scenario():
    start = time.time()
    spec = harness.ExperimentSpec(
        filter_len=32, n_channels=16, subspace_dim=6, l_over_k=20, snr_db=40.0,
        trials=200, methods=("cc", "sccc", "ls"), basis="pca", seed=1111,
    )
    point = harness.run_point(spec, threads=2)
    sccc95 = point.percentile("sccc")
    cc95 = point.percentile("cc")
    ls95 = point.percentile("ls")
    ok = sccc95 <= 0.2 and cc95 >= 0.8 and ls95 >= 0.8
    report(11, ok, "band-pass family: constrained succeeds, baselines fail",
           f"p95 sccc {sccc95:.4f} (<=0.2), cc {cc95:.4f} (>=0.8), ls {ls95:.4f} (>=0.8)",
           time.time() - start, 900)


def test_criterion_12_byte_identical_outputs(tmp_path):
    start = time.time()
    spec = criterion_8_spec()
    outputs = []
    for threads in (1, 2):
        result = harness.run_experiment(spec, threads=threads)
        path = tmp_path / f"run_t{threads}.csv"
        harness.write_csv(result, path)
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1]
    report(12, ok, "byte-identical outputs at any thread count",
           f"{len(outputs[0])} bytes compared equal", time.time() - start, 900)
