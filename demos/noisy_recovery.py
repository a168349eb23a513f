"""All four estimators on one noisy instance, with the instance diagnostics.

Draws channels in a generic Gaussian subspace, observes them at 20 dB SNR,
and compares the classical eigenvector method, the subspace-constrained
variant, the non-blind least squares (known source), and the linearized
least-squares baseline on identical data.
"""

import numpy as np

import blindchan as bc
from blindchan import blas

K, M, D = 32, 4, 8
L = 20 * K
snr_db = 20.0
streams = bc.RngStreams(7)

# one BLAS thread, so every printed digit is the same at any OPENBLAS_NUM_THREADS
with blas.single_thread():
    bases = bc.gen_gaussian_subspace(K, D, M, streams.stream("basis"))
    u, filters = bc.gen_channels_in_subspace(bases, streams.stream("coef"))
    x = bc.gen_source("gaussian", L, 1.0, streams.stream("source"))
    noise_var = bc.sigma_for_snr(bc.db_to_linear(snr_db), K, L, M, x, u)
    noise = streams.stream("noise")
    ws = np.array([bc.complex_gaussian(noise, L, var=noise_var) for _ in range(M)])
    ys = bc.convolve_short(x, filters) + ws

    estimates = {
        "classical cross-convolution": bc.solve_cross_conv(ys, K),
        "subspace-constrained       ": bc.solve_subspace_cross_conv(ys, bases, noise_var),
        "non-blind least squares    ": bc.solve_oracle_ls(ys, x, bases),
        "linearized least squares   ": bc.solve_linearized_ls(ys, bases),
    }

print(f"K={K}, M={M}, D={D}, L={L}, SNR={snr_db:.0f} dB\n")
for name, est in estimates.items():
    err = bc.sin_angle(est.h_hat, filters)
    flag = " (degenerate)" if est.degenerate else ""
    print(f"  {name}  sin-angle error = {err:.4f}{flag}")

sccc = estimates["subspace-constrained       "]
rep = bc.metric_report(sccc.h_hat, filters, x, u, ws, K, M, noise_var, sccc.gap_ratio)
print("\ninstance diagnostics:")
print(f"  snr eta      = {rep.eta:8.1f}   (target {bc.db_to_linear(snr_db):.0f})")
print(f"  flatness mu  = {rep.mu:8.3f}   (1 = perfectly balanced channels)")
print(f"  rho_x        = {rep.rho_x:8.1f}   vs source energy {np.linalg.norm(x)**2:.1f}")
print(f"  rho_xw       = {rep.rho_xw:8.2f}")
print(f"  rho_w        = {rep.rho_w:8.2f}   rho_bar_w = {rep.rho_bar_w:.2f}")
print(f"  gap ratio    = {rep.gap_ratio:8.3f}")
