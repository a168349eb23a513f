"""A structured channel family where only the subspace-constrained method survives.

The subspace is learned from a band-pass parametric family (a windowed
complex exponential at continuous random shifts and amplitudes) as the top
principal components of training draws, and the channels are drawn inside
that subspace.  The basis spans the family's mirror image (centre -0.125
cycles/sample instead of +0.125), so the channels are band-pass at the
mirrored frequency.  They leave most of the spectrum unexcited: the
linearized least-squares system becomes severely ill-conditioned and the
classical method's spectral gap collapses, while the subspace-constrained
estimator keeps working.  The instance is trial 0 of the 40 dB cell of
reproduce/pca_snr_sweep.json, drawn as every Monte Carlo trial draws it.
The printed SNR is nominal: the orthonormal PCA basis carries 1/K of the
energy the SNR formula assumes, so the realized SNR is 10 log10(K) = 15 dB
lower.
"""

import numpy as np

import blindchan as bc
from blindchan import blas, harness

spec = bc.ExperimentSpec(
    32, 16, 6, snr_db=40.0, basis="pca", methods=("cc", "sccc", "ls"), seed=2024,
)
K, M, D, snr_db = spec.filter_len, spec.n_channels, spec.subspace_dim, spec.snr_db

# one BLAS thread, so every printed digit is the same at any OPENBLAS_NUM_THREADS
with blas.single_thread():
    bases, filters, _, ys, noise_var = harness.draw_instance(spec, 0)
    L = ys.shape[1]

    spectra = np.abs(np.fft.fft(filters, n=L, axis=1)) ** 2
    per_bin = spectra.sum(axis=0)
    span = per_bin.max() / per_bin.min()  # the dead bins hold roundoff: print it against a floor
    print(f"channel ensemble spectrum dynamic range: {'> 1e12' if span > 1e12 else f'{span:.1e}'}")
    print("  -> most DFT bins carry essentially no channel energy\n")

    cc = bc.solve_cross_conv(ys, K)
    sccc = bc.solve_subspace_cross_conv(ys, bases, noise_var)
    ls = bc.solve_linearized_ls(ys, bases)

    print(f"at SNR {snr_db:.0f} dB (K={K}, M={M}, D={D}, L={L}):")
    print(f"  classical cross-convolution  error = {bc.sin_angle(cc.h_hat, filters):.3f}")
    print(f"  linearized least squares     error = {bc.sin_angle(ls.h_hat, filters):.3f}"
          f"   (condition {ls.condition:.1e}; noise fills the dead bins, signal does not)")
    print(f"  subspace-constrained         error = {bc.sin_angle(sccc.h_hat, filters):.4f}")
print("\nonly the method that exploits the model survives this family;")
print("see reproduce/pca_snr_sweep.json for the full SNR sweep.")
