"""Why the classical estimator is fragile: the spectral gap story.

The channel estimate is the smallest eigenvector of a cross-correlation
Gram matrix, so its noise robustness is governed by the gap between the two
smallest eigenvalues.  This script builds one noiseless instance and shows
that gap with and without a subspace model on the channels.
"""

import blindchan as bc
from blindchan import blas

K, M, D, L = 64, 4, 8, 256
streams = bc.RngStreams(1)

# one BLAS thread, so every printed digit is the same at any OPENBLAS_NUM_THREADS
with blas.single_thread():
    x = bc.gen_source("gaussian", L, streams.stream("source"))

    # unstructured random channels: the classical setting
    h = bc.complex_gaussian(streams.stream("channels"), M, K)
    info = bc.eig_hermitian(bc.cross_corr_matrix(bc.convolve_short(x, h), K))
    print(f"unconstrained matrix ({M * K} x {M * K}):")
    ratio = info.lambda_min / info.lambda_max  # roundoff: print it against a floor
    print(f"  smallest eigenvalue / largest : {'< 1e-12' if abs(ratio) < 1e-12 else f'{ratio:.2e}'}")
    print(f"  gap ratio (second smallest / largest): {info.gap_ratio:.2e}")
    print("  -> an exact null vector exists, but the next eigenvalue is barely above it;")
    print("     any noise of comparable size scrambles the estimate.")

    # the same construction with channels confined to a D-dimensional model
    bases = bc.gen_gaussian_subspace(K, D, M, streams.stream("basis"))
    u, filters = bc.gen_channels_in_subspace(bases, streams.stream("coef"))
    info = bc.eig_hermitian(bc.compressed_cross_corr(bc.convolve_short(x, filters), bases))
    print(f"\nsubspace-compressed matrix ({M * D} x {M * D}):")
    print(f"  gap ratio: {info.gap_ratio:.2f}")
    print("  -> compressing by the model basis lifts the gap by orders of magnitude,")
    print("     which is exactly the margin the eigenvector estimate needs.")
