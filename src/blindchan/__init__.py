"""Spectral methods for multichannel blind deconvolution.

Several unknown FIR channels are driven by one unknown source; the
commutativity of convolution turns the channel outputs into a homogeneous
linear system whose null space reveals the channels.  This package provides
the classical eigenvector estimator built on that idea, a subspace-
constrained variant that widens the spectral gap the estimator depends on,
non-blind and linearized least-squares baselines, the diagnostics that
explain when each method works, and a reproducible Monte Carlo harness.
"""

from .exceptions import (
    BlindchanError,
    ConfigurationError,
    DimensionError,
    InputError,
)
from .harness import (
    ExperimentSpec,
    Grid,
    Sweep,
    aggregate_percentile,
    run_experiment,
    run_point,
    run_trial,
    spec_from_dict,
    spec_to_dict,
)
from .metrics import db_to_linear, min_phase_distance, sin_angle, snr
from .models import (
    RngStreams,
    add_noise,
    apply_bases,
    bandpass_pulse,
    complex_gaussian,
    gen_channels_in_subspace,
    gen_gaussian_subspace,
    gen_pca_subspace,
    gen_source,
    sigma_for_snr,
)
from .sigops import circular_convolve, circulant, conv_matrix, convolve_short, zero_pad
from .solvers import (
    Estimate,
    debiased_compressed_gram,
    solve_cross_conv,
    solve_linearized_ls,
    solve_oracle_ls,
    solve_subspace_cross_conv,
)
from .spectral import (
    DavisKahanReport,
    EigenResult,
    davis_kahan_check,
    eig_hermitian,
)
from .xcorr import (
    compressed_cross_corr,
    cross_corr_matrix,
    cross_relation_matrix,
)

__version__ = "0.1.0"
