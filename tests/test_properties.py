"""Property tests: spec round trips, parse-time checking and estimator equivariances.

Hypothesis runs derandomized with a small example budget, so every run draws
the same examples and the suite stays deterministic and fast.
"""

import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindchan import harness, solvers, xcorr
from blindchan.checks import explicit_compressed_gram
from blindchan.exceptions import ConfigurationError
from blindchan.metrics import sin_angle
from blindchan.models import complex_gaussian

from conftest import make_instance

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)

# ---------------------------------------------------------------------------
# Spec round trip: spec_from_dict(spec_to_dict(s)) == s, through JSON


@st.composite
def point_specs(draw, valid=True):
    """A spec that validate accepts by construction: a PCA basis needs
    1 <= d < k and `ls` needs L >= 2 samples, so both draw k >= 2.  With
    valid=False, also the PCA and `ls` specs that validate refuses."""
    methods = tuple(draw(st.lists(st.sampled_from(harness.METHODS), min_size=1, unique=True)))
    basis = draw(st.sampled_from(harness.BASES))
    pca = valid and basis == "pca"
    K = draw(st.integers(2 if pca or (valid and "ls" in methods) else 1, 64))
    return harness.ExperimentSpec(
        filter_len=K,
        n_channels=draw(st.integers(2, 16)),
        subspace_dim=draw(st.integers(1, K - pca)),
        l_over_k=draw(st.floats(1, 40)),
        snr_db=draw(st.none() | st.floats(-20, 80)),
        trials=draw(st.integers(1, 1000)),
        methods=methods,
        basis=basis,
        source=draw(st.sampled_from(harness.SOURCES)),
        percentile=draw(st.floats(0, 100, exclude_min=True)),
        seed=draw(st.integers(0, 2**32)),
    )


@st.composite
def sweep_specs(draw, valid=True):
    spec = draw(point_specs(valid))
    param = draw(st.sampled_from(harness.SWEEP_PARAMS))
    value = {
        "d": st.integers(1, spec.filter_len - (valid and spec.basis == "pca")),
        "m": st.integers(2, 16),
        "l-over-k": st.floats(1, 40),
        "snr-db": st.just("noiseless") | st.floats(-20, 80),
    }[param]
    values = tuple(draw(st.lists(value, min_size=1, max_size=5)))
    return replace(spec, sweep=harness.Sweep(param, values))


@st.composite
def grid_specs(draw, valid=True):
    spec = draw(point_specs(valid))
    K = spec.filter_len
    top = (K - 1) / K if valid and spec.basis == "pca" else 1  # round(d-over-k * k) < k for PCA
    grid = harness.Grid(
        d_over_k=tuple(draw(st.lists(st.floats(0, top, exclude_min=True), min_size=1, max_size=4))),
        l_over_k=tuple(draw(st.lists(st.floats(1, 40), min_size=1, max_size=4))),
    )
    return replace(spec, sweep=grid)


@PROPERTY
@given(point_specs() | sweep_specs() | grid_specs())
def test_spec_round_trips_through_json(spec):
    spec = spec.validate()
    raw = json.loads(json.dumps(harness.spec_to_dict(spec)))
    assert harness.spec_from_dict(raw) == spec


def numpy_scalar(value):
    """An int as np.int64 and a float as np.float64; anything else as it is."""
    if isinstance(value, int) and not isinstance(value, bool):
        return np.int64(value)
    return np.float64(value) if isinstance(value, float) else value


@PROPERTY
@given(point_specs(False) | sweep_specs(False) | grid_specs(False))
def test_numpy_scalar_fields_validate_and_hash_like_python_ones(spec):
    twin = replace(spec, **{f.name: numpy_scalar(getattr(spec, f.name)) for f in fields(spec)})
    if isinstance(spec.sweep, harness.Sweep):
        values = tuple(map(numpy_scalar, spec.sweep.values))
        twin = replace(twin, sweep=harness.Sweep(spec.sweep.param, values))
    elif isinstance(spec.sweep, harness.Grid):
        lists = (tuple(map(numpy_scalar, v)) for v in (spec.sweep.d_over_k, spec.sweep.l_over_k))
        twin = replace(twin, sweep=harness.Grid(*lists))
    assert isinstance(twin.filter_len, np.int64) and isinstance(twin.l_over_k, np.float64)
    try:
        spec.validate()
    except ConfigurationError:  # refused with Python scalars, so with numpy ones too
        with pytest.raises(ConfigurationError):
            twin.validate()
        return
    twin.validate()
    assert harness.spec_hash(twin) == harness.spec_hash(spec)


# ---------------------------------------------------------------------------
# Parse-time checking is complete: a config spec_from_dict accepts runs


@st.composite
def small_configs(draw):
    k = draw(st.integers(1, 8))
    return {
        "k": k,
        "m": draw(st.integers(2, 4)),
        "d": draw(st.integers(1, k)),
        "l-over-k": draw(st.sampled_from([1, 1.5, 2, 3])),
        "basis": draw(st.sampled_from(harness.BASES)),
        "methods": draw(st.lists(st.sampled_from(harness.METHODS), min_size=1, unique=True)),
        "snr-db": draw(st.sampled_from(["noiseless", 20])),
        "trials": 1,
    }


@PROPERTY
@given(small_configs())
def test_accepted_config_runs_its_first_trial(config):
    # a config that fails, fails at parse time naming its key, not inside a trial
    try:
        spec = harness.spec_from_dict(config)
    except ConfigurationError:
        return
    harness.run_trial(spec, 0)


# ---------------------------------------------------------------------------
# The lag-window compressed Gram equals the explicit one at every length


@st.composite
def compression_cases(draw):
    M = draw(st.integers(2, 4))
    K = draw(st.integers(1, 8))
    D = draw(st.integers(1, K))
    L = draw(st.integers(K, 10 * K))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return complex_gaussian(rng, M, L), complex_gaussian(rng, M, K, D)


@PROPERTY
@given(compression_cases())
def test_compressed_gram_matches_explicit(case):
    ys, bases = case
    oracle = explicit_compressed_gram(ys, bases)
    fast = xcorr.compressed_cross_corr(ys, bases)
    assert np.linalg.norm(fast - oracle) <= 1e-12 * np.linalg.norm(oracle)


# ---------------------------------------------------------------------------
# Estimator equivariance on small seeded in-model instances


@st.composite
def instances(draw):
    """((M, K, D) bases, noise variance, observations) of a noisy in-model instance."""
    M = draw(st.integers(2, 4))
    D = draw(st.integers(1, 4))
    noise_var = draw(st.sampled_from([0.0, 1e-3, 1e-2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    bases, _, _, _, ys = make_instance(rng, M, 8, 32, dim=D, noise_var=noise_var)
    return bases, noise_var, ys


def estimate(method, ys, bases, noise_var):
    if method == "cc":
        return solvers.solve_cross_conv(ys, bases.shape[1])
    return solvers.solve_subspace_cross_conv(ys, bases, noise_var)


@pytest.mark.parametrize("method", ["cc", "sccc"])
@PROPERTY
@given(
    instance=instances(),
    log_scale=st.floats(-3, 3),
    phase=st.floats(0, 2 * np.pi),
)
def test_scaling_outputs_leaves_estimate(method, instance, log_scale, phase):
    bases, noise_var, ys = instance
    c = 10.0**log_scale * np.exp(1j * phase)
    base = estimate(method, ys, bases, noise_var)
    scaled = estimate(method, [c * y for y in ys], bases, noise_var * abs(c) ** 2)
    assert sin_angle(base.h_hat, scaled.h_hat) <= 1e-9


@pytest.mark.parametrize("method", ["cc", "sccc"])
@PROPERTY
@given(instance=instances(), data=st.data())
def test_permuting_channels_permutes_blocks(method, instance, data):
    bases, noise_var, ys = instance
    M, K, _ = bases.shape
    perm = data.draw(st.permutations(range(M)))
    base = estimate(method, ys, bases, noise_var)
    permuted = estimate(
        method, [ys[p] for p in perm], bases[list(perm)], noise_var
    )
    expected = base.h_hat.reshape(M, K)[list(perm)].reshape(-1)
    assert sin_angle(permuted.h_hat, expected) <= 1e-9
