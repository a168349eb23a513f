import errno
import importlib.util
import json
import math
import os
import signal
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from blindchan.exceptions import ConfigurationError, InputError
from blindchan import cli, harness
from conftest import run_isolated


def small_spec(**overrides):
    base = dict(
        filter_len=8, n_channels=3, subspace_dim=2, l_over_k=5, snr_db=20.0,
        trials=3, methods=("cc", "sccc"), seed=77,
    )
    base.update(overrides)
    return harness.ExperimentSpec(**base)


class TestSpecRoundtrip:
    def test_json_roundtrip(self):
        spec = small_spec(sweep=harness.Sweep(param="d", values=(2, 4)))
        again = harness.spec_from_dict(harness.spec_to_dict(spec))
        assert again == spec

    def test_grid_roundtrip(self):
        spec = small_spec(sweep=harness.Grid(d_over_k=(0.25, 0.5), l_over_k=(2, 5)))
        again = harness.spec_from_dict(harness.spec_to_dict(spec))
        assert again == spec

    def test_noiseless_encoding(self):
        spec = small_spec(snr_db=None)
        raw = harness.spec_to_dict(spec)
        assert raw["snr-db"] == "noiseless"
        assert harness.spec_from_dict(raw).snr_db is None

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(methods=("cc", "magic")).validate()

    def test_bad_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(trials=0).validate()

    def test_bad_sweep_param_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(sweep=harness.Sweep(param="k", values=(8, 16))).validate()

    def test_missing_key_reported(self):
        with pytest.raises(ConfigurationError):
            harness.spec_from_dict({"k": 8, "m": 3})

    def test_incomplete_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            harness.spec_from_dict(
                {"k": 8, "m": 3, "d": 2, "sweep": {"d-over-k": [0.5]}}
            )

    @pytest.mark.parametrize("snr_db", [20, 20.0, None])
    def test_python_spec_hashes_like_its_round_trip(self, snr_db):
        # integer l_over_k, percentile and snr_db compare equal to the floats
        # JSON parsing stores, so they must hash equal too
        spec = harness.ExperimentSpec(
            filter_len=32, n_channels=4, subspace_dim=8, l_over_k=20, snr_db=snr_db,
            trials=50, methods=("cc", "sccc"), percentile=95, seed=31,
        )
        again = harness.spec_from_dict(json.loads(json.dumps(harness.spec_to_dict(spec))))
        assert again == spec
        assert harness.spec_hash(again) == harness.spec_hash(spec)

    def test_keys_with_a_default_read_to_the_dataclass_default(self):
        # a config and a Python-built spec that leave a key out get one value
        assert harness.ExperimentSpec(8, 3, 2) == harness.spec_from_dict({"k": 8, "m": 3, "d": 2})

    def test_equal_sweeps_hash_equal(self):
        ints = small_spec(sweep=harness.Sweep("l-over-k", (5, 10)))
        floats = small_spec(sweep=harness.Sweep("l-over-k", (5.0, 10.0)))
        assert ints == floats
        assert harness.spec_hash(ints) == harness.spec_hash(floats)

    def test_equal_json_grids_hash_equal(self):
        specs = [
            harness.spec_from_dict(point_config(sweep={"d-over-k": [0.25], "l-over-k": [lk]}))
            for lk in (4, 4.0)
        ]
        assert specs[0] == specs[1]
        assert harness.spec_hash(specs[0]) == harness.spec_hash(specs[1])

    def test_numpy_integer_field_runs_and_hashes_like_an_int(self):
        plain = small_spec(trials=2)
        result = harness.run_experiment(replace(plain, filter_len=np.int64(8)))
        assert result.provenance == harness.spec_hash(plain)
        assert result.rows == harness.run_experiment(plain).rows

    def test_hash_stable_and_seed_sensitive(self):
        a = harness.spec_hash(small_spec())
        b = harness.spec_hash(small_spec())
        c = harness.spec_hash(small_spec(seed=78))
        assert a == b
        assert a != c


def point_config(**overrides):
    raw = {"k": 8, "m": 3, "d": 2, "l-over-k": 5, "snr-db": 20, "trials": 3}
    raw.update(overrides)
    return raw


def shipped_configs():
    """Each reproduce/ config by file stem, and batch 0 of each benchmark
    workload at seed 0 by workload name."""
    root = Path(__file__).resolve().parent.parent
    configs = {
        path.stem: json.loads(path.read_text())
        for path in sorted((root / "reproduce").glob("*.json"))
    }
    loader = importlib.util.spec_from_file_location(
        "bench_workloads", root / "benchmarks" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    for name, w in workloads.WORKLOADS.items():
        configs[name] = workloads.spec_config(w, 0, 0, w.batch_trials)
    return configs


class TestStrictSpec:
    @pytest.fixture(autouse=True)
    def no_trials(self, monkeypatch):
        # every rejection must come before the first trial
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
        yield
        assert calls == [], "a trial ran before the spec was rejected"

    def test_unknown_keys_named(self):
        raw = {"k": 8, "m": 3, "d": 2, "norm-profile": "flat", "snr_db": 10, "trails": 5}
        with pytest.raises(ConfigurationError, match="'norm-profile', 'snr_db', 'trails'"):
            harness.spec_from_dict(raw)

    def test_unknown_sweep_and_grid_keys_named(self):
        with pytest.raises(ConfigurationError, match="'value'"):
            harness.spec_from_dict(point_config(sweep={"param": "d", "values": [2], "value": 3}))
        with pytest.raises(ConfigurationError, match="'param'"):
            harness.spec_from_dict(
                point_config(sweep={"d-over-k": [0.25], "l-over-k": [4], "param": "d"})
            )

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"m": 1}, "m >= 2"),
            ({"d": 0}, "1 <= d <= k"),
            ({"d": 9}, "1 <= d <= k"),
            ({"l-over-k": 0.5}, ">= k"),
            ({"basis": "nope"}, "unknown basis 'nope'"),
            ({"source": "nope"}, "unknown source 'nope'"),
            ({"basis": 5}, "spec key .basis. has a bad value 5"),
            ({"k": "eight"}, "spec key .k. has a bad value .eight."),
            ({"k": 8.7}, "spec key .k. has a bad value 8.7"),
            ({"d": 1.5}, "spec key .d. has a bad value 1.5"),
            ({"trials": 2.5}, "spec key .trials. has a bad value 2.5"),
            ({"trials": True}, "spec key .trials. has a bad value True"),
            ({"seed": 0.5}, "spec key .seed. has a bad value 0.5"),
            ({"methods": "cc"}, "spec key .methods. has a bad value .cc."),
            ({"l-over-k": float("nan")}, "spec key .l-over-k. has a bad value nan"),
            ({"l-over-k": True}, "spec key .l-over-k. has a bad value True"),
            ({"l-over-k": 10**400}, "spec key .l-over-k. has a bad value 1000"),
            ({"snr-db": -float("inf")}, "spec key .snr-db. has a bad value -inf"),
            ({"snr-db": False}, "spec key .snr-db. has a bad value False"),
            ({"percentile": True}, "spec key .percentile. has a bad value True"),
            ({"percentile": float("inf")}, "spec key .percentile. has a bad value inf"),
            ({"l-over-k": 1e308}, "key .l-over-k. gives more than 16777216 samples"),
            ({"l-over-k": 1e9}, "key .l-over-k. gives more than 16777216 samples at k=8: 1000000000.0"),
            ({"k": "8"}, "spec key .k. has a bad value .8."),
            ({"l-over-k": "20"}, "spec key .l-over-k. has a bad value .20."),
            ({"percentile": "95"}, "spec key .percentile. has a bad value .95."),
            ({"seed": " 7 "}, "spec key .seed. has a bad value . 7 ."),
            ({"seed": -1}, "spec key .seed. has a bad value -1"),
            ({"snr-db": 301}, "spec key .snr-db. has a bad value 301"),
            ({"snr-db": -301}, "spec key .snr-db. has a bad value -301"),
            ({"snr-db": 4000}, "spec key .snr-db. has a bad value 4000"),
            ({"snr-db": -2900}, "spec key .snr-db. has a bad value -2900"),
            ({"k": 1e308}, "key .k. is above 16777216, so L >= k is too long"),
            ({"k": 2**25, "l-over-k": 1}, "key .k. is above 16777216, so L >= k is too long"),
            ({"trials": 0}, "spec key .trials. has a bad value 0"),
            ({"percentile": 0}, "spec key .percentile. has a bad value 0"),
            ({"percentile": 100.5}, "spec key .percentile. has a bad value 100.5"),
            ({"methods": []}, "at least one method must be requested"),
        ],
    )
    def test_bad_point_rejected(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            harness.spec_from_dict(point_config(**overrides))

    @pytest.mark.parametrize("name", ["l_over_k", "percentile", "snr_db"])
    @pytest.mark.parametrize("value", [np.float32(5), np.float16(5)])
    def test_narrow_numpy_floats_pass_without_a_warning(self, name, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            spec = replace(small_spec(), **{name: value}).validate()
        assert harness.spec_hash(spec) == harness.spec_hash(small_spec(**{name: 5.0}))

    @pytest.mark.parametrize("value", [
        10**400, -(10**400), float("nan"), float("inf"), -float("inf"), np.float32("nan"), np.float32("inf"),
    ])
    def test_numbers_beyond_float_range_refused_without_a_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, key in (("l_over_k", "l-over-k"), ("percentile", "percentile")):
                with pytest.raises(ConfigurationError, match=f"spec key '{key}' has a bad value"):
                    replace(small_spec(), **{name: value}).validate()

    @pytest.mark.parametrize("snr_db", [300, -300, 300.0])
    def test_snr_bound_accepted(self, snr_db):
        assert harness.spec_from_dict(point_config(**{"snr-db": snr_db})).snr_db == snr_db

    @pytest.mark.parametrize("sweep,where", [
        ({"param": "d", "values": [2, 3]}, "sweep cell 2: "),
        ({"d-over-k": [0.25], "l-over-k": [4]}, r"sweep cell \(0\.25, 4\): "),
    ])
    def test_huge_k_named_in_every_cell(self, sweep, where):
        # L >= k, so a k above the signal-length ceiling is the fault, not l-over-k
        with pytest.raises(ConfigurationError, match=where + "key .k. is above 16777216, so L >= k is too long"):
            harness.spec_from_dict(point_config(k=2**25, sweep=sweep))

    def test_integral_numbers_accepted(self):
        spec = harness.spec_from_dict(point_config(k=8.0, trials=3.0))
        assert (spec.filter_len, spec.trials) == (8, 3)
        assert type(spec.filter_len) is int

    def test_reported_spec_fails_on_its_first_fault(self):
        with pytest.raises(ConfigurationError, match="unknown basis 'nope'"):
            harness.spec_from_dict(point_config(m=1, d=20, basis="nope"))

    @pytest.mark.parametrize("overrides,message", [
        ({"snr_db": 4000.0}, "spec key 'snr-db' has a bad value 4000.0"),
        ({"snr_db": float("nan")}, "spec key 'snr-db' has a bad value nan"),
        ({"seed": -1}, "spec key 'seed' has a bad value -1"),
        ({"filter_len": 8.7}, "spec key 'k' has a bad value 8.7"),
        ({"n_channels": 3.0}, "spec key 'm' has a bad value 3.0"),
        ({"subspace_dim": 2.5}, "spec key 'd' has a bad value 2.5"),
        ({"trials": 1.5}, "spec key 'trials' has a bad value 1.5"),
        ({"seed": True}, "spec key 'seed' has a bad value True"),
        ({"l_over_k": float("nan")}, "spec key 'l-over-k' has a bad value nan"),
        ({"percentile": "95"}, "spec key 'percentile' has a bad value '95'"),
        ({"snr_db": "noiseless"}, "spec key 'snr-db' has a bad value 'noiseless'"),
        ({"methods": "cc"}, "spec key 'methods' has a bad value 'cc'"),
        ({"trials": 0}, "spec key 'trials' has a bad value 0"),
        ({"percentile": 0}, "spec key 'percentile' has a bad value 0"),
        ({"basis": None}, "spec key 'basis' has a bad value None"),
    ])
    def test_spec_built_in_python_is_checked_like_a_config(self, overrides, message):
        # the key tables refuse these values in a config file, and an integer
        # key holds an integer; validate() must refuse them too, before any
        # trial or worker process starts
        spec = small_spec(trials=2).validate()
        with pytest.raises(ConfigurationError, match=message):
            harness.run_experiment(replace(spec, **overrides), threads=2)

    @pytest.mark.parametrize("sweep", [
        {"param": "d", "values": [2]},
        harness.Sweep("d", 2),
        harness.Grid(d_over_k=0.25, l_over_k=(4,)),
    ])
    def test_sweep_built_in_python_must_be_a_sweep_or_grid_of_lists(self, sweep):
        # a mapping is neither shape: it used to pass validate, run every trial
        # and fail in the grid table; a bare value in place of a list used to
        # fail inside validate with a TypeError
        spec = small_spec(trials=2)
        with pytest.raises(ConfigurationError, match="spec key 'sweep' has a bad value"):
            harness.run_experiment(replace(spec, sweep=sweep))

    @pytest.mark.parametrize(
        "sweep,message",
        [
            ({"param": "m", "values": [2, 1]}, "sweep cell 1: need m >= 2"),
            ({"param": "d", "values": [2, 9]}, "sweep cell 9: need 1 <= d <= k"),
            ({"param": "l-over-k", "values": [5, 0.5]}, "sweep cell 0.5:"),
            ({"param": "d", "values": ["two"]}, "bad d sweep value 'two'"),
            ({"param": "d", "values": [2, 1.5]}, "bad d sweep value 1.5"),
            ({"param": "m", "values": [True]}, "bad m sweep value True"),
            ({"param": "l-over-k", "values": [5, float("nan")]}, "bad l-over-k sweep value nan"),
            ({"param": "snr-db", "values": [20, float("-inf")]}, "bad snr-db sweep value -inf"),
            ({"param": "snr-db", "values": [True]}, "bad snr-db sweep value True"),
            ({"param": "l-over-k", "values": [5, 1e308]}, r"sweep cell 1e\+308: key .l-over-k."),
            ({"param": "l-over-k", "values": [5, 1e9]}, "sweep cell 1000000000.0: key .l-over-k."),
            ({"param": "d", "values": ["2", "3"]}, "bad d sweep value .2."),
            ({"param": "snr-db", "values": [20, "10"]}, "bad snr-db sweep value .10."),
            ({"param": "snr-db", "values": [10, 301]}, "bad snr-db sweep value 301"),
            ({"param": "snr-db", "values": [10, -301]}, "bad snr-db sweep value -301"),
            ({"param": "snr-db", "values": [10, 4000]}, "bad snr-db sweep value 4000"),
            ({"param": "snr-db", "values": [10, -2900]}, "bad snr-db sweep value -2900"),
        ],
    )
    def test_bad_sweep_cell_rejected(self, sweep, message):
        with pytest.raises(ConfigurationError, match=message):
            harness.spec_from_dict(point_config(sweep=sweep))

    @pytest.mark.parametrize(
        "grid,message",
        [
            ({"d-over-k": [0.25, 1.5], "l-over-k": [4]}, r"sweep cell \(1\.5, 4\)"),
            ({"d-over-k": [0.25], "l-over-k": [4, 0.5]}, r"sweep cell \(0\.25, 0\.5\)"),
            ({"d-over-k": [0.25], "l-over-k": [4, 1e308]},
             r"sweep cell \(0\.25, 1e\+308\): key .l-over-k."),
            ({"d-over-k": [0.25], "l-over-k": [4, 1e9]},
             r"sweep cell \(0\.25, 1000000000\.0\): key .l-over-k."),
            ({"d-over-k": [1e308], "l-over-k": [4]}, r"sweep cell \(1e\+308, 4\): need 1 <= d <= k"),
            ({"d-over-k": [0.25, -0.5], "l-over-k": [4]},
             r"sweep cell \(-0\.5, 4\): need 1 <= d <= k"),
            ({"d-over-k": [0.0], "l-over-k": [4]}, r"sweep cell \(0\.0, 4\): need 1 <= d <= k"),
        ],
    )
    def test_bad_grid_cell_rejected(self, grid, message):
        with pytest.raises(ConfigurationError, match=message):
            harness.spec_from_dict(point_config(sweep=grid))

    @pytest.mark.parametrize(
        "sweep,message",
        [
            ({"d-over-k": ["half"], "l-over-k": [4]}, "numeric d-over-k and l-over-k"),
            ({"d-over-k": [0.25], "l-over-k": [None]}, "numeric d-over-k and l-over-k"),
            ({"param": "d", "values": 2}, "malformed sweep"),
            ({"param": "d"}, "missing required key 'values'"),
            (3, "malformed sweep"),
            ({"param": "d", "values": "24"}, "malformed sweep"),
            ({"d-over-k": "0.5", "l-over-k": [4]}, "malformed sweep"),
            ({"d-over-k": [True], "l-over-k": [4]}, "numeric d-over-k and l-over-k"),
            ({"d-over-k": [0.25], "l-over-k": [float("nan")]}, "numeric d-over-k and l-over-k"),
            ({"d-over-k": [0.25], "l-over-k": [float("inf")]}, "numeric d-over-k and l-over-k"),
            ({"d-over-k": [0.25], "l-over-k": [10**400]}, "numeric d-over-k and l-over-k"),
            ({"param": "d", "values": [2], "value": 3}, r"^unknown sweep key\(s\) 'value'"),
            ({"d-over-k": [0.25], "l-over-k": [4], "dk": 1}, r"^unknown grid key\(s\) 'dk'"),
            ({"param": "d", "values": []}, "sweep needs a nonempty value list"),
        ],
    )
    def test_malformed_sweep_rejected(self, sweep, message):
        with pytest.raises(ConfigurationError, match=message):
            harness.spec_from_dict(point_config(sweep=sweep))

    def test_shipped_and_benchmark_specs_parse(self):
        configs = shipped_configs()
        assert len(configs) >= 9  # 6 configs in reproduce/ and 3 workloads
        for raw in configs.values():
            harness.spec_from_dict(raw)

    def test_shipped_and_benchmark_spec_hashes_are_pinned(self):
        # the provenance hash each shipped spec records; a change to how a key
        # is read, defaulted or written moves one
        hashes = {
            name: harness.spec_hash(harness.spec_from_dict(raw))
            for name, raw in shipped_configs().items()
        }
        assert hashes == {
            "error_vs_channels": "bcef4f61b5426925",
            "error_vs_dimension": "cb8ef0fb4e5ad432",
            "error_vs_length": "6b0a751a09b5d6f9",
            "pca_snr_sweep": "5962202683e4d30f",
            "phase_grid": "e9a2c311787ce2cf",
            "spectral_gap": "ef1ec2b50967a60a",
            "pca_dense": "6c64c14d7cc2d60b",
            "long_filter": "21848e8d91a10ee5",
            "small_cells": "6c90b324c66bcedf",
        }

    def test_pca_spec_refused_exactly_when_the_generator_refuses(self):
        rng = np.random.default_rng(0)
        for k in range(1, 10):
            for d in range(1, k + 1):
                spec = small_spec(
                    filter_len=k, subspace_dim=d, l_over_k=4, basis="pca", methods=("sccc",)
                )
                try:
                    spec.validate()
                    spec_ok = True
                except ConfigurationError:
                    spec_ok = False
                try:
                    harness.gen_pca_subspace(k, d, 2, rng)
                    generator_ok = True
                except ConfigurationError:
                    generator_ok = False
                assert spec_ok == generator_ok, (k, d)

    def test_gaussian_spec_refused_exactly_when_the_generator_refuses(self):
        # one 1 <= d <= k rule, with one message, for the spec and the generator
        rng = np.random.default_rng(0)
        for k in range(1, 10):
            for d in range(-1, k + 3):
                spec = small_spec(filter_len=k, subspace_dim=d, l_over_k=4, methods=("sccc",))
                outcomes = []
                for attempt in (spec.validate, lambda: harness.gen_gaussian_subspace(k, d, 2, rng)):
                    try:
                        attempt()
                        outcomes.append(None)
                    except ConfigurationError as err:
                        outcomes.append(str(err))
                assert outcomes[0] == outcomes[1], (k, d)
                assert (outcomes[0] is None) == (1 <= d <= k), (k, d)


class TestRunTrial:
    def test_noiseless_all_methods_recover(self):
        spec = small_spec(
            filter_len=16, n_channels=3, subspace_dim=4, l_over_k=5,
            snr_db=None, methods=("cc", "sccc", "oracle", "ls"),
        )
        errors, degenerate = harness.run_trial(spec, 0)
        for method, err in errors.items():
            assert err <= 1e-6, method
        assert not any(degenerate.values())

    def test_determinism(self):
        spec = small_spec()
        assert harness.run_trial(spec, 2) == harness.run_trial(spec, 2)

    @pytest.mark.parametrize("basis", harness.BASES)
    def test_errors_are_each_solver_on_the_drawn_instance(self, basis):
        spec = small_spec(filter_len=16, subspace_dim=3, basis=basis, methods=harness.METHODS)
        for trial in range(2):
            errors, _ = harness.run_trial(spec, trial)
            for method in harness.METHODS:
                inst = harness.draw_instance(spec, trial)
                est = harness._SOLVERS[method](inst)
                assert errors[method] == harness.sin_angle(est.h_hat, inst.filters), method

    def test_per_method_isolation(self):
        both = harness.run_trial(small_spec(methods=("cc", "sccc")), 1)[0]
        alone = harness.run_trial(small_spec(methods=("sccc",)), 1)[0]
        assert both["sccc"] == alone["sccc"]

    def test_errors_in_unit_interval(self):
        spec = small_spec(snr_db=-10.0, methods=("cc", "sccc", "ls"))
        errors, _ = harness.run_trial(spec, 0)
        for err in errors.values():
            assert 0.0 <= err <= 1.0

    def test_pca_basis_path(self):
        spec = small_spec(
            filter_len=16, n_channels=3, subspace_dim=3, basis="pca", snr_db=30.0
        )
        errors, _ = harness.run_trial(spec, 0)
        assert set(errors) == {"cc", "sccc"}

    @pytest.mark.parametrize(
        "basis,generator", [("gaussian", "gen_gaussian_subspace"), ("pca", "gen_pca_subspace")]
    )
    def test_basis_generator_is_looked_up_at_call_time(self, monkeypatch, basis, generator):
        # the benchmark's models.basis span rebinds these module attributes
        real = getattr(harness, generator)
        calls = []

        def recorder(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, generator, recorder)
        harness.run_trial(small_spec(filter_len=16, subspace_dim=3, basis=basis), 0)
        assert len(calls) == 1
        K, D, M, rng = calls[0]
        assert (K, D, M) == (16, 3, 3)
        assert isinstance(rng, np.random.Generator)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: sigma_for_snr assumes E||Phi u||^2 = K ||u||^2, but PCA "
               "bases are orthonormal, so the realized SNR is 10 log10(K) dB lower",
    )
    def test_pca_realized_snr_matches_its_label(self, monkeypatch):
        # the criterion-11 cell; add_noise sees each trial's clean outputs and noise level
        spec = small_spec(
            filter_len=32, n_channels=16, subspace_dim=6, l_over_k=20, snr_db=40.0,
            methods=("sccc",), basis="pca", seed=1111,
        )
        real = harness.add_noise
        snr_db = []

        def recorder(clean, sigma_w, rng):
            snr_db.append(10 * np.log10(np.sum(np.abs(clean) ** 2) / (16 * 640 * sigma_w**2)))
            return real(clean, sigma_w, rng)

        monkeypatch.setattr(harness, "add_noise", recorder)
        for trial in range(20):
            harness.run_trial(spec, trial)
        assert abs(np.median(snr_db) - 40.0) <= 1.0


class TestAggregatePercentile:
    def test_single_value(self):
        assert harness.aggregate_percentile([0.1], 95) == 0.1

    def test_hundred_values(self):
        values = [i / 100 for i in range(1, 101)]
        assert harness.aggregate_percentile(values, 95) == 0.95

    def test_median_of_four(self):
        assert harness.aggregate_percentile([0.2, 0.4, 0.6, 0.8], 50) == 0.4

    def test_unsorted_input(self):
        assert harness.aggregate_percentile([0.8, 0.2, 0.6, 0.4], 50) == 0.4

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            harness.aggregate_percentile([], 95)

    def test_rank_is_exact_on_the_decimal_percentile(self):
        # float p / 100 * n lands above an integer rank for 141 such (p, n),
        # 0.07 * 100 among them, and would pick the next value up
        for n in range(1, 1001):
            values = range(1, n + 1)
            for p in range(1, 101):
                rank = max(math.ceil(Fraction(p * n, 100)), 1)
                assert harness.aggregate_percentile(values, p) == rank, (p, n)

    def test_bad_percentile_rejected(self):
        with pytest.raises(InputError):
            harness.aggregate_percentile([0.1], 0)


class TestRunPoint:
    def test_thread_count_does_not_change_results(self):
        spec = small_spec(trials=4)
        serial = harness.run_point(spec, threads=1)
        threaded = harness.run_point(spec, threads=3)
        assert serial.errors == threaded.errors
        assert serial.degenerate == threaded.degenerate

    def test_point_result_aggregates(self):
        point = harness.run_point(small_spec(trials=5))
        for method in ("cc", "sccc"):
            errs = point.errors[method]
            assert len(errs) == 5
            assert point.median(method) == np.median(errs)
            assert point.percentile(method) == harness.aggregate_percentile(errs, 95)

    @staticmethod
    def record_forks(monkeypatch):
        """One entry per worker process run_point forks, in order."""
        forks = []
        fork = os.fork

        def recording():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", recording)
        return forks

    @pytest.mark.parametrize("threads", [0, -2])
    def test_auto_threads_mean_one_worker_per_cpu(self, monkeypatch, threads):
        forks = self.record_forks(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        harness.run_point(small_spec(trials=4), threads=threads)
        assert len(forks) == 2  # three processes: this one and two forked workers
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: run serially
        harness.run_point(small_spec(trials=4), threads=threads)
        assert len(forks) == 2

    def test_no_more_workers_than_trials(self, monkeypatch):
        forks = self.record_forks(monkeypatch)
        spec = small_spec(trials=2)
        assert harness.run_point(spec, threads=4).errors == harness.run_point(spec).errors
        assert len(forks) == 1

    def test_one_trial_opens_no_pool(self, monkeypatch):
        forks = self.record_forks(monkeypatch)
        harness.run_point(small_spec(trials=1), threads=4)
        assert forks == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_trials_see_the_callers_warning_filters(self, monkeypatch, tmp_path, threads):
        # worker processes report one line per call through a file
        record = tmp_path / "filters.txt"
        solve = harness.solve_subspace_cross_conv

        def recording(*args):
            with open(record, "a") as fh:
                fh.write(repr(warnings.filters) + "\n")
            return solve(*args)

        monkeypatch.setattr(harness, "solve_subspace_cross_conv", recording)
        before = list(warnings.filters)
        harness.run_point(small_spec(l_over_k=2, trials=4), threads=threads)
        seen = record.read_text().splitlines()
        assert len(seen) == 4
        assert all(filters == repr(before) for filters in seen)
        assert warnings.filters == before

    def test_workers_are_forked_once_and_reused(self, monkeypatch, tmp_path):
        forks = self.record_forks(monkeypatch)
        spec = small_spec(trials=4, sweep=harness.Sweep(param="l-over-k", values=(4, 5, 6)))
        for threads in (1, 2):
            harness.write_csv(harness.run_experiment(spec, threads=threads), tmp_path / f"t{threads}.csv")
        assert len(forks) == 1  # one worker serves all three cells
        assert (tmp_path / "t2.csv").read_bytes() == (tmp_path / "t1.csv").read_bytes()
        point = small_spec(trials=5)
        warm = [harness.run_point(point, threads=threads) for threads in (2, 3, 2)]
        assert len(forks) == 2  # raising threads to 3 forks one more; lowering it forks none
        serial = harness.run_point(point)
        assert all((r.errors, r.degenerate) == (serial.errors, serial.degenerate) for r in warm)

    def test_workers_take_the_callers_filters_with_each_call(self, monkeypatch, tmp_path):
        class LocalWarning(UserWarning):  # a category pickle cannot name
            pass

        forks = self.record_forks(monkeypatch)
        record = tmp_path / "filters.txt"
        solve = harness.solve_subspace_cross_conv

        def recording(*args):
            with open(record, "a") as fh:
                fh.write(repr(warnings.filters) + "\n")
            return solve(*args)

        monkeypatch.setattr(harness, "solve_subspace_cross_conv", recording)
        spec = small_spec(l_over_k=2, trials=2)
        seen = []
        with warnings.catch_warnings():
            for category in (DeprecationWarning, DeprecationWarning, UserWarning, LocalWarning):
                warnings.simplefilter("ignore", category)
                harness.run_point(spec, threads=2)
                seen.append(repr(warnings.filters))
        # trial 0 runs in this process, trial 1 in the worker, at each call
        assert record.read_text().splitlines() == [filters for filters in seen for _ in range(2)]
        assert len(forks) == 3  # a call under unchanged filters forks none
        assert len(harness._WORKERS) == 1

    def test_pool_without_fork_is_refused_before_any_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(harness, "run_trial", no_trials)
        with pytest.raises(ConfigurationError, match="has no os.fork"):
            harness.run_point(small_spec(trials=2), threads=2)

    def test_automatic_thread_count_is_one_without_fork(self, monkeypatch):
        spec = small_spec(trials=2)
        serial = harness.run_point(spec, threads=1)
        monkeypatch.delattr(os, "fork")
        assert harness.run_point(spec, threads=0).errors == serial.errors

    @pytest.mark.parametrize("dim,sweep", [
        (2, harness.Sweep("d", (1, 2))),
        (9, harness.Sweep("d", (1, 2))),
        (2, harness.Grid(d_over_k=(0.25,), l_over_k=(4,))),
    ])
    def test_sweep_or_grid_is_refused_before_any_trial(self, monkeypatch, dim, sweep):
        # run_point runs one point: a sweep is neither dropped for its base
        # point nor checked at a base dimension no cell runs
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        spec = harness.ExperimentSpec(8, 3, dim, sweep=sweep)
        with pytest.raises(ConfigurationError, match="point spec, got shape .*run_experiment"):
            harness.run_point(spec)

    def test_pooled_run_leaves_warning_filters_alone(self):
        # short windows (L = 2K), the regime sweeps probe on purpose, must
        # leave no trace in the process-wide warning filters
        spec = small_spec(filter_len=32, n_channels=4, subspace_dim=8, l_over_k=2, trials=40)
        before = list(warnings.filters)
        for seed in range(3):
            harness.run_point(replace(spec, seed=seed), threads=2)
            assert warnings.filters == before


def assert_no_child_left():
    """No child of this process is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pooled_point_script(threads):
    """A script that runs one pooled point and prints the pids of its workers."""
    return (
        "from blindchan import harness\n"
        "spec = harness.ExperimentSpec(filter_len=8, n_channels=3, subspace_dim=2,\n"
        "    l_over_k=5, snr_db=20.0, trials=4, methods=('cc',), seed=77)\n"
        f"harness.run_point(spec, threads={threads})\n"
        "print(*(pid for pid, _ in harness._WORKERS), flush=True)\n"
    )


def running(pid):
    """Whether /proc lists the process as anything but a zombie (gone counts as not)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            return "\nState:\tZ" not in fh.read()
    except FileNotFoundError:
        return False


class CallerOnly(float):
    """A float whose pickle loads only in the process that made it."""

    def __reduce__(self):
        return (caller_only, (float(self), os.getpid()))


def caller_only(value, pid):
    if os.getpid() != pid:
        raise LookupError("this value loads only in its own process")
    return value


class TestForkedWorkers:
    def test_job_that_does_not_load_in_the_worker_raises_its_error(self):
        spec = replace(small_spec(trials=2), l_over_k=CallerOnly(5))
        with pytest.raises(LookupError, match="^this value loads only in its own process$"):
            harness.run_point(spec, threads=2)
        assert_no_child_left()

    def test_exception_in_a_worker_is_raised_with_its_type_and_message(self, monkeypatch):
        trial = harness.run_trial

        def odd_raises(spec, i):  # at threads=2 the odd trials run in the forked worker
            if i % 2:
                raise InputError(f"trial {i} is odd")
            return trial(spec, i)

        monkeypatch.setattr(harness, "run_trial", odd_raises)
        with pytest.raises(InputError, match="^trial 1 is odd$"):
            harness.run_point(small_spec(trials=4), threads=2)
        assert_no_child_left()

    def test_worker_that_exits_without_a_result_is_named(self, monkeypatch):
        trial = harness.run_trial
        caller = os.getpid()

        def exits_in_worker(spec, i):
            if os.getpid() != caller:
                os._exit(3)
            return trial(spec, i)

        monkeypatch.setattr(harness, "run_trial", exits_in_worker)
        exited = rf"worker 1 exited without a result \(wait status {3 << 8}\)"  # exit status 3
        with pytest.raises(RuntimeError, match=exited):
            harness.run_point(small_spec(trials=4), threads=2)
        assert_no_child_left()

    def test_worker_that_died_while_idle_is_named_at_the_next_point(self):
        spec = small_spec(trials=4)
        harness.run_point(spec, threads=2)
        ((pid, _),) = harness._WORKERS
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, its socket closed, not reaped
        with pytest.raises(RuntimeError, match=r"worker 1 exited without a result \(wait status 9\)"):
            harness.run_point(spec, threads=2)
        assert_no_child_left()
        serial = harness.run_point(spec)
        pooled = harness.run_point(spec, threads=2)
        assert (pooled.errors, pooled.degenerate) == (serial.errors, serial.degenerate)

    def test_worker_killed_holding_an_unread_job_is_named(self, monkeypatch):
        # the job waits unread in the socket pair, so the caller's recv gets
        # ECONNRESET rather than end-of-file
        spec = small_spec(trials=4)
        harness.run_point(spec, threads=2)
        ((pid, _),) = harness._WORKERS
        os.kill(pid, signal.SIGSTOP)
        os.waitid(os.P_PID, pid, os.WSTOPPED | os.WNOWAIT)
        trial = harness.run_trial

        def kills_the_worker(spec, i):
            if i == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            return trial(spec, i)

        monkeypatch.setattr(harness, "run_trial", kills_the_worker)
        with pytest.raises(RuntimeError, match=r"worker 1 exited without a result \(wait status 9\)"):
            harness.run_point(spec, threads=2)
        assert_no_child_left()

    def test_idle_worker_ignores_sigint(self):
        spec = small_spec(trials=4)
        harness.run_point(spec, threads=2)
        pids = [pid for pid, _ in harness._WORKERS]
        os.kill(pids[0], signal.SIGINT)
        time.sleep(0.1)  # let a worker that does not ignore it act on it
        try:
            pooled = harness.run_point(spec, threads=2)
        except KeyboardInterrupt:  # a worker's report of its own interrupt
            pytest.fail("the idle worker took the SIGINT")
        assert [pid for pid, _ in harness._WORKERS] == pids  # nothing forked
        serial = harness.run_point(spec)
        assert (pooled.errors, pooled.degenerate) == (serial.errors, serial.degenerate)

    def test_fork_while_a_thread_waits_on_a_worker_exits_at_once(self, monkeypatch):
        # the forked child closes its copies of the worker connections while
        # the other thread still waits in recv on one; a lock that thread
        # holds would block the child for good
        trial = harness.run_trial
        caller = os.getpid()
        waiting = threading.Event()

        def slow_in_worker(spec, i):
            if os.getpid() != caller:
                time.sleep(2)
            elif i == spec.trials - 2:  # the caller's last trial at threads=2
                waiting.set()
            return trial(spec, i)

        spec = small_spec(trials=4)
        serial = harness.run_point(spec)
        monkeypatch.setattr(harness, "run_trial", slow_in_worker)
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(harness.run_point, spec, threads=2)
            assert waiting.wait(timeout=60)
            time.sleep(0.2)  # the thread is now in recv
            pid = os.fork()
            if pid == 0:
                os._exit(0 if not harness._WORKERS else 1)
            deadline = time.monotonic() + 10
            while not (exited := os.waitpid(pid, os.WNOHANG))[0]:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child hung")
                time.sleep(0.01)
            assert exited[1] == 0  # the child started with no workers
            pooled = future.result(timeout=60)
        assert (pooled.errors, pooled.degenerate) == (serial.errors, serial.degenerate)

    def test_interrupt_in_the_caller_kills_and_reaps_the_workers(self, monkeypatch):
        caller = os.getpid()

        def interrupted(spec, i):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(harness, "run_trial", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            harness.run_point(small_spec(trials=6), threads=3)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_failed_fork_closes_its_pipe_and_reaps_the_started_worker(self, monkeypatch):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to list open descriptors")
        fork = os.fork
        forks = []

        def fails_second():  # the process limit is hit at the second worker
            forks.append(None)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", fails_second)
        open_before = set(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError) as excinfo:
            harness.run_point(small_spec(trials=6), threads=3)
        assert excinfo.value.errno == errno.EAGAIN
        assert len(forks) == 2
        assert_no_child_left()
        assert set(os.listdir("/proc/self/fd")) == open_before

    def test_forked_child_forgets_the_workers_and_closes_their_pipes(self):
        harness.run_point(small_spec(trials=3), threads=3)
        ends = [conn.fileno() for _, conn in harness._WORKERS]
        assert len(ends) == 2
        pid = os.fork()
        if pid == 0:
            closed = 0
            for fd in ends:
                try:
                    os.fstat(fd)
                except OSError:
                    closed += 1
            os._exit(0 if closed == len(ends) and not harness._WORKERS else 1)
        assert os.waitpid(pid, 0)[1] == 0
        assert [conn.fileno() for _, conn in harness._WORKERS] == ends

    def test_trial_in_a_worker_can_run_a_pooled_point(self, monkeypatch, tmp_path):
        trial = harness.run_trial
        caller = os.getpid()
        inner = small_spec(trials=2, seed=5)
        expected = harness.run_point(inner).errors
        record = tmp_path / "nested.txt"

        def nested(spec, i):
            if spec.seed != inner.seed and os.getpid() != caller:
                assert harness.run_point(inner, threads=2).errors == expected
                record.write_text(" ".join(str(pid) for pid, _ in harness._WORKERS))
            return trial(spec, i)

        monkeypatch.setattr(harness, "run_trial", nested)
        spec = small_spec(trials=4)
        assert harness.run_point(spec, threads=2).errors == harness.run_point(spec).errors
        (grandchild,) = record.read_text().split()
        harness._close_workers()
        assert_no_child_left()
        if os.path.isdir("/proc/self"):  # the worker reaped its own worker before it exited
            assert not os.path.exists(f"/proc/{grandchild}")

    def test_pooled_call_from_the_callers_own_share_runs_serially(self, monkeypatch):
        trial = harness.run_trial
        caller = os.getpid()
        inner = small_spec(trials=4, seed=5)
        expected = harness.run_point(inner).errors

        def nested(spec, i):
            if spec.seed != inner.seed and os.getpid() == caller:
                assert harness.run_point(inner, threads=2).errors == expected
            return trial(spec, i)

        monkeypatch.setattr(harness, "run_trial", nested)
        spec = small_spec(trials=4)
        assert harness.run_point(spec, threads=2).errors == harness.run_point(spec).errors
        assert len(harness._WORKERS) == 1

    def test_pooled_points_of_several_threads_keep_their_results(self):
        # more threads than cores, switching often: two points sharing the
        # workers at once would swap or lose a share's outcomes
        specs = [small_spec(trials=4, seed=seed) for seed in range(12)]
        serial = [harness.run_point(spec).errors for spec in specs]
        harness.run_point(specs[0], threads=2)  # fork the worker before any thread starts
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(harness.run_point, spec, threads=2) for spec in specs]
                pooled = [future.result(timeout=60).errors for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial

    def test_workers_are_reaped_when_the_caller_exits(self):
        if not os.path.isdir("/proc/self"):
            pytest.skip("no /proc to look processes up")
        result = run_isolated(pooled_point_script(threads=3))
        assert result.returncode == 0, result.stderr
        pids = result.stdout.split()
        assert len(pids) == 2
        assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]

    def test_worker_exits_when_its_caller_dies_without_cleaning_up(self):
        if not os.path.isdir("/proc/self"):
            pytest.skip("no /proc to look processes up")
        result = run_isolated(pooled_point_script(threads=2) + "import os; os._exit(0)  # no atexit\n")
        assert result.returncode == 0, result.stderr
        (pid,) = result.stdout.split()
        deadline = time.monotonic() + 10
        while running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not running(pid)

    def test_worker_never_flushes_the_callers_buffered_stdout(self):
        result = run_isolated(
            "from blindchan import harness\n"
            "print('before the trials')\n"
            "spec = harness.ExperimentSpec(filter_len=8, n_channels=3, subspace_dim=2,\n"
            "    l_over_k=5, snr_db=20.0, trials=4, methods=('cc',), seed=77)\n"
            "harness.run_point(spec, threads=2)\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["before the trials"]

    def test_importing_harness_loads_no_process_pool(self):
        result = run_isolated(
            "import blindchan.harness\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestRunSweep:
    def test_rows_per_value_and_method(self):
        spec = small_spec(trials=2, sweep=harness.Sweep(param="l-over-k", values=(4, 6)))
        result = harness.run_experiment(spec)
        assert len(result.rows) == 2 * 2
        assert {r["value"] for r in result.rows} == {4, 6}
        assert all(r["sweep_param"] == "l-over-k" for r in result.rows)

    @pytest.mark.parametrize("param,values", [("d", (2, 3)), ("l-over-k", (5, 6)), ("snr-db", (20,))])
    def test_numpy_sweep_values_write_like_plain_ones(self, tmp_path, param, values):
        plain = small_spec(trials=2, sweep=harness.Sweep(param, values))
        twin = replace(plain, sweep=harness.Sweep(param, tuple(map(np.int64, values))))
        results = [harness.run_experiment(spec) for spec in (plain, twin)]
        for name, result in zip(("plain.csv", "twin.csv"), results):
            harness.write_csv(result, tmp_path / name)
        assert (tmp_path / "twin.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert harness.result_to_json(results[1]) == harness.result_to_json(results[0])
        assert f"{param},{values[0]},cc," in (tmp_path / "twin.csv").read_text()

    def test_sweep_patches_parameter(self, monkeypatch):
        cells = []
        run_point = harness.run_point
        monkeypatch.setattr(
            harness, "run_point", lambda spec, threads: cells.append(spec) or run_point(spec, threads)
        )
        spec = small_spec(trials=2, sweep=harness.Sweep(param="m", values=(2, 4)))
        harness.run_experiment(spec)
        assert [cell.n_channels for cell in cells] == [2, 4]

    def test_shape_mismatch_rejected(self, tmp_path, monkeypatch):
        # run_experiment runs any shape; the sweep command refuses a point spec
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        config = tmp_path / "point.json"
        config.write_text(json.dumps(harness.spec_to_dict(small_spec())))
        out = tmp_path / "sweep.csv"
        args = cli.build_parser().parse_args(
            ["sweep", "--config", str(config), "--out", str(out)]
        )
        with pytest.raises(ConfigurationError, match="expected a sweep spec, got shape 'point'"):
            cli.cmd_run(args)
        assert not out.exists()

    def test_csv_format(self, tmp_path):
        spec = small_spec(trials=2, sweep=harness.Sweep(param="d", values=(2, 3)))
        result = harness.run_experiment(spec)
        path = tmp_path / "sweep.csv"
        harness.write_csv(result, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "sweep_param,value,method,p95,median,mean,trials,degenerate"
        assert len(lines) == 1 + len(result.rows)
        assert text.endswith("\n")
        assert "," not in text.replace(",", "", text.count(","))  # no stray separators

    def test_json_mirror_embeds_spec(self):
        spec = small_spec(trials=2, sweep=harness.Sweep(param="d", values=(2,)))
        result = harness.run_experiment(spec)
        payload = json.loads(harness.result_to_json(result))
        assert payload["spec"] == harness.spec_to_dict(spec)
        assert payload["provenance"] == result.provenance
        assert len(payload["rows"]) == len(result.rows)


@pytest.mark.parametrize("sweep", [
    pytest.param(None, id="point"),
    pytest.param(harness.Sweep(param="d", values=(2, 3)), id="sweep"),
    pytest.param(harness.Grid(d_over_k=(0.25,), l_over_k=(4, 5)), id="grid"),
])
def test_json_rows_mirror_csv(tmp_path, sweep):
    result = harness.run_experiment(small_spec(trials=3, sweep=sweep))
    path = tmp_path / "out.csv"
    harness.write_csv(result, path)
    header, *lines = path.read_text().splitlines()
    rows = json.loads(harness.result_to_json(result))["rows"]
    assert len(rows) == len(lines)
    for row, line in zip(rows, lines):
        assert ",".join(row) == header
        assert ",".join(harness._fmt(value) for value in row.values()) == line
    if sweep is None:  # one row per (trial, method)
        assert [(r["trial"], r["method"]) for r in rows] == [
            (i, m) for m in ("cc", "sccc") for i in range(3)
        ]


class TestPhaseGrid:
    def test_cell_count(self):
        spec = small_spec(
            filter_len=8, trials=2,
            sweep=harness.Grid(d_over_k=(0.25, 0.5), l_over_k=(3, 5, 7)),
            methods=("sccc",),
        )
        result = harness.run_experiment(spec)
        assert len(result.rows) == 2 * 3

    def test_oracle_has_no_dimension_wall(self):
        # non-blind recovery stays accurate across D/K as long as L >= D
        spec = harness.ExperimentSpec(
            filter_len=16, n_channels=4, subspace_dim=2, l_over_k=5, snr_db=20.0,
            trials=10, methods=("oracle",), seed=5,
            sweep=harness.Grid(d_over_k=(0.25, 0.8), l_over_k=(2, 5)),
        )
        result = harness.run_experiment(spec)
        for row in result.rows:
            assert row["log10_p95"] < -0.8

    def test_sccc_dimension_wall(self):
        # unlike the oracle, blind recovery has a D/K wall: the high-ratio
        # cells sit an order of magnitude above the low-ratio ones, reaching
        # outright failure (log error > -1) at short observation windows
        spec = harness.ExperimentSpec(
            filter_len=20, n_channels=4, subspace_dim=2, l_over_k=5, snr_db=20.0,
            trials=20, methods=("sccc",), seed=5,
            sweep=harness.Grid(d_over_k=(0.1, 0.9), l_over_k=(2, 5)),
        )
        result = harness.run_experiment(spec)
        cells = {(r["d_over_k"], r["l_over_k"]): r["log10_p95"] for r in result.rows}
        assert cells[(0.9, 5.0)] >= cells[(0.1, 5.0)] + 0.5
        assert cells[(0.9, 2.0)] > -1

    def test_phase_csv_format(self, tmp_path):
        spec = small_spec(
            trials=2, methods=("sccc",),
            sweep=harness.Grid(d_over_k=(0.25,), l_over_k=(4,)),
        )
        result = harness.run_experiment(spec)
        path = tmp_path / "phase.csv"
        harness.write_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "d_over_k,l_over_k,method,log10_p95"
        assert len(lines) == 2


def test_trials_csv_lists_every_trial(tmp_path):
    result = harness.run_experiment(small_spec(trials=3))
    path = tmp_path / "trials.csv"
    harness.write_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,method,error,degenerate"
    assert len(lines) == 1 + 3 * 2
