import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blindchan import blas, checks, cli, harness, xcorr
from blindchan.cli import main

REPRODUCE = Path(__file__).resolve().parent.parent / "reproduce"


def no_work(*args):
    raise AssertionError("a trial or eigensolve ran")


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "k": 8, "m": 3, "d": 2, "l-over-k": 5, "snr-db": 20, "trials": 3,
        "methods": ["cc", "sccc"], "seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestGapCommand:
    def test_spectrum_file_unconstrained(self, tmp_path, capsys):
        cfg = tmp_path / "gap.json"
        cfg.write_text(json.dumps({"k": 16, "m": 3, "l-over-k": 4, "seed": 3}))
        out = tmp_path / "spectrum.txt"
        assert main(["gap", "--config", str(cfg), "--out", str(out)]) == 0
        values = [float(v) for v in out.read_text().splitlines()]
        assert len(values) == 16 * 3
        assert values[0] == pytest.approx(1.0)
        assert values[-1] <= 1e-10
        assert "unconstrained gap_ratio" in capsys.readouterr().out

    def test_spectrum_file_with_subspace(self, tmp_path, capsys):
        cfg = tmp_path / "gap.json"
        cfg.write_text(json.dumps({"k": 64, "m": 4, "d": 8, "l-over-k": 4, "seed": 3}))
        out = tmp_path / "spectrum.txt"
        assert main(["gap", "--config", str(cfg), "--out", str(out)]) == 0
        values = [float(v) for v in out.read_text().splitlines()]
        assert len(values) == 4 * 8
        assert values[-2] >= 0.05  # second-smallest normalized eigenvalue
        printed = capsys.readouterr().out
        assert "subspace-constrained gap_ratio" in printed

    def test_shipped_gap_config_parses(self, tmp_path):
        # rebuild the shipped instance: the dump is LAPACK's eigvalsh spectrum
        # of the shared compressed Gram, formatted byte for byte, and it stays
        # pinned to the time-domain block congruence of the full Gram
        from blindchan.models import (
            RngStreams, gen_channels_in_subspace, gen_gaussian_subspace, gen_source,
        )
        from blindchan.sigops import convolve_short

        out = tmp_path / "spectrum.txt"
        code = main(["gap", "--config", str(REPRODUCE / "spectral_gap.json"),
                     "--out", str(out)])
        assert code == 0
        cfg = json.loads((REPRODUCE / "spectral_gap.json").read_text())
        K, M, D = cfg["k"], cfg["m"], cfg["d"]
        streams = RngStreams(cfg["seed"])
        x = gen_source("gaussian", cfg["l-over-k"] * K, streams.stream("source"))
        bases = gen_gaussian_subspace(K, D, M, streams.stream("basis"))
        _, filters = gen_channels_in_subspace(bases, streams.stream("subspace-channels"))
        ys = convolve_short(x, filters)

        def normalized_spectrum(a):
            w = np.linalg.eigvalsh((a + a.conj().T) / 2)[::-1]
            return w / w[0]

        w = normalized_spectrum(xcorr.compressed_cross_corr(ys, bases))
        expected = "".join(format(float(v), ".12g") + "\n" for v in w)
        assert out.read_bytes() == expected.encode()
        phi = checks.block_diag(bases)
        congruence = phi.conj().T @ xcorr.cross_corr_matrix(ys, K) @ phi
        np.testing.assert_allclose(w, normalized_spectrum(congruence), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("config,key", [
        ({"k": 8, "m": 3, "dd": 2, "seed": 1}, "'dd'"),
        ({"k": "eight", "m": 3}, "'k'"),
        ({"k": 8, "m": 3, "d": "two"}, "'d'"),
        ({"m": 3, "d": 2}, "'k'"),
        ({"k": 8, "m": 3, "d": 20}, "d=20"),
        ({"k": 8, "m": 1}, "m=1"),
        ({"k": 8, "m": 3, "l-over-k": 0.5}, "l-over-k"),
        ({"k": 0, "m": 3}, "k=0"),
        ({"k": 8.5, "m": 3}, "'k'"),
        ({"k": 8, "m": True}, "'m'"),
        ({"k": 8, "m": 3, "l-over-k": float("nan")}, "'l-over-k'"),
        ({"k": 8, "m": 3, "l-over-k": float("inf")}, "'l-over-k'"),
        ({"k": 8, "m": 3, "l-over-k": True}, "'l-over-k'"),
        ({"k": 8, "m": 3, "l-over-k": 1e308}, "'l-over-k'"),
        ({"k": 8, "m": 3, "l-over-k": 1e9}, "'l-over-k'"),
        ({"k": 8, "m": "3"}, "'m'"),
        ({"k": 8, "m": 3, "d": "2"}, "'d'"),
        ({"k": 8, "m": 3, "l-over-k": "4"}, "'l-over-k'"),
        ({"k": 8, "m": 3, "seed": "1"}, "'seed'"),
        ({"k": 8, "m": 3, "seed": -2}, "'seed'"),
        ({"k": 2**25, "m": 3, "l-over-k": 1}, "'k'"),
        ({"k": 1e308, "m": 3}, "'k'"),
    ])
    def test_bad_gap_config_exits_nonzero_before_writing(self, tmp_path, capsys,
                                                          config, key):
        cfg = tmp_path / "gap.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "spectrum.txt"
        assert main(["gap", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert "gap_ratio" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--format", "json"], ["--threads", "2"]])
    def test_gap_rejects_run_only_flags(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["gap", "--config", str(REPRODUCE / "spectral_gap.json"),
                  "--out", str(tmp_path / "spectrum.txt"), *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def run_in_subprocess(openblas_threads, *argv):
    """`blindchan *argv` in a fresh interpreter with OPENBLAS_NUM_THREADS set
    to `openblas_threads`, or unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "blindchan.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


class TestRunCommands:
    def test_trial_writes_csv_and_provenance(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "trials.csv"
        assert main(["trial", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,method,error,degenerate"
        assert len(lines) == 1 + 3 * 2
        sidecar = json.loads((tmp_path / "trials.csv.provenance.json").read_text())
        assert sidecar["spec"]["seed"] == 11

    @pytest.mark.parametrize("library", ["bundled", "missing"])
    def test_sidecar_records_blas_threads(self, tmp_path, monkeypatch, library):
        if library == "missing":
            monkeypatch.setattr(blas, "LIB", None)
        elif blas.LIB is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        out = tmp_path / "trials.csv"
        assert main(["trial", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "trials.csv.provenance.json").read_text())
        assert sidecar["blas_threads"] == (1 if library == "bundled" else "uncontrolled")

    def test_seed_override_wins(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["trial", "--config", str(cfg), "--out", str(out_a), "--seed", "99"])
        sidecar = json.loads((tmp_path / "a.csv.provenance.json").read_text())
        assert sidecar["spec"]["seed"] == 99
        main(["trial", "--config", str(cfg), "--out", str(out_b)])
        assert out_a.read_text() != out_b.read_text()

    def test_sweep_csv(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"param": "d", "values": [2, 3]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_param,value,method,p95,median,mean,trials,degenerate"
        assert len(lines) == 1 + 2 * 2

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"param": "d", "values": [2]})
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["spec"]["k"] == 8

    def test_phase_csv(self, tmp_path):
        cfg = write_config(
            tmp_path, methods=["sccc"],
            sweep={"d-over-k": [0.25], "l-over-k": [4, 5]},
        )
        out = tmp_path / "phase.csv"
        assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d_over_k,l_over_k,method,log10_p95"
        assert len(lines) == 3

    def test_shape_mismatch_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        sweep = {"param": "d", "values": [2]}
        grid = {"d-over-k": [0.25], "l-over-k": [4]}
        for command, config, wanted, shape in [
            ("sweep", write_config(tmp_path, "point.json"), "sweep", "point"),
            ("phase", write_config(tmp_path, "sweep.json", sweep=sweep), "grid", "sweep"),
            ("trial", write_config(tmp_path, "grid.json", sweep=grid), "point", "grid"),
        ]:
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(config), "--out", str(out)]) == 2
            assert f"expected a {wanted} spec, got shape '{shape}'" in capsys.readouterr().err
            assert not out.exists()

    def test_misspelled_key_exits_nonzero_before_running(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trails=5)
        out = tmp_path / "trials.csv"
        assert main(["trial", "--config", str(cfg), "--out", str(out)]) == 2
        assert "'trails'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("l-over-k", float("nan")),
        ("l-over-k", True),
        ("snr-db", float("-inf")),
        ("percentile", True),
        ("l-over-k", 1e308),
        ("k", "8"),
        ("l-over-k", "20"),
        ("percentile", "95"),
        ("seed", " 7 "),
        ("seed", -1),
        ("snr-db", 301),
        ("snr-db", -2900),
        ("k", 2**25),
    ])
    def test_nonfinite_or_boolean_number_exits_nonzero_before_running(
            self, tmp_path, capsys, monkeypatch, key, value):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        cfg = write_config(tmp_path, **{key: value})
        out = tmp_path / "trials.csv"
        assert main(["trial", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exits_nonzero_before_running(self, tmp_path, capsys,
                                                             monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        cfg = write_config(tmp_path)
        out = tmp_path / "trials.csv"
        assert main(["trial", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        assert "'seed'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_extreme_snr_sweep_exits_nonzero_before_running(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        cfg = write_config(tmp_path, sweep={"param": "snr-db", "values": [10, 4000]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "bad snr-db sweep value 4000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_bad_grid_ratio_exits_nonzero_before_running(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        cfg = write_config(tmp_path, sweep={"d-over-k": [1e308], "l-over-k": [4]})
        out = tmp_path / "phase.csv"
        assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 2
        assert "sweep cell (1e+308, 4): need 1 <= d <= k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,overrides,named", [
        ("sweep", {"basis": "pca", "methods": ["sccc"], "sweep": {"param": "d", "values": [4, 8]}},
         "sweep cell 8: basis 'pca' needs d < k"),
        ("trial", {"basis": "pca", "d": 8}, "basis 'pca' needs d < k"),
        ("phase", {"basis": "pca", "sweep": {"d-over-k": [0.5, 1], "l-over-k": [4]}},
         "sweep cell (1, 4): basis 'pca' needs d < k"),
        ("trial", {"k": 1, "m": 2, "d": 1, "l-over-k": 1, "methods": ["ls"]}, "raise l-over-k"),
        ("trial", {"methods": ["cc", "cc"]}, "key 'methods' lists 'cc' more than once"),
    ])
    def test_cell_that_cannot_run_exits_nonzero_before_running(
            self, tmp_path, capsys, monkeypatch, command, overrides, named):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 2
        assert named in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_threads_means_auto(self, tmp_path, monkeypatch, value):
        forks = []
        fork = os.fork

        def recording():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        cfg = write_config(tmp_path)
        assert main(["trial", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
                     "--threads", value]) == 0
        assert len(forks) == 2  # three processes: this one and two forked workers

    def test_missing_config_exits_nonzero(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["trial", "--config", str(tmp_path / "no.json"),
                     "--out", str(out)]) == 2

    @pytest.mark.parametrize("command", ["gap", "trial"])
    def test_unreadable_config_exits_nonzero_naming_it(self, tmp_path, capsys, monkeypatch,
                                                       command):
        monkeypatch.setattr(harness, "run_trial", no_work)
        monkeypatch.setattr(cli, "eig_hermitian", no_work)
        folder = tmp_path / "configs"
        folder.mkdir()
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(folder), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {folder}: cannot read config")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gap", "trial", "sweep", "phase"])
    def test_missing_out_directory_exits_nonzero_before_running(
            self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(harness, "run_trial", no_work)
        monkeypatch.setattr(cli, "eig_hermitian", no_work)
        configs = {
            "gap": {"k": 8, "m": 3, "d": 2},
            "trial": {},
            "sweep": {"sweep": {"param": "d", "values": [2]}},
            "phase": {"sweep": {"d-over-k": [0.25], "l-over-k": [4]}},
        }
        if command == "gap":
            cfg = tmp_path / "gap.json"
            cfg.write_text(json.dumps(configs["gap"]))
        else:
            cfg = write_config(tmp_path, **configs[command])
        for out in (tmp_path / "missing" / "out.csv", tmp_path):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            assert f"--out {out}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_outputs_end_with_newline_and_use_dot_decimals(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"param": "d", "values": [2]})
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        text = out.read_text()
        assert text.endswith("\n")
        body = "\n".join(text.splitlines()[1:])
        assert "." in body

    @pytest.mark.skipif(blas.LIB is None, reason="numpy bundles no scipy-openblas here")
    def test_blas_thread_count_does_not_change_bytes(self, tmp_path):
        # unpinned, trial 2's ls error reads 0.99817462211 at one OpenBLAS
        # thread and 0.998174622109 at two
        cfg = write_config(
            tmp_path, k=32, m=8, d=6, basis="pca", methods=["cc", "ls"], trials=4,
            seed=1111, **{"l-over-k": 10, "snr-db": 40},
        )
        trials, gaps = set(), set()
        for setting in (None, "1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"trials-{setting}-{threads}.csv"
                run_in_subprocess(setting, "trial", "--config", str(cfg), "--out", str(out),
                                  "--threads", threads)
                trials.add(out.read_bytes())
            out = tmp_path / f"gap-{setting}.txt"
            run_in_subprocess(setting, "gap", "--config", str(REPRODUCE / "spectral_gap.json"),
                              "--out", str(out))
            gaps.add(out.read_bytes())
        assert len(trials) == 1
        assert len(gaps) == 1

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, trials=4)
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        main(["trial", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        main(["trial", "--config", str(cfg), "--out", str(out2), "--threads", "4"])
        assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", ["gap", "trial", "sweep", "phase"])
@pytest.mark.parametrize("text,reason", [
    ('{"k": 8, "m": 3', "not valid JSON"),
    ("[8, 3]", "expected a JSON object, got list"),
])
def test_malformed_config_file_exits_nonzero(tmp_path, capsys, command, text, reason):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "out.txt"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {reason}")
    assert not out.exists()


class TestCheckCommand:
    def test_fast_suite_green(self, capsys):
        assert main(["check", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS conv_fft_vs_naive" in out
        assert "FAIL" not in out

    def test_full_suite_green(self, capsys):
        # the Monte Carlo expectation identities and the SNR formula check
        assert main(["check", "--level", "full"]) == 0
        out = capsys.readouterr().out
        assert "PASS snr_empirical_vs_formula" in out
        assert "FAIL" not in out

    def test_injected_sign_flip_is_caught(self, monkeypatch, rng):
        # mutation test: corrupt the fast path's off-diagonal sign and the
        # explicit-constraint oracle check must fail
        original = xcorr.cross_corr_matrix

        def flipped(ys, filter_len):
            broken = original(ys, filter_len)
            K = filter_len
            broken[:K, K : 2 * K] *= -1
            broken[K : 2 * K, :K] *= -1
            return broken

        monkeypatch.setattr(xcorr, "cross_corr_matrix", flipped)
        ok, _ = checks.check_xcorr_fast_vs_explicit(rng)
        assert not ok

    def test_injected_compression_flip_is_caught(self, monkeypatch, rng):
        # mutation test: corrupt the sign of the compressed Gram's first
        # off-diagonal block pair and its explicit oracle check must fail
        original = xcorr.compressed_cross_corr

        def flipped(ys, bases):
            out = original(ys, bases)
            D = out.shape[0] // len(ys)
            out[:D, D : 2 * D] *= -1
            out[D : 2 * D, :D] *= -1
            return out

        monkeypatch.setattr(xcorr, "compressed_cross_corr", flipped)
        ok, _ = checks.check_compress_vs_explicit(rng)
        assert not ok


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name,shape",
        [
            ("error_vs_dimension.json", "sweep"),
            ("error_vs_length.json", "sweep"),
            ("error_vs_channels.json", "sweep"),
            ("phase_grid.json", "grid"),
            ("pca_snr_sweep.json", "sweep"),
        ],
    )
    def test_config_parses_with_expected_shape(self, name, shape):
        spec = harness.spec_from_dict(json.loads((REPRODUCE / name).read_text()))
        assert spec.shape == shape

    def test_pca_snr_sweep_declares_all_comparison_methods(self):
        spec = harness.spec_from_dict(
            json.loads((REPRODUCE / "pca_snr_sweep.json").read_text())
        )
        assert set(spec.methods) == {"cc", "sccc", "ls"}
        assert spec.basis == "pca"
