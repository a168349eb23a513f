"""Command-line surface: spectrum dumps, Monte Carlo runs, invariant checks.

Subcommands: gap, trial, sweep, phase, check.  Configurations are JSON files
(kebab-case keys, documented in the README); `--seed` overrides the config
file's seed.  The Monte Carlo commands (trial, sweep, phase) also take
`--format` and `--threads`, which sizes the worker pool (0 = auto) without
affecting results, and echo their resolved spec to a `.provenance.json`
sidecar next to the output.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import checks, harness
from .exceptions import BlindchanError
from .models import (
    RngStreams,
    complex_gaussian,
    gen_channels_in_subspace,
    gen_gaussian_subspace,
    gen_source,
)
from .sigops import convolve_short
from .spectral import eig_hermitian
from .xcorr import cross_corr_matrix

THREADS_ENV = "BLINDCHAN_THREADS"


def _resolve_threads(value):
    if value is None:
        value = int(os.environ.get(THREADS_ENV, "0"))
    if value <= 0:
        return os.cpu_count() or 1
    return value


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _write_provenance(out_path, spec):
    sidecar = f"{out_path}.provenance.json"
    payload = {"spec": harness.spec_to_dict(spec), "provenance": harness.spec_hash(spec)}
    with open(sidecar, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_gap(args):
    config = _load_config(args.config)
    filter_len = int(config["k"])
    n_channels = int(config["m"])
    dim = config.get("d")
    l_over_k = float(config.get("l-over-k", 4))
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    signal_len = int(round(l_over_k * filter_len))
    streams = RngStreams(seed)

    x = gen_source("gaussian", signal_len, 1.0, streams.stream("source"))
    h = complex_gaussian(streams.stream("channels"), n_channels, filter_len)
    ys = [convolve_short(x, h[m]) for m in range(n_channels)]
    gram = cross_corr_matrix(ys, filter_len).dense
    eig = eig_hermitian(gram)
    spectrum = eig.eigenvalues / eig.lambda_max
    print(f"unconstrained gap_ratio: {eig.gap_ratio:.6e}")

    if dim is not None:
        dim = int(dim)
        model = gen_gaussian_subspace(filter_len, dim, n_channels, streams.stream("basis"))
        _, channels = gen_channels_in_subspace(model, streams.stream("subspace-channels"))
        ys_sub = [convolve_short(x, channels.filters[m]) for m in range(n_channels)]
        gram_sub = cross_corr_matrix(ys_sub, filter_len).dense
        size = n_channels * dim
        compressed = np.zeros((size, size), dtype=np.complex128)
        for n in range(n_channels):
            for m in range(n_channels):
                blk = (
                    model.bases[n].conj().T
                    @ gram_sub[n * filter_len : (n + 1) * filter_len,
                               m * filter_len : (m + 1) * filter_len]
                    @ model.bases[m]
                )
                compressed[n * dim : (n + 1) * dim, m * dim : (m + 1) * dim] = blk
        eig = eig_hermitian(compressed)
        spectrum = eig.eigenvalues / eig.lambda_max
        print(f"subspace-constrained gap_ratio (d={dim}): {eig.gap_ratio:.6e}")

    with open(args.out, "w", newline="") as fh:
        for value in spectrum:
            fh.write(format(float(value), ".12g") + "\n")
    print(f"wrote {len(spectrum)} normalized eigenvalues to {args.out}")
    return 0


def _run_and_write(args, expected_shape):
    spec = harness.spec_from_dict(_load_config(args.config))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if spec.shape != expected_shape:
        raise BlindchanError(
            f"config has shape {spec.shape!r} but this subcommand expects {expected_shape!r}"
        )
    threads = _resolve_threads(args.threads)
    if expected_shape == "point":
        result = harness.run_point_result(spec, threads=threads)
        csv_writer = harness.write_trials_csv
    elif expected_shape == "sweep":
        result = harness.run_sweep(spec, threads=threads)
        csv_writer = harness.write_sweep_csv
    else:
        result = harness.run_phase_grid(spec, threads=threads)
        csv_writer = harness.write_phase_csv
    if args.format == "json":
        with open(args.out, "w", newline="") as fh:
            fh.write(harness.result_to_json(result))
    else:
        csv_writer(result, args.out)
    _write_provenance(args.out, spec)
    print(f"wrote {args.out} (provenance {result.provenance})")
    return 0


def cmd_trial(args):
    return _run_and_write(args, "point")


def cmd_sweep(args):
    return _run_and_write(args, "sweep")


def cmd_phase(args):
    return _run_and_write(args, "grid")


def cmd_check(args):
    failures = checks.run_checks(level=args.level)
    if failures:
        print(f"{len(failures)} invariant(s) violated: {', '.join(failures)}")
        return 1
    print("all invariants hold")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blindchan",
        description="Multichannel blind deconvolution via spectral methods",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=True, help="output file path")
        return p

    p_gap = add_common(sub.add_parser("gap", help="eigenvalue spectrum of a noiseless instance"))
    p_gap.set_defaults(fn=cmd_gap)
    for name, fn, text in (
        ("trial", cmd_trial, "per-trial errors at one parameter point"),
        ("sweep", cmd_sweep, "1-D parameter sweep"),
        ("phase", cmd_phase, "2-D (D/K, L/K) grid"),
    ):
        p_run = add_common(sub.add_parser(name, help=text))
        p_run.add_argument("--format", choices=("csv", "json"), default="csv")
        p_run.add_argument("--threads", type=int, default=None,
                           help=f"worker threads (0 = auto; env {THREADS_ENV})")
        p_run.set_defaults(fn=fn)

    p_check = sub.add_parser("check", help="run the named invariant suite")
    p_check.add_argument("--level", choices=("fast", "full"), default="fast")
    p_check.set_defaults(fn=cmd_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BlindchanError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
