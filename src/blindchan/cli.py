"""Command-line surface: spectrum dumps, Monte Carlo runs, invariant checks.

Subcommands: gap, trial, sweep, phase, check.  Configurations are JSON files
(kebab-case keys, documented in the README); `--seed` overrides the config
file's seed.  The Monte Carlo commands (trial, sweep, phase) also take
`--format` and `--threads N`, the number of processes that run the trials:
the calling one plus N - 1 forked workers (0 = one per CPU).  It does not
affect results.  These commands echo their resolved spec and the
BLAS thread setting to a `.provenance.json` sidecar next to the output.
Every command runs with OpenBLAS pinned to one thread, so its output does
not depend on OPENBLAS_NUM_THREADS.

On glibc, `main` keeps freed heap memory for the life of its process (and of
forked workers, and of a program calling `main` in-process), so each trial
reuses pages instead of faulting them in afresh; no result changes.  Library
callers get the same from MALLOC_TRIM_THRESHOLD_ and MALLOC_MMAP_THRESHOLD_
set before the process starts.
"""

import argparse
import ctypes
import json
import os
import sys

from . import blas, checks, harness
from .exceptions import BlindchanError, ConfigurationError
from .models import (
    RngStreams,
    complex_gaussian,
    gen_channels_in_subspace,
    gen_gaussian_subspace,
    gen_source,
)
from .sigops import convolve_short
from .spectral import eig_hermitian
from .xcorr import compressed_cross_corr, cross_corr_matrix

def _keep_freed_memory():
    """Have glibc's malloc serve blocks up to 32 MiB (the 64-bit ceiling of its mmap
    threshold) from the heap and never trim the heap top, for the life of this process.
    Nothing happens where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def _load_config(path, seed):
    """The JSON object in `path` with a `--seed` value (unless None) written over its seed,
    so one key table checks both; an unreadable or malformed file raises ConfigurationError."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"{path}: cannot read config: {err.strerror}") from None
    except ValueError as err:
        raise ConfigurationError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(config, dict):
        raise ConfigurationError(f"{path}: expected a JSON object, got {type(config).__name__}")
    if seed is not None:
        config["seed"] = seed
    return config


def _check_out(path):
    """Raise ConfigurationError naming --out unless `path` names a file in an existing folder."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigurationError(f"--out {path}: not a file name in an existing directory")


def _write_provenance(out_path, result):
    sidecar = f"{out_path}.provenance.json"
    payload = {
        "spec": harness.spec_to_dict(result.spec),
        "provenance": result.provenance,
        "blas_threads": blas.thread_setting(),
    }
    with open(sidecar, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _optional_int(value):
    return None if value is None else harness.parse_int(value)


#: gap config key -> (field, parser, default or REQUIRED), parsed like a spec.
_GAP_FIELDS = {
    "k": ("filter_len", harness.parse_int, harness.REQUIRED),
    "m": ("n_channels", harness.parse_int, harness.REQUIRED),
    "d": ("dim", _optional_int, None),
    "l-over-k": ("l_over_k", harness.parse_float, 4),
    "seed": ("seed", harness.parse_seed, 0),
}


def cmd_gap(args):
    config = harness.parse_keys(_load_config(args.config, args.seed), _GAP_FIELDS, "gap config")
    K, M, D = config["filter_len"], config["n_channels"], config["dim"]
    L = harness.signal_len(config["l_over_k"], K)
    harness.check_dimensions(K, M, D, L)
    _check_out(args.out)
    streams = RngStreams(config["seed"])

    x = gen_source("gaussian", L, streams.stream("source"))
    h = complex_gaussian(streams.stream("channels"), M, K)
    eig = eig_hermitian(cross_corr_matrix(convolve_short(x, h), K))
    print(f"unconstrained gap_ratio: {eig.gap_ratio:.6e}")

    if D is not None:
        bases = gen_gaussian_subspace(K, D, M, streams.stream("basis"))
        _, filters = gen_channels_in_subspace(bases, streams.stream("subspace-channels"))
        eig = eig_hermitian(compressed_cross_corr(convolve_short(x, filters), bases))
        print(f"subspace-constrained gap_ratio (d={D}): {eig.gap_ratio:.6e}")

    spectrum = eig.eigenvalues / eig.lambda_max
    with open(args.out, "w", newline="") as fh:
        for value in spectrum:
            fh.write(format(float(value), ".12g") + "\n")
    print(f"wrote {len(spectrum)} normalized eigenvalues to {args.out}")
    return 0


#: Each run subcommand's help and the spec shape it runs.
_RUNS = {
    "trial": ("per-trial errors at one parameter point", "point"),
    "sweep": ("1-D parameter sweep", "sweep"),
    "phase": ("2-D (D/K, L/K) grid", "grid"),
}


def cmd_run(args):
    _, shape = _RUNS[args.command]
    spec = harness.spec_from_dict(_load_config(args.config, args.seed))
    if spec.shape != shape:
        raise ConfigurationError(f"expected a {shape} spec, got shape {spec.shape!r}")
    _check_out(args.out)
    result = harness.run_experiment(spec, threads=args.threads)
    if args.format == "json":
        with open(args.out, "w", newline="") as fh:
            fh.write(harness.result_to_json(result))
    else:
        harness.write_csv(result, args.out)
    _write_provenance(args.out, result)
    print(f"wrote {args.out} (provenance {result.provenance})")
    return 0


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
    for name, (text, _) in _RUNS.items():
        p_run = add_common(sub.add_parser(name, help=text))
        p_run.add_argument("--format", choices=("csv", "json"), default="csv")
        p_run.add_argument(
            "--threads", type=int, default=0,
            help="processes running trials: this one plus N - 1 forked workers (0 = one per CPU)",
        )
        p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="run the named invariant suite")
    p_check.add_argument("--level", choices=("fast", "full"), default="fast")
    p_check.set_defaults(fn=cmd_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    _keep_freed_memory()
    try:
        with blas.single_thread():
            return args.fn(args)
    except (BlindchanError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
