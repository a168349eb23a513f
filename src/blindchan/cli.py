"""Command-line surface: spectrum dumps, Monte Carlo runs, invariant checks.

Subcommands: gap, trial, sweep, phase, check.  Configurations are JSON spec
files (kebab-case keys, documented in the README); `--seed` overrides the
config file's seed.  `gap` reads a point spec, runs each method in `methods`
(`cc` or `sccc`) on its trial 0 as a trial would (harness.draw_instance,
harness._SOLVERS) and writes the normalized spectrum of the matrix that
method's estimator solved (Estimate.spectrum).  The Monte Carlo commands
(trial, sweep, phase) also take `--format` and `--threads N`, the number of
processes that run the trials: the calling one plus N - 1 forked workers
(0 = one per CPU).  It does not affect results.  The workers are forked at
the first point and serve every later cell of a sweep or grid (and every
later `main` call of a program that calls it in-process) until the process
exits, when they are reaped; a lone `trial` run forks once.  Every command
that writes an output echoes its resolved spec and the BLAS thread setting
to a `.provenance.json` sidecar next to it.
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
    """Raise ConfigurationError naming --out unless `path` names a file in an existing folder
    that this process may write (and, when the file exists, may overwrite)."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder):
        raise ConfigurationError(f"--out {path}: not a file name in an existing directory")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ConfigurationError(f"--out {path}: no write access")


def _write_provenance(out_path, result):
    sidecar = f"{out_path}.provenance.json"
    payload = {
        "spec": harness.spec_to_dict(result.spec),
        "provenance": result.provenance,
        "blas_threads": blas.thread_setting(),
    }
    with open(sidecar, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write(out_path, result, fmt):
    """The result as `fmt` ("csv" or "json") in out_path, and its provenance sidecar."""
    if fmt == "json":
        with open(out_path, "w", newline="") as fh:
            fh.write(harness.result_to_json(result))
    else:
        harness.write_csv(result, out_path)
    _write_provenance(out_path, result)


def _read_spec(args, shape):
    """The spec in args.config (its seed overridden by --seed), which must have `shape`."""
    spec = harness.spec_from_dict(_load_config(args.config, args.seed))
    if spec.shape != shape:
        raise ConfigurationError(f"expected a {shape} spec, got shape {spec.shape!r}")
    return spec


#: The methods whose estimator eigendecomposes one matrix in full.
_GAP_METHODS = ("cc", "sccc")


def cmd_gap(args):
    spec = _read_spec(args, "point")
    for method in spec.methods:
        if method not in _GAP_METHODS:
            raise ConfigurationError(
                f"gap has no Gram for {method!r} in key 'methods'; "
                f"expected a subset of {_GAP_METHODS}"
            )
    _check_out(args.out)
    instance = harness.draw_instance(spec, 0)
    rows = []
    for method in spec.methods:
        est = harness._SOLVERS[method](instance)
        print(f"{method} gap_ratio: {est.gap_ratio:.6e}")
        rows += [{"method": method, "eigenvalue": float(v)} for v in est.spectrum / est.spectrum[0]]
    _write(args.out, harness.ExperimentResult(spec, harness.spec_hash(spec), tuple(rows)), "csv")
    print(f"wrote {len(rows)} normalized eigenvalues to {args.out}")
    return 0


#: Each run subcommand's help and the spec shape it runs.
_RUNS = {
    "trial": ("per-trial errors at one parameter point", "point"),
    "sweep": ("1-D parameter sweep", "sweep"),
    "phase": ("2-D (D/K, L/K) grid", "grid"),
}


def cmd_run(args):
    spec = _read_spec(args, _RUNS[args.command][1])
    _check_out(args.out)
    result = harness.run_experiment(spec, threads=args.threads)
    _write(args.out, result, args.format)
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

    p_gap = add_common(sub.add_parser("gap", help="eigenvalue spectra of trial 0 of a point spec"))
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
    except (BlindchanError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
