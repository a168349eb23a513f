#!/usr/bin/env python3
"""Seeded trial-throughput benchmark for blindchan.

    python3 benchmarks/run.py --workload pca_dense --seed 0 --seconds 20 --trace 0

Runs one workload of workloads.py through the `blindchan trial` command,
called in this process on generated spec files.  Each batch runs twice: a
serial pass at `--threads 1` and a pool pass at the CLI default
`--threads 0` (os.cpu_count() pool threads).  Batches repeat until
`--seconds` have passed; unmeasured warm-up batches come first.

Every pass is checked: each trial error must be finite and in [0, 1], the
serial and pool trial CSVs and provenance sidecars must be byte-identical
(the determinism contract), batches of the seeds in reference.json must
match it, and workloads with a known method ordering must show it.  A trial
that raises or misses a check counts in `failed`.

`--trace 0` prints the end-to-end metrics: trials/s of the pool and serial
passes (medians over batches), the median run_trial time of the serial pass,
the set-up time of a fresh interpreter (median of starts spread over the
measured batches) and the peak RSS of this process.  `--trace 1` adds a
traced serial pass per batch, with spans around the program's public
functions (spans.py), and prints per-layer self times per trial, exact
per-trial call and work counts, the pool's busy fraction, the output-writing
time and the tracing slowdown.

A human-readable report, with the environment block, comes first; the last
line of stdout is one JSON object {correct, attempted, failed, metrics}.
The full record (and, traced, every span) goes to .bench_out/ at the root
of the checkout.  Exit status: 0 when every check holds, 1 on a correctness
or determinism failure, 2 when the program cannot be imported.
"""

import argparse
import importlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
import spans
from workloads import COMMON_CONFIG, WARM_UP_BATCH, WORKLOADS, spec_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreter starts timed for setup_s after each measured batch, and the fewest
#: timed in a run; one more, untimed, warms the file cache first.
SETUP_STARTS_PER_BATCH = 1
SETUP_STARTS = 9
#: Unmeasured warm-up batches of WARM_UP_TRIALS repeat for WARM_UP_S seconds (at most the
#: measuring time): the first second or so of BLAS-threaded work in a process can run
#: several times slower.
WARM_UP_TRIALS = 2
WARM_UP_S = 2.0

END_TO_END = {
    "trials_per_s": "trials/s",
    "trials_per_s_serial": "trials/s",
    "trial_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "models.basis_ms": "ms",
    "models.instance_ms": "ms",
    "sigops.convolve_short_ms": "ms",
    "sigops.convolve_short.calls": "count",
    "xcorr.cross_corr_matrix_ms": "ms",
    "xcorr.cross_corr_matrix.calls": "count",
    "xcorr.gram_mib": "MiB",
    "spectral.eig_hermitian_ms": "ms",
    "spectral.eig_hermitian.calls": "count",
    "spectral.eig_n3": "count",
    "solvers.sccc_ms": "ms",
    "solvers.sccc_self_ms": "ms",
    "solvers.all_ms": "ms",
    "solvers.all_self_ms": "ms",
    "metrics.sin_angle_ms": "ms",
    "harness.run_trial_ms": "ms",
    "harness.run_trial_self_ms": "ms",
    "harness.pool_busy_frac": "ratio",
    "harness.write_ms": "ms",
    "trace.slowdown": "ratio",
}
SOLVER_LAYERS = ("solvers.cc", "solvers.sccc", "solvers.ls", "solvers.oracle")

SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from blindchan import harness\n"
    "with open(sys.argv[2]) as fh:\n"
    "    harness.spec_from_dict(json.load(fh))\n"
)


class ProgramMissing(Exception):
    pass


def import_program():
    """Import blindchan from this checkout's src/, never from site-packages."""
    if not (SRC / "blindchan" / "__init__.py").is_file():
        raise ProgramMissing(f"no blindchan package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"blindchan.{name}") for name in ("cli", "harness", "solvers")}
    if not Path(modules["harness"].__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"blindchan imported from {modules['harness'].__file__}, not {SRC}")
    return modules


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        blas = {}
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


@dataclass
class Pass:
    """One `blindchan trial` run of one batch, read back from its output files."""

    batch: int
    threads: int
    trials: int
    wall_s: float
    csv: bytes = b""
    sidecar: bytes = b""
    errors: dict = None  # method -> [error per trial]
    degenerate: dict = None  # method -> [0/1 per trial]
    failure: str | None = None  # why the whole pass failed

    def summary(self):
        return reference.summarize(self.errors, self.degenerate, COMMON_CONFIG["percentile"])

    def bad_trials(self):
        """Trials with an error that is not finite or not in [0, 1]."""
        return {
            i
            for values in self.errors.values()
            for i, err in enumerate(values)
            if not (math.isfinite(err) and 0.0 <= err <= 1.0)
        }

    def same_output(self, other):
        return self.csv == other.csv and self.sidecar == other.sidecar


class BatchRunner:
    """Writes each batch's spec and runs it through the CLI in a scratch directory."""

    def __init__(self, program, workload, seed):
        self.program = program
        self.workload = workload
        self.seed = seed
        self.trials = workload.batch_trials
        self.dir = None

    def __enter__(self):
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=OUT))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def spec_path(self, batch, trials=None):
        config = spec_config(self.workload, self.seed, batch, trials or self.trials)
        path = self.dir / f"spec{batch}-{config['trials']}.json"
        if not path.exists():
            path.write_text(json.dumps(config))
        return path

    def run(self, batch, threads, trials=None):
        trials = trials or self.trials
        out = self.dir / f"trials{batch}-t{threads}.csv"
        argv = ["trial", "--config", str(self.spec_path(batch, trials)), "--out", str(out),
                "--threads", str(threads)]
        captured = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(captured), redirect_stderr(captured):
                status = self.program["cli"].main(argv)
            failure = None if status == 0 else f"exit status {status}: {captured.getvalue().strip()}"
        except Exception as err:  # a raising trial fails its pass; the run reports it and goes on
            failure = f"raised {type(err).__name__}: {err}"
        wall = perf_counter() - start
        result = Pass(batch, threads, trials, wall, failure=failure)
        if failure is None:
            try:
                self._read(result, out)
            except (OSError, ValueError) as err:
                result.failure = f"unreadable output: {err}"
        return result

    def _read(self, result, out):
        result.csv = out.read_bytes()
        result.sidecar = Path(f"{out}.provenance.json").read_bytes()
        lines = result.csv.decode().splitlines()
        if lines[0] != "trial,method,error,degenerate":
            raise ValueError(f"unexpected header {lines[0]!r}")
        methods = self.workload.config["methods"]
        result.errors = {m: [None] * result.trials for m in methods}
        result.degenerate = {m: [None] * result.trials for m in methods}
        for line in lines[1:]:
            trial, method, err, degen = line.split(",")
            result.errors[method][int(trial)] = float(err)
            result.degenerate[method][int(trial)] = int(degen)
        if any(None in values for values in result.errors.values()):
            raise ValueError("a trial is missing from the CSV")


class Checks:
    """Tallies attempted and failed trials and the reasons for failures."""

    def __init__(self, workload, seed, table):
        self.workload = workload
        self.seed = seed
        self.table = table
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.referenced = 0
        self.identical = 0
        self.compared = 0

    def add(self, result, same_as=None):
        """Check one pass; `same_as` is a pass whose output bytes it must equal."""
        self.attempted += result.trials
        where = f"batch {result.batch} threads={result.threads}"
        if result.failure is not None:
            self._fail(result.trials, f"{where}: {result.failure}")
            return
        whole = []
        if same_as is not None:
            self.compared += 1
            if result.same_output(same_as):
                self.identical += 1
            else:
                whole.append(f"output differs from batch {same_as.batch} threads={same_as.threads}")
        summary = result.summary()
        expected = reference.lookup(self.table, self.workload.name, self.seed, result.batch, result.trials)
        if expected is not None:
            self.referenced += 1
            whole.extend(reference.misses(summary, expected))
        for better, worse in self.workload.orderings:
            if summary[better]["percentile"] >= summary[worse]["percentile"]:
                whole.append(f"{better} percentile error not below {worse}")
        if whole:
            self._fail(result.trials, f"{where}: " + "; ".join(whole))
            return
        bad = result.bad_trials()
        if bad:
            self._fail(len(bad), f"{where}: trials {sorted(bad)} have errors outside [0, 1]")

    def _fail(self, count, reason):
        self.failed += count
        self.problems.append(reason)

    @property
    def correct(self):
        return not self.problems


def fresh_start(config_path):
    """Wall seconds of one fresh interpreter that imports blindchan and parses the spec."""
    start = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(config_path)],
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    return perf_counter() - start


def rate(result):
    return result.trials / result.wall_s


def in_turn(batch, first, second):
    """Run both passes of a batch, alternating which goes first between batches."""
    if batch % 2:
        b, a = second(), first()
    else:
        a, b = first(), second()
    return a, b


def batches(seconds):
    """Batch indices 0, 1, ... until `seconds` have passed (at least one batch)."""
    deadline = perf_counter() + seconds
    batch = 0
    while batch == 0 or perf_counter() < deadline:
        yield batch
        batch += 1


def measure_end_to_end(runner, seconds, checks):
    harness = runner.program["harness"]
    trial_s, serial, pool, setup_s = [], [], [], []
    spec = runner.spec_path(0)
    fresh_start(spec)

    def serial_pass():
        with spans.rebound([(harness, "run_trial", spans.timed(harness.run_trial, trial_s))]):
            return runner.run(batch, threads=1)

    for batch in batches(seconds):
        s, p = in_turn(batch, serial_pass, lambda: runner.run(batch, threads=0))
        checks.add(s)
        checks.add(p, same_as=s)
        serial.append(s)
        pool.append(p)
        setup_s.extend(fresh_start(spec) for _ in range(SETUP_STARTS_PER_BATCH))
    while len(setup_s) < SETUP_STARTS:
        setup_s.append(fresh_start(spec))
    metrics = {
        "trials_per_s": statistics.median(rate(p) for p in pool),
        "trials_per_s_serial": statistics.median(rate(s) for s in serial),
        "trial_ms_p50": 1e3 * statistics.median(trial_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "batches": len(serial),
        "trial_samples": len(trial_s),
        "trial_ms_p90": 1e3 * statistics.quantiles(trial_s, n=10)[-1] if len(trial_s) >= 100 else None,
        "setup_samples_s": setup_s,
    }
    return metrics, details


def measure_layers(runner, seconds, checks):
    harness = runner.program["harness"]
    tracer = spans.Tracer(runner.program)
    plain_rates, traced_rates, busy_fracs = [], [], []
    workers = min(os.cpu_count() or 1, runner.trials)

    def traced_pass():
        with tracer.recording(batch):
            return runner.run(batch, threads=1)

    for batch in batches(seconds):
        plain, traced = in_turn(batch, lambda: runner.run(batch, threads=1), traced_pass)
        busy = []
        with spans.rebound([(harness, "run_trial", spans.timed(harness.run_trial, busy))]):
            pool = runner.run(batch, threads=0)
        checks.add(plain)
        checks.add(traced, same_as=plain)
        checks.add(pool, same_as=plain)
        plain_rates.append(rate(plain))
        traced_rates.append(rate(traced))
        busy_fracs.append(sum(busy) / (pool.wall_s * workers))

    totals = spans.layer_totals(tracer.spans)
    n = totals[spans.TRIAL_TARGET]["calls"]
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0}

    def ms(layer, key="self_s"):
        return 1e3 * totals.get(layer, empty)[key] / n

    def per_trial(layer, key):
        count = totals.get(layer, empty)[key]
        return count // n if count % n == 0 else count / n

    plain_rate = statistics.median(plain_rates)
    metrics = {
        "models.basis_ms": ms("models.basis"),
        "models.instance_ms": ms("models.instance"),
        "sigops.convolve_short_ms": ms("sigops.convolve_short"),
        "sigops.convolve_short.calls": per_trial("sigops.convolve_short", "calls"),
        "xcorr.cross_corr_matrix_ms": ms("xcorr.cross_corr_matrix"),
        "xcorr.cross_corr_matrix.calls": per_trial("xcorr.cross_corr_matrix", "calls"),
        "xcorr.gram_mib": per_trial("xcorr.cross_corr_matrix", "work") / 2**20,
        "spectral.eig_hermitian_ms": ms("spectral.eig_hermitian"),
        "spectral.eig_hermitian.calls": per_trial("spectral.eig_hermitian", "calls"),
        "spectral.eig_n3": per_trial("spectral.eig_hermitian", "work"),
        "solvers.sccc_ms": ms("solvers.sccc", "s"),
        "solvers.sccc_self_ms": ms("solvers.sccc"),
        "solvers.all_ms": sum(ms(layer, "s") for layer in SOLVER_LAYERS),
        "solvers.all_self_ms": sum(ms(layer) for layer in SOLVER_LAYERS),
        "metrics.sin_angle_ms": ms("metrics.sin_angle"),
        "harness.run_trial_ms": ms(spans.TRIAL_TARGET, "s"),
        "harness.run_trial_self_ms": ms(spans.TRIAL_TARGET),
        "harness.pool_busy_frac": statistics.median(busy_fracs),
        "harness.write_ms": 1e3 * totals.get("harness.write", empty)["s"] / len(traced_rates),
        "trace.slowdown": plain_rate / statistics.median(traced_rates),
    }
    layers = {
        layer: {"ms": ms(layer, "s"), "self_ms": ms(layer), "calls": per_trial(layer, "calls")}
        for layer in sorted(totals)
        if layer != "harness.write"
    }
    details = {
        "batches": len(plain_rates),
        "traced_trials": n,
        "trials_per_s_serial_untraced": plain_rate,
        "trials_per_s_serial_traced": statistics.median(traced_rates),
        "absent": tracer.absent,
        "layers": layers,
    }
    return metrics, details, tracer.spans


def report(args, workload, env, metrics, units, details, checks):
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"why: {workload.why}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"batches: {details['batches']} of {workload.batch_trials} trials; "
          f"pool passes at --threads 0 = {os.cpu_count()} threads")
    print(f"determinism: {checks.identical}/{checks.compared} passes byte-identical to the serial pass")
    print(f"reference: {checks.referenced} passes compared with reference.json "
          f"(atol {reference.ATOL:g}, rtol {reference.RTOL:g}); the rest checked by invariants only")
    for problem in checks.problems:
        print(f"FAILED {problem}")
    if "setup_samples_s" in details:
        p90 = details["trial_ms_p90"]
        print(f"serial run_trial: {details['trial_samples']} samples, "
              f"p90 {'n/a (under 100 samples)' if p90 is None else f'{p90:.6g} ms'}")
        print("setup starts (s): " + " ".join(f"{t:.4f}" for t in details["setup_samples_s"]))
    if "layers" in details:
        trial_ms = details["layers"][spans.TRIAL_TARGET]["ms"]
        print(f"{'layer':28s} {'ms/trial':>10s} {'self ms':>10s} {'self %':>7s} {'calls':>6s}")
        for layer, row in details["layers"].items():
            print(f"{layer:28s} {row['ms']:10.4f} {row['self_ms']:10.4f} "
                  f"{100 * row['self_ms'] / trial_ms:7.1f} {row['calls']:>6g}")
        top = max(details["layers"], key=lambda layer: details["layers"][layer]["self_ms"])
        print(f"largest self time: {top} "
              f"({100 * details['layers'][top]['self_ms'] / trial_ms:.1f}% of traced trial time)")
        untraced, traced = details["trials_per_s_serial_untraced"], details["trials_per_s_serial_traced"]
        print(f"tracing overhead: serial {untraced:.6g} trials/s untraced vs {traced:.6g} traced "
              f"({100 * (untraced - traced) / untraced:+.1f}%)")
        print(f"absent spans: {', '.join(details['absent']) or 'none'}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print(f"{'trials_attempted':32s} {checks.attempted:>16d} count")
    print(f"{'trials_failed':32s} {checks.failed:>16d} count")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time (0: one batch)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        program = import_program()
    except (ProgramMissing, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    env = environment()
    checks = Checks(workload, args.seed, reference.load())
    with BatchRunner(program, workload, args.seed) as runner:
        for _ in batches(min(WARM_UP_S, args.seconds)):
            runner.run(WARM_UP_BATCH, threads=1, trials=WARM_UP_TRIALS)
            runner.run(WARM_UP_BATCH, threads=0, trials=WARM_UP_TRIALS)
        if args.trace:
            metrics, details, recorded = measure_layers(runner, args.seconds, checks)
            units = PER_LAYER
        else:
            metrics, details = measure_end_to_end(runner, args.seconds, checks)
            units = END_TO_END

    report(args, workload, env, metrics, units, details, checks)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "details": details, "problems": checks.problems,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "trial", "work"], "spans": recorded}, fh)
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": record["metrics"],
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
