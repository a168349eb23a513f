"""Seeded Monte Carlo experiment engine with percentile aggregation.

An experiment is a declarative spec: one parameter point, a 1-D sweep, or a
2-D (D/K, L/K) grid, each cell run for a number of independent trials.  Every
trial derives its own substreams for (basis, channels, source, noise) from
(seed, trial index), so results are bit-reproducible at any worker count and
per-method results never depend on which other methods were requested.
Trials run with OpenBLAS pinned to one thread, so results do not depend on
the BLAS thread count either.
"""

import atexit
import hashlib
import json
import math
import numbers
import os
import signal
import threading
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import blas
from .exceptions import ConfigurationError, InputError
from .metrics import db_to_linear, sin_angle
from .models import (
    SOURCES,
    RngStreams,
    add_noise,
    check_pca_dim,
    gen_channels_in_subspace,
    gen_gaussian_subspace,
    gen_pca_subspace,
    gen_source,
    sigma_for_snr,
)
from .sigops import convolve_short
from .solvers import (
    solve_cross_conv,
    solve_linearized_ls,
    solve_oracle_ls,
    solve_subspace_cross_conv,
)

#: Each method's estimator as a function of one Instance.  The solvers are
#: looked up at call time, so rebinding one of this module's attributes reaches
#: every trial in this process and in the workers forked after it (see run_point).
_SOLVERS = {
    "cc": lambda inst: solve_cross_conv(inst.ys, inst.bases.shape[1]),
    "sccc": lambda inst: solve_subspace_cross_conv(inst.ys, inst.bases, inst.noise_var),
    "oracle": lambda inst: solve_oracle_ls(inst.ys, inst.x, inst.bases),
    "ls": lambda inst: solve_linearized_ls(inst.ys, inst.bases),
}

METHODS = tuple(_SOLVERS)

#: Each basis kind's (M, K, D) bases as a function of (K, D, M, rng), looked up at call time.
_BASES = {
    "gaussian": lambda K, D, M, rng: gen_gaussian_subspace(K, D, M, rng),
    "pca": lambda K, D, M, rng: gen_pca_subspace(K, D, M, rng),
}

BASES = tuple(_BASES)


#: Keys a 1-D sweep may vary; each value is read by the key's kind.
SWEEP_PARAMS = ("d", "m", "l-over-k", "snr-db")

#: Floor applied before taking log10 of a percentile error in grid output.
LOG_FLOOR = 1e-16

#: Largest signal length L = round(l-over-k * k) a config may ask for.  The
#: largest shipped L is 4,096 samples, while at M = 16 channels one M x L
#: complex output array at this ceiling already takes 4 GiB.
MAX_SIGNAL_LEN = 2**24

#: Largest |snr-db| a config may ask for: a linear SNR from 1e-30 to 1e30.
MAX_SNR_DB = 300


def _is_real(value):
    """True for a real number other than a boolean (so a JSON string is refused)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value):
    """A real number other than a boolean, NaN or +-Infinity, within float range
    (compared as a float, so a narrow numpy float does not overflow a cast)."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _is_integer(value):
    """An integer other than a boolean, numpy's included (a float such as 8.0 is not one)."""
    return _is_real(value) and isinstance(value, numbers.Integral)


def _is_whole(value):
    """An integer, or a finite number without a fractional part such as 8.0."""
    return _is_integer(value) or (_is_finite(value) and float(value).is_integer())


#: The one rule of a config key: read turns a JSON value into a field value
#: (TypeError when the value breaks the rule), holds says whether a field value
#: meets the rule, and write gives a field value's canonical JSON value.
Kind = namedtuple("Kind", "read holds write")


def _kind(accepts, convert, holds=None, write=None):
    """A Kind reading a value `accepts` passes as convert(value); a field value
    meets holds (default accepts) and is written by write (default read)."""

    def read(value):
        if not accepts(value):
            raise TypeError(f"bad value {value!r}")
        return convert(value)

    return Kind(read, holds or accepts, write or read)


def _integer(low=-math.inf):
    """Kind of an integer >= low, which a JSON number such as 8.0 reads as."""
    return _kind(lambda v: _is_whole(v) and v >= low, int, lambda v: _is_integer(v) and v >= low)


def optional(kind, name=None):
    """kind, or None, which JSON null or the string `name` reads as and which
    is written as `name`."""
    return Kind(
        lambda value: None if value in (None, name) else kind.read(value),
        lambda value: value is None or kind.holds(value),
        lambda value: name if value in (None, name) else kind.write(value),
    )


def _is_list(value):
    return isinstance(value, (list, tuple))


#: The kinds of config value: an integer (a seed is one >= 0, a trial count
#: one >= 1), a finite number, a percentile in (0, 100], an SNR in dB (a
#: number with |snr-db| <= MAX_SNR_DB, or None for "noiseless"), a list (read
#: as a tuple) and a string.
INT, SEED, COUNT = _integer(), _integer(0), _integer(1)
NUMBER = _kind(_is_finite, float)
PERCENTILE = _kind(lambda v: _is_finite(v) and 0 < v <= 100, float)
SNR = optional(_kind(lambda v: _is_finite(v) and abs(v) <= MAX_SNR_DB, float), "noiseless")
LIST = _kind(_is_list, tuple, write=list)
TEXT = _kind(lambda v: isinstance(v, str), str)


@dataclass(frozen=True)
class Sweep:
    param: str
    values: tuple


@dataclass(frozen=True)
class Grid:
    d_over_k: tuple
    l_over_k: tuple


def _read_sweep(raw):
    """The Sweep or Grid of a JSON sweep mapping."""
    try:
        if "param" in raw:
            _reject_unknown(raw, ("param", "values"), "sweep")
            return Sweep(param=str(raw["param"]), values=LIST.read(raw["values"]))
        if "d-over-k" in raw and "l-over-k" in raw:
            _reject_unknown(raw, ("d-over-k", "l-over-k"), "grid")
            return Grid(d_over_k=LIST.read(raw["d-over-k"]), l_over_k=LIST.read(raw["l-over-k"]))
    except KeyError as missing:
        raise ConfigurationError(f"sweep is missing required key {missing}") from None
    except TypeError:
        raise ConfigurationError(f"malformed sweep {raw!r}") from None
    raise ConfigurationError("sweep must hold either {param, values} or both {d-over-k, l-over-k}")


def _holds_sweep(sweep):
    """A Sweep or a Grid with its values in lists or tuples."""
    if isinstance(sweep, Sweep):
        return _is_list(sweep.values)
    return isinstance(sweep, Grid) and _is_list(sweep.d_over_k) and _is_list(sweep.l_over_k)


def _write_sweep(sweep):
    """A sweep's values as its key's kind writes them, or a grid's as numbers."""
    if isinstance(sweep, Sweep):
        write = _SPEC_FIELDS[sweep.param][1].write
        return {"param": sweep.param, "values": [write(v) for v in sweep.values]}
    return {
        "d-over-k": [NUMBER.write(v) for v in sweep.d_over_k],
        "l-over-k": [NUMBER.write(v) for v in sweep.l_over_k],
    }


#: No sweep (None), a 1-D Sweep or a 2-D Grid.
SWEEP = optional(Kind(_read_sweep, _holds_sweep, _write_sweep))

#: Default of a key-table entry whose key must be present.
REQUIRED = object()

#: JSON key -> (ExperimentSpec field, kind, default or REQUIRED).
_SPEC_FIELDS = {
    "k": ("filter_len", INT, REQUIRED),
    "m": ("n_channels", INT, REQUIRED),
    "d": ("subspace_dim", INT, REQUIRED),
    "l-over-k": ("l_over_k", NUMBER, 20),
    "snr-db": ("snr_db", SNR, "noiseless"),
    "trials": ("trials", COUNT, 200),
    "methods": ("methods", LIST, ("cc", "sccc")),
    "basis": ("basis", TEXT, "gaussian"),
    "source": ("source", TEXT, "gaussian"),
    "percentile": ("percentile", PERCENTILE, 95),
    "seed": ("seed", SEED, 0),
    "sweep": ("sweep", SWEEP, None),
}


@dataclass(frozen=True)
class ExperimentSpec:
    filter_len: int
    n_channels: int
    subspace_dim: int
    l_over_k: float = 20.0
    snr_db: float | None = None  # None means noiseless
    trials: int = 200
    methods: tuple = ("cc", "sccc")
    basis: str = "gaussian"
    source: str = "gaussian"
    percentile: float = 95.0
    seed: int = 0
    sweep: Sweep | Grid | None = None

    def validate(self):
        """Check the spec and every cell it expands to; raise ConfigurationError."""
        for key, (name, kind, _) in _SPEC_FIELDS.items():
            value = getattr(self, name)
            if not kind.holds(value):
                raise ConfigurationError(f"spec key {key!r} has a bad value {value!r}")
        if not self.methods:
            raise ConfigurationError("at least one method must be requested")
        for name, value, known in (
            *(("method", m, METHODS) for m in self.methods),
            ("basis", self.basis, BASES),
            ("source", self.source, SOURCES),
        ):
            if value not in known:
                raise ConfigurationError(f"unknown {name} {value!r}; expected one of {known}")
        repeated = [m for i, m in enumerate(self.methods) if m in self.methods[:i]]
        if repeated:
            raise ConfigurationError(f"key 'methods' lists {repeated[0]!r} more than once")
        if isinstance(self.sweep, Sweep):
            if self.sweep.param not in SWEEP_PARAMS:
                raise ConfigurationError(
                    f"unknown sweep parameter {self.sweep.param!r}; expected one of {SWEEP_PARAMS}"
                )
            if not self.sweep.values:
                raise ConfigurationError("sweep needs a nonempty value list")
        if isinstance(self.sweep, Grid):
            numeric = all(map(NUMBER.holds, (*self.sweep.d_over_k, *self.sweep.l_over_k)))
            if not (self.sweep.d_over_k and self.sweep.l_over_k and numeric):
                raise ConfigurationError("grid needs nonempty numeric d-over-k and l-over-k lists")
        for label, cell in _cells(self):
            where = "" if label is None else f"sweep cell {label}: "
            K, D = cell.filter_len, cell.subspace_dim
            L = signal_len(cell.l_over_k, K, where)
            check_dimensions(K, cell.n_channels, D, L, where)
            if cell.basis == "pca":
                check_pca_dim(K, D, where)
            if "ls" in cell.methods and L < 2:
                raise ConfigurationError(
                    f"{where}method 'ls' needs round(l-over-k * k) >= 2 samples, "
                    f"got {L}; raise l-over-k"
                )
        return self

    @property
    def shape(self):
        """One of "point", "sweep", "grid" (exactly one by construction)."""
        if self.sweep is None:
            return "point"
        return "sweep" if isinstance(self.sweep, Sweep) else "grid"


def check_dimensions(filter_len, n_channels, subspace_dim, signal_len, where=""):
    """Raise ConfigurationError naming the key unless m >= 2, 1 <= d <= k,
    k >= 1 and L = round(l-over-k * k) >= k."""
    K, M, D, L = filter_len, n_channels, subspace_dim, signal_len
    if M < 2:
        raise ConfigurationError(f"{where}need m >= 2 channels, got m={M}")
    if not 1 <= D <= K:
        raise ConfigurationError(f"{where}need 1 <= d <= k, got d={D}, k={K}")
    if K < 1:
        raise ConfigurationError(f"{where}need k >= 1, got k={K}")
    if L < K:
        raise ConfigurationError(f"{where}need round(l-over-k * k) >= k, got {L} < {K}")


def signal_len(l_over_k, filter_len, where=""):
    """Signal length L = round(l-over-k * k); ConfigurationError naming k when
    k > MAX_SIGNAL_LEN (L >= k), else l-over-k when L overflows or exceeds it."""
    if filter_len > MAX_SIGNAL_LEN:
        raise ConfigurationError(f"{where}key 'k' is above {MAX_SIGNAL_LEN}, so L >= k is too long")
    length = float(l_over_k) * filter_len  # a float16 product would overflow in the comparison
    if length > MAX_SIGNAL_LEN:  # an overflow to inf included
        raise ConfigurationError(
            f"{where}key 'l-over-k' gives more than {MAX_SIGNAL_LEN} samples "
            f"at k={filter_len}: {l_over_k!r}"
        )
    return int(round(length))


def _reject_unknown(data, known, where):
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown {where} key(s) {', '.join(map(repr, unknown))}; expected {sorted(known)}"
        )


def spec_from_dict(raw):
    """Build a spec from the documented kebab-case JSON mapping.

    Unknown or missing keys, values a key's kind refuses and any cell the
    spec would run with unusable dimensions raise ConfigurationError naming
    the key, before a trial runs.
    """
    data = dict(raw)
    _reject_unknown(data, _SPEC_FIELDS, "spec")
    fields = {}
    for key, (name, kind, default) in _SPEC_FIELDS.items():
        if key not in data and default is REQUIRED:
            raise ConfigurationError(f"spec is missing required key {key!r}")
        try:
            fields[name] = kind.read(data.get(key, default))
        except TypeError:
            raise ConfigurationError(f"spec key {key!r} has a bad value {data[key]!r}") from None
    return ExperimentSpec(**fields).validate()


def spec_to_dict(spec):
    """Inverse of spec_from_dict: each key as its kind writes it, so equal specs
    get one spec_hash; a point spec has no sweep key."""
    out = {key: kind.write(getattr(spec, name)) for key, (name, kind, _) in _SPEC_FIELDS.items()}
    return {key: value for key, value in out.items() if value is not None}


def spec_hash(spec):
    """Stable short digest of the resolved spec, recorded for provenance."""
    blob = json.dumps(spec_to_dict(spec), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _apply_sweep_value(spec, param, value):
    name, kind, _ = _SPEC_FIELDS[param]
    try:
        return replace(spec, **{name: kind.read(value)})
    except (TypeError, ValueError):
        raise ConfigurationError(f"bad {param} sweep value {value!r}") from None


def _cells(spec):
    """(label, point spec) of every cell the spec runs, in run order.

    The label is the sweep value, the (d-over-k, l-over-k) pair of a grid
    cell, or None for a point spec.
    """
    point = replace(spec, sweep=None)
    if isinstance(spec.sweep, Sweep):
        return [(v, _apply_sweep_value(point, spec.sweep.param, v)) for v in spec.sweep.values]
    if isinstance(spec.sweep, Grid):
        K = spec.filter_len
        return [
            ((dk, lk), replace(point, subspace_dim=_grid_dim(dk, K, (dk, lk)), l_over_k=float(lk)))
            for dk in spec.sweep.d_over_k
            for lk in spec.sweep.l_over_k
        ]
    return [(None, point)]


def _grid_dim(d_over_k, filter_len, label):
    """d = round(d-over-k * k), at least 1; ConfigurationError for a ratio
    that is not positive or whose product with k overflows."""
    dim = d_over_k * filter_len
    if not (d_over_k > 0 and dim < np.inf):
        raise ConfigurationError(
            f"sweep cell {label}: need 1 <= d <= k, got d-over-k={d_over_k!r}, k={filter_len}"
        )
    return max(1, int(round(dim)))


#: One trial's data: the (M, K, D) bases, the M x K channel filters, the
#: source x, the M x L noisy outputs ys and the noise variance.
Instance = namedtuple("Instance", "bases filters x ys noise_var")


def draw_instance(spec, trial_index):
    """Trial trial_index's Instance of a point spec, from its (basis,
    channels, source, noise) substreams."""
    K, M, D = spec.filter_len, spec.n_channels, spec.subspace_dim
    L = signal_len(spec.l_over_k, K)
    streams = RngStreams(spec.seed)
    bases = _BASES[spec.basis](K, D, M, streams.stream("basis", trial_index))

    u, filters = gen_channels_in_subspace(bases, streams.stream("channels", trial_index))
    x = gen_source(spec.source, L, streams.stream("source", trial_index))
    if spec.snr_db is None:
        noise_var = 0.0
    else:
        noise_var = sigma_for_snr(db_to_linear(spec.snr_db), K, L, M, x, u)
    noise_stream = streams.stream("noise", trial_index)
    ys = add_noise(convolve_short(x, filters), np.sqrt(noise_var), noise_stream)
    return Instance(bases, filters, x, ys, noise_var)


def run_trial(spec, trial_index):
    """Draw one instance and run every requested method on it.

    Returns ({method: sin-angle error}, {method: degenerate flag}).
    """
    instance = draw_instance(spec, trial_index)
    errors = {}
    degenerate = {}
    for method in spec.methods:
        est = _SOLVERS[method](instance)
        errors[method] = sin_angle(est.h_hat, instance.filters)
        degenerate[method] = bool(est.degenerate)
    return errors, degenerate


def aggregate_percentile(errors, p):
    """Nearest-rank percentile: sorted ascending, the value of rank ceil(p/100 * n),
    computed exactly on p's decimal value (a float 0.07 * 100 is above 7)."""
    values = sorted(errors)
    if not values:
        raise InputError("cannot take a percentile of an empty list")
    if not 0 < p <= 100:
        raise InputError(f"percentile must be in (0, 100], got {p}")
    rank = math.ceil(Fraction(str(float(p))) * len(values) / 100)
    return float(values[max(rank, 1) - 1])


@dataclass(frozen=True)
class PointResult:
    """Per-trial errors of one parameter point, trial-indexed."""

    spec: ExperimentSpec
    errors: dict  # method -> list[float], index = trial
    degenerate: dict  # method -> list[bool]

    def percentile(self, method):
        return aggregate_percentile(self.errors[method], self.spec.percentile)

    def median(self, method):
        return float(np.median(self.errors[method]))

    def mean(self, method):
        return float(np.mean(self.errors[method]))

    def degenerate_count(self, method):
        return int(sum(self.degenerate[method]))


def _run_trials(spec, indices):
    """run_trial on each index, looked up at call time: a rebinding of this
    module's run_trial made before a worker is forked reaches the worker."""
    return [run_trial(spec, i) for i in indices]


#: This process's forked workers, worker w at index w - 1, each as (pid, this
#: process's end of the worker's socket pair).
_WORKERS = []

#: warnings.filters as they were when the workers in _WORKERS were forked.
_WORKER_FILTERS = []


def _serve(conn):
    """A worker's loop: run each job (spec, trial indices) received on conn and
    send back (ok, outcomes or exception), until the caller closes its end or
    dies (EOFError).  A job that does not unpickle here is reported too."""
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        except BaseException as err:  # a job that does not load here
            report = (False, err)
        else:
            try:
                report = (True, _run_trials(*job))
            except BaseException as err:  # the caller re-raises it
                report = (False, err)
        conn.send(report)


def _fork_worker():
    """Fork one more worker onto _WORKERS, joined to this process by one
    multiprocessing.connection.Pipe (a socket pair; imported here, so importing
    this module loads no multiprocessing).  A Connection reads and writes with
    os.read and os.write and takes no lock, so a child forked while another
    thread waits on one can still close its copy (a buffered file's lock stays
    held there forever).  The worker ignores SIGINT (a Ctrl-C reaches the
    caller too, which kills its workers if they are busy and keeps them if
    not), serves jobs, reaps any workers of its own and leaves by os._exit, so
    it never flushes the caller's buffered output."""
    from multiprocessing.connection import Pipe

    conn, worker_conn = Pipe()
    try:
        pid = os.fork()
    except OSError:  # EAGAIN at the process limit, ENOMEM
        conn.close()
        worker_conn.close()
        raise
    if pid == 0:
        status = 1  # kept if a report cannot be pickled or sent
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            conn.close()
            _serve(worker_conn)
            _close_workers()
            status = 0
        finally:
            os._exit(status)
    worker_conn.close()
    _WORKERS.append((pid, conn))


def _close_workers(kill=False):
    """Empty _WORKERS: close each worker's connection, which ends its loop, or
    SIGKILL it when kill is true; reap it.  Returns the wait statuses in worker
    order."""
    workers = _WORKERS[:]
    _WORKERS.clear()
    for pid, conn in workers:
        conn.close()
        if kill:
            os.kill(pid, signal.SIGKILL)
    return [os.waitpid(pid, 0)[1] for pid, _ in workers]


def _talk(w, call, *args):
    """call(*args), a send or recv on worker w's connection.  When the worker
    is gone (EOFError, or an OSError such as EPIPE or ECONNRESET), every
    worker is killed and reaped and a RuntimeError names worker w."""
    try:
        return call(*args)
    except (EOFError, OSError):
        wstatus = _close_workers(kill=True)[w - 1]
        raise RuntimeError(f"worker {w} exited without a result (wait status {wstatus})") from None


#: Held while this process's workers run a point's jobs.
_POOL = threading.Lock()


def _forget_workers():
    """In any forked child: close the inherited ends of this process's worker
    connections, so each worker still sees EOF when its caller dies, and start
    an empty table with a free pool."""
    global _POOL
    for _, conn in _WORKERS:
        conn.close()
    _WORKERS.clear()
    _POOL = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)
atexit.register(_close_workers)


def _run_forked(spec, workers):
    """Worker w runs trials w, w + workers, ...: worker 0 in this process, each
    other one in a worker process that is forked on first use and serves every
    later call of this process (a worker left over from a larger call idles).
    A worker keeps this module as it was when forked (a rebound run_trial, the
    OpenBLAS pin) and the warnings.filters it was forked with; a call whose
    filters differ from those closes the workers and forks fresh ones.  On any
    failure or interrupt, every worker is killed and reaped and the next call
    forks fresh ones; at interpreter exit they are closed and reaped; a worker
    whose caller dies without that reads EOF and exits.  A point asked for
    while the workers are busy with another (from a second thread, or from a
    trial of this process's share) runs serially."""
    if workers == 1 or not _POOL.acquire(blocking=False):
        return _run_trials(spec, range(spec.trials))
    shares = [range(w, spec.trials, workers) for w in range(workers)]
    try:
        if warnings.filters != _WORKER_FILTERS:
            _close_workers()
            _WORKER_FILTERS[:] = warnings.filters
        while len(_WORKERS) < workers - 1:
            _fork_worker()
        busy = _WORKERS[: workers - 1]
        for w, ((_, conn), share) in enumerate(zip(busy, shares[1:]), 1):
            _talk(w, conn.send, (spec, share))
        outcomes = [None] * spec.trials
        outcomes[0::workers] = _run_trials(spec, shares[0])
        for w, (_, conn) in enumerate(busy, 1):
            ok, value = _talk(w, conn.recv)
            if not ok:
                raise value
            outcomes[w::workers] = value
        return outcomes
    except BaseException:
        _close_workers(kill=True)
        raise
    finally:
        _POOL.release()


def run_point(spec, threads=1):
    """Run all trials of a point spec (the unit of parallelism); a spec with a
    sweep or grid is refused (run_experiment runs each of its cells here).

    Trials run with OpenBLAS pinned to one thread (blas.single_thread).
    threads > 1 runs them in that many processes, the calling one plus
    threads - 1 forked workers, worker w taking trials w, w + threads, ...;
    threads < 1 means one process per CPU (os.cpu_count()).  No more
    processes than trials run, so a one-trial spec forks nothing.  Results
    are the same at any thread count.

    Workers are forked on first use and serve every later point of this
    process, so a sweep or grid forks once.  They keep the code and the
    OpenBLAS pin they were forked with, so run_trial or a solver rebound
    after the first pooled call does not reach them.  They run under the
    warnings.filters they were forked with; a call made under other filters
    forks fresh workers.  A worker found gone, while idle or while running
    its share, raises RuntimeError naming it, and the next call forks fresh
    workers.  They are reaped at exit.
    """
    if spec.shape != "point":
        raise ConfigurationError(
            f"run_point runs a point spec, got shape {spec.shape!r}; run it with run_experiment"
        )
    spec = spec.validate()
    if threads < 1:
        threads = os.cpu_count() or 1
    threads = min(threads, spec.trials)
    if threads > 1 and not hasattr(os, "fork"):
        raise ConfigurationError(
            "threads > 1 runs trials in forked worker processes, and this platform "
            "has no os.fork; run with threads=1"
        )
    with blas.single_thread():
        outcomes = _run_forked(spec, threads)
    errors = {m: [out[0][m] for out in outcomes] for m in spec.methods}
    degenerate = {m: [out[1][m] for out in outcomes] for m in spec.methods}
    return PointResult(spec=spec, errors=errors, degenerate=degenerate)


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    provenance: str
    rows: tuple  # one {column: value} mapping per row, in column order


#: Each spec shape's output columns and its rows for one cell, as a function
#: of (spec, cell label, PointResult) giving one tuple of column values per
#: row; a sweep value is written as its key's kind writes it.
_TABLES = {
    "point": (
        ("trial", "method", "error", "degenerate"),
        lambda spec, label, point: [
            (i, method, error, int(point.degenerate[method][i]))
            for method in point.spec.methods
            for i, error in enumerate(point.errors[method])
        ],
    ),
    "sweep": (
        ("sweep_param", "value", "method", "p95", "median", "mean", "trials", "degenerate"),
        lambda spec, value, point: [
            (
                spec.sweep.param, _SPEC_FIELDS[spec.sweep.param][1].write(value),
                method, point.percentile(method), point.median(method),
                point.mean(method), point.spec.trials, point.degenerate_count(method),
            )
            for method in point.spec.methods
        ],
    ),
    "grid": (
        ("d_over_k", "l_over_k", "method", "log10_p95"),
        lambda spec, cell, point: [
            (
                float(cell[0]), float(cell[1]), method,
                float(np.log10(max(point.percentile(method), LOG_FLOOR))),
            )
            for method in point.spec.methods
        ],
    ),
}


def run_experiment(spec, threads=1):
    """Validate the spec, run every cell, and tabulate the rows of its shape:
    one per (trial, method) of a point, one per (cell, method) of a sweep or
    grid, where the p95 columns hold the spec's configured percentile."""
    spec = spec.validate()
    columns, rows_for = _TABLES[spec.shape]
    rows = []
    for label, cell in _cells(spec):
        point = run_point(cell, threads=threads)
        rows.extend(dict(zip(columns, values)) for values in rows_for(spec, label, point))
    return ExperimentResult(spec=spec, provenance=spec_hash(spec), rows=tuple(rows))


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(result, path):
    """A header of the keys of the result's rows, then one line per row, newline-terminated."""
    columns = list(result.rows[0])
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row[column]) for column in columns) for row in result.rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def result_to_json(result):
    """The CSV's rows under its column names, with the resolved spec embedded.

    Rows keep their column order; the other keys are sorted (a spec's only
    nested mapping, its sweep, has sorted keys already).
    """
    payload = {
        "provenance": result.provenance,
        "rows": list(result.rows),
        "spec": dict(sorted(spec_to_dict(result.spec).items())),
    }
    return json.dumps(payload, indent=2) + "\n"
