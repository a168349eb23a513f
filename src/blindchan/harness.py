"""Seeded Monte Carlo experiment engine with percentile aggregation.

An experiment is a declarative spec: one parameter point, a 1-D sweep, or a
2-D (D/K, L/K) grid, each cell run for a number of independent trials.  Every
trial derives its own substreams for (basis, channels, source, noise) from
(seed, trial index), so results are bit-reproducible at any worker count and
per-method results never depend on which other methods were requested.
Trials run with OpenBLAS pinned to one thread, so results do not depend on
the BLAS thread count either.
"""

import hashlib
import json
import numbers
import os
import pickle
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import blas
from .exceptions import ConfigurationError, InputError
from .metrics import db_to_linear, sin_angle
from .models import (
    NORM_PROFILES,
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

#: Each method's estimator as a function of one instance (observations,
#: source, (M, K, D) bases, noise variance).  The solvers are looked up at
#: call time, so rebinding one of this module's attributes reaches every trial.
_SOLVERS = {
    "cc": lambda ys, x, bases, noise_var: solve_cross_conv(ys, bases.shape[1]),
    "sccc": lambda ys, x, bases, noise_var: solve_subspace_cross_conv(ys, bases, noise_var),
    "oracle": lambda ys, x, bases, noise_var: solve_oracle_ls(ys, x, bases),
    "ls": lambda ys, x, bases, noise_var: solve_linearized_ls(ys, bases),
}

METHODS = tuple(_SOLVERS)

#: Each basis kind's (M, K, D) bases as a function of (K, D, M, rng), looked up at call time.
_BASES = {
    "gaussian": lambda K, D, M, rng: gen_gaussian_subspace(K, D, M, rng),
    "pca": lambda K, D, M, rng: gen_pca_subspace(K, D, M, rng),
}

BASES = tuple(_BASES)


def _is_real(value):
    """True for a real number other than a boolean (so a JSON string is refused)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def parse_int(value):
    """int(value) of a real number without a fractional part."""
    if not _is_real(value) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _is_finite(value):
    """A real number other than a boolean, NaN or +-Infinity, within float range."""
    return _is_real(value) and abs(value) <= sys.float_info.max


def _is_integer(value):
    """An integer other than a boolean (a float such as 8.0 is not one)."""
    return _is_real(value) and isinstance(value, numbers.Integral)


def parse_float(value):
    """float(value) of a finite real number."""
    if not _is_finite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return float(value)


def parse_seed(value):
    """parse_int(value), refusing a negative seed."""
    if parse_int(value) < 0:
        raise ValueError(f"negative seed: {value!r}")
    return int(value)


def _parse_snr(value):
    """None for noiseless, else a finite dB value with |snr-db| <= MAX_SNR_DB."""
    db = None if value in (None, "noiseless") else parse_float(value)
    if db is not None and abs(db) > MAX_SNR_DB:
        raise ValueError(f"|snr-db| above {MAX_SNR_DB}: {value!r}")
    return db


def _parse_list(value):
    """A JSON list as a tuple; a string or a scalar is refused, not split."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return tuple(value)


#: Default of a key-table entry whose key must be present.
REQUIRED = object()

#: JSON key -> (ExperimentSpec field, parser, default or REQUIRED).
_SPEC_FIELDS = {
    "k": ("filter_len", parse_int, REQUIRED),
    "m": ("n_channels", parse_int, REQUIRED),
    "d": ("subspace_dim", parse_int, REQUIRED),
    "l-over-k": ("l_over_k", parse_float, 20),
    "snr-db": ("snr_db", _parse_snr, "noiseless"),
    "trials": ("trials", parse_int, 200),
    "methods": ("methods", _parse_list, ("cc", "sccc")),
    "basis": ("basis", str, "gaussian"),
    "source": ("source", str, "gaussian"),
    "norm-profile": ("norm_profile", str, "flat"),
    "percentile": ("percentile", parse_float, 95),
    "seed": ("seed", parse_seed, 0),
}

#: What each spec field must hold, by key: a spec built in Python skips the
#: key tables, so validate holds its fields to their rules (the range of
#: snr-db and the names of basis, source and norm-profile are checked later).
_FIELD_KINDS = {
    **dict.fromkeys(("k", "m", "d", "trials", "seed"), _is_integer),
    **dict.fromkeys(("l-over-k", "percentile"), _is_finite),
    "snr-db": lambda value: value is None or _is_real(value),
    "methods": lambda value: isinstance(value, (list, tuple)),
}

#: Keys a 1-D sweep may vary; each value is parsed like the key's spec value.
SWEEP_PARAMS = ("d", "m", "l-over-k", "snr-db")

#: Floor applied before taking log10 of a percentile error in grid output.
LOG_FLOOR = 1e-16

#: Largest signal length L = round(l-over-k * k) a config may ask for.  The
#: largest shipped L is 4,096 samples, while at M = 16 channels one M x L
#: complex output array at this ceiling already takes 4 GiB.
MAX_SIGNAL_LEN = 2**24

#: Largest |snr-db| a config may ask for: a linear SNR from 1e-30 to 1e30.
MAX_SNR_DB = 300


@dataclass(frozen=True)
class Sweep:
    param: str
    values: tuple


@dataclass(frozen=True)
class Grid:
    d_over_k: tuple
    l_over_k: tuple


@dataclass(frozen=True)
class ExperimentSpec:
    filter_len: int
    n_channels: int
    subspace_dim: int
    l_over_k: float
    snr_db: float | None  # None means noiseless
    trials: int
    methods: tuple = ("cc", "sccc")
    basis: str = "gaussian"
    source: str = "gaussian"
    norm_profile: str = "flat"
    percentile: float = 95.0
    seed: int = 0
    sweep: Sweep | Grid | None = None

    def validate(self):
        """Check the spec and every cell it expands to; raise ConfigurationError."""
        for key, holds in _FIELD_KINDS.items():
            value = getattr(self, _SPEC_FIELDS[key][0])
            if not holds(value):
                raise ConfigurationError(f"spec key {key!r} has a bad value {value!r}")
        if self.trials < 1:
            raise ConfigurationError(f"need trials >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigurationError(f"need seed >= 0, got seed={self.seed}")
        if not self.methods:
            raise ConfigurationError("at least one method must be requested")
        for name, value, known in (
            *(("method", m, METHODS) for m in self.methods),
            ("basis", self.basis, BASES),
            ("source", self.source, SOURCES),
            ("norm-profile", self.norm_profile, NORM_PROFILES),
        ):
            if value not in known:
                raise ConfigurationError(f"unknown {name} {value!r}; expected one of {known}")
        repeated = [m for i, m in enumerate(self.methods) if m in self.methods[:i]]
        if repeated:
            raise ConfigurationError(f"key 'methods' lists {repeated[0]!r} more than once")
        if not 0 < self.percentile <= 100:
            raise ConfigurationError(f"percentile must be in (0, 100], got {self.percentile}")
        if isinstance(self.sweep, Sweep):
            if self.sweep.param not in SWEEP_PARAMS:
                raise ConfigurationError(
                    f"unknown sweep parameter {self.sweep.param!r}; expected one of {SWEEP_PARAMS}"
                )
            if not self.sweep.values:
                raise ConfigurationError("sweep needs a nonempty value list")
        if isinstance(self.sweep, Grid):
            numeric = all(map(_is_finite, self.sweep.d_over_k + self.sweep.l_over_k))
            if not (self.sweep.d_over_k and self.sweep.l_over_k and numeric):
                raise ConfigurationError("grid needs nonempty numeric d-over-k and l-over-k lists")
        for label, cell in _cells(self):
            where = "" if label is None else f"sweep cell {label}: "
            if cell.snr_db is not None and not abs(cell.snr_db) <= MAX_SNR_DB:
                raise ConfigurationError(
                    f"{where}need |snr-db| <= {MAX_SNR_DB}, got snr-db={cell.snr_db!r}"
                )
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
    """Raise ConfigurationError naming the key unless m >= 2, 1 <= d <= k
    (skipped when d is None), k >= 1 and L = round(l-over-k * k) >= k."""
    K, M, D, L = filter_len, n_channels, subspace_dim, signal_len
    if M < 2:
        raise ConfigurationError(f"{where}need m >= 2 channels, got m={M}")
    if D is not None and not 1 <= D <= K:
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
    length = l_over_k * filter_len
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


def _parse_sweep(raw):
    try:
        if "param" in raw:
            _reject_unknown(raw, ("param", "values"), "sweep")
            return Sweep(param=str(raw["param"]), values=_parse_list(raw["values"]))
        if "d-over-k" in raw and "l-over-k" in raw:
            _reject_unknown(raw, ("d-over-k", "l-over-k"), "grid")
            return Grid(
                d_over_k=_parse_list(raw["d-over-k"]), l_over_k=_parse_list(raw["l-over-k"])
            )
    except KeyError as missing:
        raise ConfigurationError(f"sweep is missing required key {missing}") from None
    except TypeError:
        raise ConfigurationError(f"malformed sweep {raw!r}") from None
    raise ConfigurationError("sweep must hold either {param, values} or both {d-over-k, l-over-k}")


def parse_keys(data, table, where, extra=()):
    """{field: parsed value} of a JSON mapping, by a key table.

    table maps each key to (field, parser, default or REQUIRED); keys in
    extra are allowed but left to the caller.  Unknown or missing keys and
    unparsable values raise ConfigurationError naming the key.
    """
    _reject_unknown(data, [*table, *extra], where)
    fields = {}
    for key, (name, parse, default) in table.items():
        if key not in data and default is REQUIRED:
            raise ConfigurationError(f"{where} is missing required key {key!r}")
        try:
            fields[name] = parse(data.get(key, default))
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(f"{where} key {key!r} has a bad value {data[key]!r}") from None
    return fields


def spec_from_dict(raw):
    """Build a spec from the documented kebab-case JSON mapping.

    Unknown or missing keys, unparsable values and any cell the spec would
    run with unusable dimensions raise ConfigurationError here, before a
    trial runs.
    """
    data = dict(raw)
    fields = parse_keys(data, _SPEC_FIELDS, "spec", extra=("sweep",))
    sweep = None if data.get("sweep") is None else _parse_sweep(data["sweep"])
    return ExperimentSpec(**fields, sweep=sweep).validate()


def _sweep_value(param, value):
    """A sweep value as its key's parser reads it; "noiseless" is kept as is."""
    parsed = _SPEC_FIELDS[param][1](value)
    return value if parsed is None else parsed


def spec_to_dict(spec):
    """Inverse of spec_from_dict (canonical kebab-case keys); float keys, and
    sweep and grid values, are written as spec_from_dict parses them, so
    equal specs get one spec_hash."""
    out = {key: getattr(spec, name) for key, (name, _, _) in _SPEC_FIELDS.items()}
    out["l-over-k"] = float(spec.l_over_k)
    out["percentile"] = float(spec.percentile)
    out["snr-db"] = "noiseless" if spec.snr_db is None else float(spec.snr_db)
    out["methods"] = list(spec.methods)
    if isinstance(spec.sweep, Sweep):
        values = [_sweep_value(spec.sweep.param, v) for v in spec.sweep.values]
        out["sweep"] = {"param": spec.sweep.param, "values": values}
    elif isinstance(spec.sweep, Grid):
        out["sweep"] = {
            "d-over-k": [parse_float(v) for v in spec.sweep.d_over_k],
            "l-over-k": [parse_float(v) for v in spec.sweep.l_over_k],
        }
    return out


def spec_hash(spec):
    """Stable short digest of the resolved spec, recorded for provenance."""
    blob = json.dumps(spec_to_dict(spec), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _point_spec(spec):
    """The spec with any sweep stripped, used for one cell's trials."""
    return replace(spec, sweep=None)


def _apply_sweep_value(spec, param, value):
    name, parse, _ = _SPEC_FIELDS[param]
    try:
        return replace(spec, **{name: parse(value)})
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"bad {param} sweep value {value!r}") from None


def _cells(spec):
    """(label, point spec) of every cell the spec runs, in run order.

    The label is the sweep value, the (d-over-k, l-over-k) pair of a grid
    cell, or None for a point spec.
    """
    point = _point_spec(spec)
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


def run_trial(spec, trial_index):
    """Generate one instance and run every requested method on the same data.

    Returns ({method: sin-angle error}, {method: degenerate flag}).
    """
    K = spec.filter_len
    M = spec.n_channels
    D = spec.subspace_dim
    L = signal_len(spec.l_over_k, K)
    streams = RngStreams(spec.seed)

    bases = _BASES[spec.basis](K, D, M, streams.stream("basis", trial_index))

    u, filters = gen_channels_in_subspace(
        bases, streams.stream("channels", trial_index), spec.norm_profile
    )
    x = gen_source(spec.source, L, streams.stream("source", trial_index))
    if spec.snr_db is None:
        noise_var = 0.0
    else:
        noise_var = sigma_for_snr(db_to_linear(spec.snr_db), K, L, M, x, u)
    noise_stream = streams.stream("noise", trial_index)
    ys = add_noise(convolve_short(x, filters), np.sqrt(noise_var), noise_stream)

    errors = {}
    degenerate = {}
    for method in spec.methods:
        est = _SOLVERS[method](ys, x, bases, noise_var)
        errors[method] = sin_angle(est.h_hat, filters)
        degenerate[method] = bool(est.degenerate)
    return errors, degenerate


def aggregate_percentile(errors, p):
    """Nearest-rank percentile: sorted ascending, value at index ceil(p/100 * n)."""
    values = sorted(errors)
    if not values:
        raise InputError("cannot take a percentile of an empty list")
    if not 0 < p <= 100:
        raise InputError(f"percentile must be in (0, 100], got {p}")
    rank = int(np.ceil(p / 100.0 * len(values)))
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


def _run_forked(spec, workers):
    """Worker w runs trials w, w + workers, ...: worker 0 in this process, each
    other one in a forked child that pipes back the pickled (ok, outcomes or
    exception).  A child sees this module as the caller left it (a rebound
    run_trial, the OpenBLAS pin) and leaves by os._exit, so it never flushes
    the caller's buffered output.  Children left running on any exit, an
    interrupt included, are killed and reaped."""
    shares = [range(w, spec.trials, workers) for w in range(workers)]
    children = []  # (worker, pid, pipe read end) of every child not yet reaped
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN at the process limit, ENOMEM
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1  # kept if the report cannot be pickled
                try:
                    try:
                        report = (True, _run_trials(spec, shares[w]))
                    except BaseException as err:  # the parent re-raises it
                        report = (False, err)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(report))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((w, pid, open(read_fd, "rb")))
        outcomes = [None] * spec.trials
        outcomes[0::workers] = _run_trials(spec, shares[0])
        while children:
            w, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, wstatus = os.waitpid(pid, 0)
            children.pop(0)
            if not data:
                raise RuntimeError(f"worker {w} exited without a result (wait status {wstatus})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            outcomes[w::workers] = value
        return outcomes
    finally:
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def run_point(spec, threads=1):
    """Run all trials of a single parameter point (the unit of parallelism).

    Trials run with OpenBLAS pinned to one thread (blas.single_thread).
    threads > 1 runs them in that many processes, the calling one plus
    threads - 1 forked workers, worker w taking trials w, w + threads, ...;
    threads < 1 means one process per CPU (os.cpu_count()).  No more
    processes than trials run, so a one-trial spec forks nothing.  Results
    are the same at any thread count.
    """
    spec = _point_spec(spec).validate()
    if threads < 1:
        threads = os.cpu_count() or 1
    threads = min(threads, spec.trials)
    if threads > 1 and not hasattr(os, "fork"):
        raise ConfigurationError(
            "threads > 1 runs trials in forked worker processes, and this platform "
            "has no os.fork; run with threads=1"
        )
    with blas.single_thread():
        if threads == 1:
            outcomes = _run_trials(spec, range(spec.trials))
        else:
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
#: row.  The CSV writer and the JSON mirror both read this table.
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
                spec.sweep.param, value, method, point.percentile(method), point.median(method),
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
    """The result's column header, then one line per row, newline-terminated."""
    columns = _TABLES[result.spec.shape][0]
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
