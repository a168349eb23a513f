"""Spans around the program's public functions, recorded from outside `src/`.

Each target is a module attribute as its caller binds it (`harness.gen_source`
is what `run_trial` calls), so rebinding the attribute puts a span around
every call without editing the program.  A span records its name, start,
end, parent span and trial id; spans stay in memory until the run ends.  A
target whose attribute no longer exists is reported as absent.

A layer's self time is its spans' duration minus the time their direct
child spans cover.
"""

import functools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    module: str  # "harness", "solvers" or "cli"
    attr: str
    layer: str
    work: object = None  # args -> exact int of computed work per call, or None

    @property
    def name(self):
        return f"{self.module}.{self.attr}"


def _gram_bytes(args):
    ys, filter_len = args[0], args[1]
    return 16 * (len(ys) * filter_len) ** 2  # one complex128 MK x MK Gram


def _eig_n3(args):
    return len(args[0]) ** 3


TARGETS = (
    Target("harness", "run_trial", "harness.run_trial"),
    Target("harness", "gen_gaussian_subspace", "models.basis"),
    Target("harness", "gen_pca_subspace", "models.basis"),
    Target("harness", "gen_channels_in_subspace", "models.instance"),
    Target("harness", "gen_source", "models.instance"),
    Target("harness", "sigma_for_snr", "models.instance"),
    Target("harness", "add_noise", "models.instance"),
    Target("harness", "convolve_short", "sigops.convolve_short"),
    Target("harness", "solve_cross_conv", "solvers.cc"),
    Target("harness", "solve_subspace_cross_conv", "solvers.sccc"),
    Target("harness", "solve_oracle_ls", "solvers.oracle"),
    Target("harness", "solve_linearized_ls", "solvers.ls"),
    Target("harness", "sin_angle", "metrics.sin_angle"),
    Target("solvers", "cross_corr_matrix", "xcorr.cross_corr_matrix", _gram_bytes),
    Target("solvers", "eig_hermitian", "spectral.eig_hermitian", _eig_n3),
    Target("harness", "write_trials_csv", "harness.write"),
    Target("cli", "_write_provenance", "harness.write"),
)

TRIAL_TARGET = "harness.run_trial"


@contextmanager
def rebound(bindings):
    """Rebind (module, attr) -> function for the duration of the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
    try:
        for module, attr, fn in bindings:
            setattr(module, attr, fn)
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def timed(fn, sink):
    """`fn` with the duration of every call appended to `sink`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(perf_counter() - start)

    return wrapper


class Tracer:
    """In-memory span recorder.

    `spans` holds one list per span: [name, start, end, parent, trial, work],
    where parent is the index of the enclosing span on the same thread (or
    None) and trial is (batch, trial index) of the enclosing run_trial.
    """

    def __init__(self, modules):
        self.spans = []
        self.absent = sorted({t.name for t in TARGETS if not hasattr(modules[t.module], t.attr)})
        self._targets = [t for t in TARGETS if t.name not in self.absent]
        self._modules = modules
        self._lock = threading.Lock()
        self._local = threading.local()
        self.batch = None

    @contextmanager
    def recording(self, batch):
        """Trace every target while the block runs; spans carry `batch` in their trial id."""
        self.batch = batch
        bindings = [
            (self._modules[t.module], t.attr, self._wrap(t, getattr(self._modules[t.module], t.attr)))
            for t in self._targets
        ]
        with rebound(bindings):
            yield

    def _wrap(self, target, fn):
        name = target.name
        is_trial = name == TRIAL_TARGET

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            if is_trial:
                trial = (self.batch, args[1])
            else:
                trial = self.spans[parent][4] if parent is not None else None
            work = target.work(args) if target.work else None
            with self._lock:
                index = len(self.spans)
                record = [name, perf_counter(), None, parent, trial, work]
                self.spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced


def layer_totals(spans):
    """Per layer: total seconds, self seconds, calls and work over all spans."""
    layer_of = {t.name: t.layer for t in TARGETS}
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0})
    for index, (name, start, end, _, _, work) in enumerate(spans):
        entry = totals[layer_of[name]]
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["calls"] += 1
        entry["work"] += work or 0
    return dict(totals)

