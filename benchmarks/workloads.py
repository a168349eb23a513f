"""The benchmark's workloads: one generated `blindchan trial` spec each, run in seeded batches.

Every workload runs at SNR 20 dB with a Gaussian source and the default 95th
percentile.  A batch is one spec of `batch_trials` trials; batch b of
benchmark seed s carries spec seed `batch_seed(s, b)`, so a run's inputs
follow from its seed alone and two batches never share an instance.  The
program only ever sees the generated spec file.

The `why` of each workload says which layer it isolates and which ROADMAP
items (2: one eigen service, 3: frequency-domain compression, 4: owning the
thread budget) it should show or bypass.  Later changes cite workloads and
metrics by these names.
"""

import hashlib
from dataclasses import dataclass

#: Batch index of the unmeasured warm-up batch; measured batches count from 0.
WARM_UP_BATCH = -1


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # kebab-case spec keys, without trials and seed
    batch_trials: int  # sized so one serial batch takes at most about a second
    why: str
    orderings: tuple = ()  # (better, worse): the paper's ordering of percentile errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pca_dense",
            config={
                "k": 32, "m": 16, "d": 6, "l-over-k": 20,
                "basis": "pca", "methods": ["cc", "sccc", "ls"],
            },
            batch_trials=2,
            why=(
                "The criterion-11 / pca_snr_sweep cell.  86% of trial time is "
                "spectral.eig_hermitian on 512^2 (cc) and 640^2 (ls) matrices.  "
                "OpenBLAS threads compete with pool threads here, so this is "
                "where ROADMAP items 2 and 4 show."
            ),
            orderings=(("sccc", "cc"), ("sccc", "ls")),
        ),
        Workload(
            name="long_filter",
            config={
                "k": 512, "m": 4, "d": 8, "l-over-k": 8,
                "basis": "gaussian", "methods": ["sccc"],
            },
            batch_trials=4,
            why=(
                "Assembling the 2048^2 Gram (xcorr, about 85% of traced trial "
                "time) and the block compression inside sccc (about 10%) do "
                "the work, while the eigensolve is 32^2 (1%).  Peak RSS is "
                "about 330 MiB against 50-130 MiB elsewhere.  Item 3 shows "
                "here, and item 2 should not move it."
            ),
        ),
        Workload(
            name="small_cells",
            config={
                "k": 32, "m": 4, "d": 8, "l-over-k": 2,
                "basis": "gaussian", "methods": ["sccc", "oracle"],
            },
            batch_trials=100,
            why=(
                "A phase_grid cell below the 3K short-window threshold; trials "
                "take about 3 ms each.  Time is spread over per-call Python "
                "overhead in models/sigops/harness, the oracle's SVD+lstsq, and "
                "32^2 eigensolves (about 18%).  The pool is GIL-bound here.  "
                "This is the bypass workload for items 2 and 3, and the one "
                "where a process pool or per-trial overhead change shows."
            ),
        ),
    )
}

COMMON_CONFIG = {"snr-db": 20, "source": "gaussian", "percentile": 95}


def batch_seed(seed, batch):
    """Spec seed of one batch: a 32-bit digest of (benchmark seed, batch index)."""
    digest = hashlib.sha256(f"blindchan-bench:{seed}:{batch}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def spec_config(workload, seed, batch, trials):
    """The JSON config handed to `blindchan trial` for one batch."""
    return {**workload.config, **COMMON_CONFIG, "trials": trials, "seed": batch_seed(seed, batch)}
