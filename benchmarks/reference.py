"""Reference table for the benchmark's correctness gate.

For the seeds it ships, `reference.json` holds each batch's per-method
percentile error, median error and degenerate count, as read back from the
trial CSV of the serial pass.  A batch matches when every error statistic is
within ATOL + RTOL * |reference| and every degenerate count is equal.  RTOL
leaves room for reordered floating-point sums (runs at 1 and 2 BLAS threads
differ by about 1e-14 relative) but not for a changed estimate.

Regenerate the table, after a deliberate change of results, with

    python3 benchmarks/reference.py

which runs the serial pass of every shipped (workload, seed, batch).
"""

import json
import math
import statistics
from pathlib import Path

PATH = Path(__file__).with_name("reference.json")
RTOL = 1e-6
ATOL = 1e-9
SHIPPED_SEEDS = range(10)
SHIPPED_BATCHES = 8


def summarize(errors, degenerate, percentile):
    """Per method: nearest-rank percentile error, median error, degenerate count."""
    out = {}
    for method, values in errors.items():
        ranked = sorted(values)
        rank = max(math.ceil(percentile / 100.0 * len(ranked)), 1)
        out[method] = {
            "percentile": ranked[rank - 1],
            "median": statistics.median(ranked),
            "degenerate": sum(degenerate[method]),
        }
    return out


def load():
    with open(PATH) as fh:
        return json.load(fh)


def lookup(table, workload, seed, batch, trials):
    """The reference summary of one batch, or None when the table does not ship it."""
    entry = table.get(workload)
    if entry is None or entry["trials"] != trials:
        return None
    batches = entry["seeds"].get(str(seed), [])
    return batches[batch] if 0 <= batch < len(batches) else None


def misses(summary, expected):
    """Descriptions of every statistic of `summary` outside tolerance of `expected`."""
    found = []
    if sorted(summary) != sorted(expected):
        return [f"methods {sorted(summary)} != reference {sorted(expected)}"]
    for method, ref in expected.items():
        got = summary[method]
        for key in ("percentile", "median"):
            if not abs(got[key] - ref[key]) <= ATOL + RTOL * abs(ref[key]):
                found.append(f"{method} {key} {got[key]!r} != reference {ref[key]!r}")
        if got["degenerate"] != ref["degenerate"]:
            found.append(f"{method} degenerate {got['degenerate']} != reference {ref['degenerate']}")
    return found


def main():
    import run
    from workloads import WORKLOADS

    program = run.import_program()
    table = {}
    for name, workload in WORKLOADS.items():
        seeds = {}
        for seed in SHIPPED_SEEDS:
            with run.BatchRunner(program, workload, seed) as runner:
                seeds[str(seed)] = [
                    runner.run(batch, threads=1).summary() for batch in range(SHIPPED_BATCHES)
                ]
            print(f"{name} seed {seed}: {SHIPPED_BATCHES} batches", flush=True)
        table[name] = {"trials": workload.batch_trials, "seeds": seeds}
    with open(PATH, "w") as fh:
        fh.write(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
