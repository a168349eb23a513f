"""Running a seeded Monte Carlo sweep through the library API.

A compact version of the error-vs-observation-length experiment: the
estimation error of the subspace-constrained method falls as the window
grows while the classical method barely moves.  Rerunning this script gives
bit-identical numbers at any thread count.
"""

import blindchan as bc

spec = bc.ExperimentSpec(
    filter_len=32,
    n_channels=4,
    subspace_dim=8,
    l_over_k=20,
    snr_db=20.0,
    trials=50,
    methods=("cc", "sccc"),
    seed=31,
    sweep=bc.Sweep(param="l-over-k", values=(5, 10, 20)),
)

result = bc.run_experiment(spec, threads=2)

print(f"provenance {result.provenance}  (seed {spec.seed}, {spec.trials} trials/point)\n")
print(f"{'L/K':>5} {'method':>8} {'p95':>10} {'median':>10}")
for row in result.rows:
    print(f"{row['value']:>5} {row['method']:>8} {row['p95']:>10.4f} {row['median']:>10.4f}")

again = bc.run_experiment(spec, threads=1)
assert again.rows == result.rows
print("\nrerun at a different thread count reproduced every number exactly.")
