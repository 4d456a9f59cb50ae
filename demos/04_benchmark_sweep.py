"""Reproduce the benchmark protocol: held-out queries, per-depth sweep.

Fifty points are held out as queries, one tree is built at the deepest
depth and cut at each shallower one (a tree built to depth d is the
depth-d cut of a deeper one), and every cell reports comparison counts,
fraction of data scanned, and the speedup over a naive linear scan. Deeper trees prune harder until the
leaf granularity bottoms out.
"""

import numpy as np

from chess_search import (MetricKind, hold_out, rows_to_csv, run_benchmark,
                          synth_manifold)
from chess_search.metrics import distances_to

dataset = synth_manifold(n=10_000, embed_dim=100, intrinsic_dim=1, noise=0.0,
                         seed=11, density_power=5.0)

# pick radii by target output size: ~10 and ~100 hits per query
held_in, queries = hold_out(dataset, 50, seed=0)
pool = np.sort(np.concatenate(
    [distances_to(held_in.values, q, MetricKind.EUCLIDEAN) for q in queries]))
radii = [float(pool[10 * len(queries)]), float(pool[100 * len(queries)])]
print(f"radii for mean outputs of 10 and 100 hits: "
      f"{radii[0]:.3g}, {radii[1]:.3g}\n")

rows = run_benchmark(dataset, MetricKind.EUCLIDEAN, radii=radii,
                     depths=[0, 10, 20, 30, 40, 50], num_queries=50, seed=0)

print(f"{'depth':>5} {'radius':>10} {'comparisons':>12} {'fraction':>9} "
      f"{'speedup':>8} {'output':>7}")
for row in rows:
    print(f"{row.depth:>5} {row.radius:>10.3g} {row.comparisons_mean:>12.1f} "
          f"{row.fraction_mean:>9.3f} {row.speedup_mean:>8.1f} "
          f"{row.output_mean:>7.1f}")

print("\nfalse positives:", sum(r.false_pos for r in rows),
      "| false negatives:", sum(r.false_neg for r in rows))

with open("benchmark_sweep.csv", "w") as fh:
    fh.write(rows_to_csv(rows))
print("full report written to benchmark_sweep.csv")
