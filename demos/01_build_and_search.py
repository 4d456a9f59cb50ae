"""Build a cluster tree over a synthetic manifold and run range queries.

The data live on a 1-D manifold folded into 60-D space, so the
hierarchy prunes almost everything: the same hits as a linear scan for
a few percent of the comparisons.
"""

import numpy as np

from chess_search import (BuildConfig, MetricKind, build, metric_entropy,
                          naive_search, rho_search, synth_manifold)

dataset = synth_manifold(n=20_000, embed_dim=60, intrinsic_dim=1, noise=0.0,
                         seed=7, density_power=4.0)
print(f"dataset: {dataset.n} points in {dataset.dim}-D")

tree = build(dataset, MetricKind.EUCLIDEAN, BuildConfig(max_depth=50,
                                                        min_size=10, seed=0))
print(f"tree: depth {tree.depth}, {metric_entropy(tree)} leaf clusters, "
      f"{tree.build_comparisons} build comparisons "
      f"(bound {3 * (tree.depth + 1) * dataset.n + dataset.n})")
print(f"leaf radius: mean {tree.mean_leaf_radius():.4f}, "
      f"median {tree.median_leaf_radius():.4f}")

rng = np.random.default_rng(1)
query = dataset.point(int(rng.integers(dataset.n))) + 1e-6
radius = 0.05

pruned = rho_search(tree, query, radius, dataset)
oracle = naive_search(dataset, query, radius, MetricKind.EUCLIDEAN)

print(f"\nrange query, r = {radius}")
print(f"  pruned search: {len(pruned.hits)} hits, "
      f"{pruned.comparisons} comparisons, "
      f"{pruned.fraction_searched:.2%} of data scanned, "
      f"{pruned.leaves_visited} blocks scanned")
print(f"  linear scan:   {len(oracle.hits)} hits, "
      f"{oracle.comparisons} comparisons")
print(f"  hit sets identical: {pruned.hits == oracle.hits}")
print(f"  comparison-count speedup: "
      f"{oracle.comparisons / pruned.comparisons:.1f}x")
