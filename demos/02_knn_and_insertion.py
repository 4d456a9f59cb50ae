"""Exact k-nearest-neighbor search and live point insertion.

k-NN descends toward the query to a cluster of at least k points, takes
the k-th smallest distance in it as a bound radius, and keeps the first
k hits of one range search at that radius. The range search is handed
every distance the descent and the bound cluster's scan computed. Its
walk tests only the centers not yet known, one kernel call per depth,
and it scans only points not yet seen: each point's distance is
computed once per query, and the answer is the same bit for bit, since
the kernel gives a row the same result in any block. The comparisons
printed count only those distances. Inserting a point is a zero-radius
descent into its leaf, however far outside it the point lands; a leaf
that outgrows twice the build's ``min_size`` splits by the build's own
step. Exits nonzero if any k-NN answer differs from brute force.
"""

import sys

import numpy as np

from chess_search import (BuildConfig, MetricKind, build, insert_point,
                          knn_search, metric_entropy, synth_manifold)


def matches_brute_force(report, query, k) -> bool:
    dists = np.linalg.norm(dataset.values - query, axis=1)
    exact = np.lexsort((np.arange(dataset.n), dists))[:k]
    return [i for i, _ in report.hits] == exact.tolist()


dataset = synth_manifold(n=8_000, embed_dim=40, intrinsic_dim=2, noise=0.01,
                         seed=3)
tree = build(dataset, MetricKind.EUCLIDEAN, BuildConfig(seed=0))
print(f"{dataset.n} points, tree depth {tree.depth}, "
      f"{metric_entropy(tree)} leaves")

rng = np.random.default_rng(9)
query = dataset.point(int(rng.integers(dataset.n))) + 0.001

all_exact = True
for k in (1, 10, 100):
    report = knn_search(tree, query, k, dataset)
    exact = matches_brute_force(report, query, k)
    all_exact &= exact
    print(f"k={k:>3}: bound radius {report.final_radius:.4f}, "
          f"{report.comparisons} comparisons of n = {dataset.n}, "
          f"matches brute force: {exact}")

print("\ninserting 200 points beside 5 stored ones and 3 far outliers...")
leaves_before = metric_entropy(tree)
spots = rng.choice(dataset.n, 5, replace=False)
for i in range(200):
    near = dataset.point(int(spots[i % 5]))
    insert_point(tree, near + rng.normal(0, 0.01, dataset.dim), dataset)
for offset in (1e3, 2e3, 3e3):
    insert_point(tree, dataset.point(0) + offset, dataset)
# a split turns one leaf into two
print(f"the inserts split {metric_entropy(tree) - leaves_before} leaves "
      f"(a leaf splits once it holds more than 2 * min_size = "
      f"{2 * tree.config.min_size} points), n = {dataset.n}")

report = knn_search(tree, query, 5, dataset)
exact = matches_brute_force(report, query, 5)
all_exact &= exact
print(f"post-insert 5-NN still exact: {exact}")
sys.exit(0 if all_exact else 1)
