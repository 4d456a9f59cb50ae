"""Exact k-nearest-neighbor search and live point insertion.

k-NN descends toward the query to a cluster of at least k points, takes
the k-th smallest distance in it as a bound radius, and keeps the first
k hits of one range search at that radius. Inserting a point is a
zero-radius descent; a point landing far outside its leaf starts a new
sibling cluster. Exits nonzero if any k-NN answer differs from brute
force.
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

print("\ninserting 50 on-manifold points and 3 far outliers...")
leaves_before = metric_entropy(tree)
for i in range(50):
    insert_point(tree, dataset.point(int(rng.integers(dataset.n))) + 0.01,
                 dataset)
for offset in (1e3, 2e3, 3e3):
    insert_point(tree, dataset.point(0) + offset, dataset)
print(f"leaves {leaves_before} -> {metric_entropy(tree)} "
      f"(a point beyond twice its leaf radius starts a new cluster), "
      f"n = {dataset.n}")

report = knn_search(tree, query, 5, dataset)
exact = matches_brute_force(report, query, 5)
all_exact &= exact
print(f"post-insert 5-NN still exact: {exact}")
sys.exit(0 if all_exact else 1)
