"""Entropy scaling: k-NN cost against data set size and intrinsic dimension.

The paper claims a search cost that is not directly dependent on data
set size but on the data's metric entropy and local fractal dimension.
This demo checks the claim on synthetic manifolds: for intrinsic
dimension d = 1, 2, 3 in 20-D space and n = 5,000 to 40,000 points, it
builds a tree (``BuildConfig(50, 10, 0)``) and runs k = 10 nearest
neighbour queries from 50 stored points. k-NN with a fixed k is used
because a range search's cost includes its output, which grows with n.

Mean comparisons should stay nearly flat in n and rise with d; the
extra levels a larger n needs show up as tree depth (about log n), not
as leaf scans. Wall time is reported too: the per-node Python cost of
the walk makes it grow faster than comparisons do.

The paper's own runs, on APOGEE spectra and GreenGenes 16S sequences,
cannot be reproduced here: those corpora must be downloaded.
"""

import time

import numpy as np

from chess_search import (BuildConfig, MetricKind, build, knn_search,
                          metric_entropy, synth_manifold)

K, QUERIES = 10, 50
SIZES = (5_000, 10_000, 20_000, 40_000)

print(f"{'d':>2} {'n':>6} {'k-NN comps':>10} {'ms/query':>8} "
      f"{'depth':>5} {'leaves':>6}")
for intrinsic_dim in (1, 2, 3):
    means = []
    for n in SIZES:
        dataset = synth_manifold(n, 20, intrinsic_dim, 0, seed=7)
        tree = build(dataset, MetricKind.EUCLIDEAN, BuildConfig(50, 10, 0))
        queries = np.linspace(0, n - 1, QUERIES).astype(int)
        started = time.perf_counter()
        comps = [knn_search(tree, dataset.point(int(i)), K, dataset).comparisons
                 for i in queries]
        ms = (time.perf_counter() - started) * 1e3 / QUERIES
        means.append(float(np.mean(comps)))
        print(f"{intrinsic_dim:>2} {n:>6} {means[-1]:>10.1f} {ms:>8.2f} "
              f"{tree.depth:>5} {metric_entropy(tree):>6}")
    print(f"   d = {intrinsic_dim}: comparisons x{means[-1] / means[0]:.2f} "
          f"while n grows x{SIZES[-1] // SIZES[0]}")
