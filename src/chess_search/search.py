"""Range and k-nearest-neighbor queries over a cluster tree.

``rho_search`` walks the flat pre-order tree with an explicit stack,
descending into a child only when the query ball of radius r can
intersect it, i.e. when the child center lies within
``r + radius[child]`` of the query. Reached leaves are scanned
exhaustively as their slices of the tree's member permutation. When the
distance obeys the triangle inequality this returns exactly the naive
linear-scan result; false positives are impossible for any distance
because every hit is an explicit pairwise comparison against r.

``knn_search`` wraps the range search in a radius-doubling/halving loop
started at the median leaf radius, then keeps the k nearest candidates
with a bounded min-heap selection.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .metrics import ComparisonCounter, MetricKind, distances_to
from .tree import ClusterTree

__all__ = ["SearchReport", "KnnReport", "rho_search", "naive_search", "knn_search"]

# Halving/doubling iterations can never exceed the dynamic range of a
# float64 radius (one halving per representable power of two).
_MAX_RADIUS_STEPS = 1100


@dataclass
class SearchReport:
    """Hits plus instrumentation for one range query."""

    hits: list[tuple[int, float]]  # (point index, distance), sorted by distance
    comparisons: int
    leaves_visited: int
    fraction_searched: float
    wall_time: float

    def hit_indices(self) -> set[int]:
        return {i for i, _ in self.hits}


@dataclass
class KnnReport:
    """The k nearest points plus the radius-search trace that found them."""

    hits: list[tuple[int, float]]
    invocations: int
    final_radius: float
    comparisons: int
    used_fallback: bool = False


def _sorted_hits(indices: np.ndarray, dists: np.ndarray) -> list[tuple[int, float]]:
    order = np.lexsort((indices, dists))
    return [(int(indices[i]), float(dists[i])) for i in order]


def rho_search(tree: ClusterTree, q, r: float, dataset: Dataset) -> SearchReport:
    """All points within distance r of q, found by pruned tree descent.

    The root is always explored; an internal node's child (leaf or not)
    is explored only if ``d(q, center[child]) <= r + radius[child]``.
    Comparisons count every distance evaluation, pruning tests included.
    """
    if r < 0 or not math.isfinite(r):
        raise ValueError(f"search radius must be finite and nonnegative, got {r}")
    query = dataset.coerce_point(q)
    values = dataset.values
    metric = tree.metric
    counter = ComparisonCounter()
    hit_idx: list[np.ndarray] = []
    hit_dist: list[np.ndarray] = []
    leaves_visited = 0
    points_scanned = 0
    started = time.perf_counter()

    # ``item`` reads Python scalars, which keeps the walk's per-node cost
    # close to that of attribute access
    center, radius, size = tree.center.item, tree.radius.item, tree.size.item
    card, order = tree.cardinality.item, tree.order
    stack = [(0, 0)]  # (node, offset of its slice of order)
    while stack:
        node, off = stack.pop()
        if size(node) == 1:
            members = order[off:off + card(node)]
            leaves_visited += 1
            points_scanned += members.size
            dists = distances_to(values[members], query, metric, counter)
            within = dists <= r
            if within.any():
                hit_idx.append(members[within])
                hit_dist.append(dists[within])
            continue
        left = node + 1
        for child, child_off in ((left, off), (left + size(left), off + card(left))):
            c = center(child)
            d_center = float(distances_to(values[c:c + 1], query, metric, counter)[0])
            if d_center <= r + radius(child):
                stack.append((child, child_off))

    if hit_idx:
        hits = _sorted_hits(np.concatenate(hit_idx), np.concatenate(hit_dist))
    else:
        hits = []
    return SearchReport(hits=hits, comparisons=counter.count,
                        leaves_visited=leaves_visited,
                        fraction_searched=points_scanned / dataset.n,
                        wall_time=time.perf_counter() - started)


def naive_search(dataset: Dataset, q, r: float, metric: MetricKind) -> SearchReport:
    """Linear-scan oracle: compares the query to every point, exactly n
    comparisons."""
    if r < 0:
        raise ValueError(f"search radius must be nonnegative, got {r}")
    query = dataset.coerce_point(q)
    counter = ComparisonCounter()
    started = time.perf_counter()
    dists = distances_to(dataset.values, query, metric, counter)
    within = dists <= r
    hits = _sorted_hits(np.flatnonzero(within), dists[within])
    return SearchReport(hits=hits, comparisons=counter.count, leaves_visited=0,
                        fraction_searched=1.0,
                        wall_time=time.perf_counter() - started)


def knn_search(tree: ClusterTree, q, k: int, dataset: Dataset) -> KnnReport:
    """The k nearest stored points, exact under metric distances.

    Starts a range search at the median leaf radius. An over-full ball
    found across several leaves is halved until it holds at most k
    points, then the radius is doubled once; an under-full ball is
    doubled while the radius remains within the root radius. If the ball
    still holds fewer than k points, one naive scan settles the query.
    Ties at the k-th position break toward the lower point index.
    """
    if not 1 <= k <= dataset.n:
        raise ValueError(f"k must be in [1, {dataset.n}], got {k}")

    cache: dict[float, SearchReport] = {}
    state = {"invocations": 0, "comparisons": 0}

    def ball(radius: float) -> SearchReport:
        if radius not in cache:
            report = rho_search(tree, q, radius, dataset)
            state["invocations"] += 1
            state["comparisons"] += report.comparisons
            cache[radius] = report
        return cache[radius]

    root_radius = tree.radius[0]
    rho = tree.median_leaf_radius()
    report = ball(rho)
    steps = 0

    if len(report.hits) > k and report.leaves_visited > 1:
        while len(report.hits) > k and rho > 0 and steps < _MAX_RADIUS_STEPS:
            rho /= 2.0
            report = ball(rho)
            steps += 1
        rho *= 2.0
        report = ball(rho)
    if len(report.hits) < k:
        while (len(report.hits) < k and 0 < rho <= root_radius
               and steps < _MAX_RADIUS_STEPS):
            rho *= 2.0
            report = ball(rho)
            steps += 1

    used_fallback = False
    candidates = report.hits
    if len(candidates) < k:
        used_fallback = True
        full = naive_search(dataset, q, float("inf"), tree.metric)
        state["comparisons"] += full.comparisons
        candidates = full.hits

    nearest = heapq.nsmallest(k, candidates, key=lambda h: (h[1], h[0]))
    nearest.sort(key=lambda h: (h[1], h[0]))
    return KnnReport(hits=nearest, invocations=state["invocations"],
                     final_radius=rho, comparisons=state["comparisons"],
                     used_fallback=used_fallback)
