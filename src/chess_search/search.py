"""Range and k-nearest-neighbor queries over a cluster tree.

``rho_search`` walks the flat pre-order tree with an explicit stack,
testing each child center against the query and applying three rules:
a child the query ball of radius r cannot intersect (center farther
than ``r + radius[child]``, up to the rounding of a floating-point
distance) is pruned; a child the ball wholly contains
(``d + radius[child] <= r``) has every leaf of its subtree scanned
without testing any center below it; any other child is descended into.
Reached leaves are scanned exhaustively as their slices of the tree's
member permutation. When the distance obeys the triangle inequality
this returns exactly the naive linear-scan result; false positives are
impossible for any distance because every hit is an explicit pairwise
comparison against r.

``knn_search`` makes one range search. A descent toward the query finds
a cluster of at least k points; the k-th smallest distance in it bounds
the k-th nearest distance from above, and the first k hits of a range
search at that bound are the answer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .metrics import ComparisonCounter, MetricKind, distances_to
from .tree import ClusterTree

__all__ = ["SearchReport", "KnnReport", "rho_search", "naive_search", "knn_search"]


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
    """The k nearest points, the bound radius that found them and the
    comparisons spent.

    ``invocations`` (always 1: one range search per query) and
    ``used_fallback`` (always False) stay only because the benchmark
    harness reads them.
    """

    hits: list[tuple[int, float]]
    invocations: int
    final_radius: float
    comparisons: int
    used_fallback: bool = False


def _sorted_hits(indices: np.ndarray, dists: np.ndarray) -> list[tuple[int, float]]:
    order = np.lexsort((indices, dists))
    return list(zip(indices[order].tolist(), dists[order].tolist()))


def _check_radius(r: float) -> None:
    if r < 0 or not math.isfinite(r):
        raise ValueError(f"search radius must be finite and nonnegative, got {r}")


def rho_search(tree: ClusterTree, q, r: float, dataset: Dataset) -> SearchReport:
    """All points within distance r of q, found by pruned tree descent.

    The root is always explored. Each child of an explored internal node
    has its center tested once, and with ``d = d(q, center[child])``:

    - if ``d + radius[child] <= r`` the ball holds the whole cluster, so
      under the triangle inequality every descendant would pass its own
      test: the leaves of the child's subtree are scanned and no center
      below the child is tested;
    - else if ``d <= r + radius[child]`` the child is explored;
    - else it is pruned.

    Computed vector distances carry rounding error, so a center that lies
    exactly at ``r + radius`` (collinear points) can read a few ulps
    beyond it; the pruning test therefore allows a relative slack that
    bounds the kernel's rounding, ``4 (dim + 2)`` units of 2**-52.
    Hamming and Levenshtein distances are exact integers and get none.
    The containment test needs no slack: a leaf's points still each
    pass ``<= r`` on their own, and under a distance that breaks the
    triangle inequality (cosine) it can only add scanned leaves.
    Comparisons count the center tests actually made plus the points
    scanned, one kernel call per test and one per leaf.
    """
    _check_radius(r)
    query = dataset.coerce_point(q)
    values = dataset.values
    metric = tree.metric
    slack = 1.0 + 4 * (dataset.dim + 2) * 2.0 ** -52 if metric.for_vectors else 1.0
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
    sizes, cards = tree.size, tree.cardinality
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
            rad = radius(child)
            if d_center + rad <= r and size(child) > 1:
                # contained (a contained leaf takes the plain branch): push
                # the subtree's leaves, whose slices of order follow one
                # another from the child's offset
                subtree = sizes[child:child + size(child)]
                leaves = child + np.flatnonzero(subtree == 1)
                leaf_cards = cards[leaves]
                starts = child_off + np.cumsum(leaf_cards) - leaf_cards
                stack.extend(zip(leaves.tolist(), starts.tolist()))
            elif d_center <= (r + rad) * slack:
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
    _check_radius(r)
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

    Descends from the root toward the nearer child center (ties going
    left), one kernel call on both child centers per level, and stops at
    the last node whose chosen child would hold fewer than k points. The
    k-th smallest distance ``b`` in that node's cluster bounds the k-th
    nearest distance from above, so one range search at ``b`` holds the
    answer: its first k hits, which are sorted by distance and then
    index, so ties at the k-th position go to the lower index. The
    report's ``final_radius`` is ``b``. Under cosine distance, which
    breaks the triangle inequality, the range search may miss points
    within ``b``, so the answer may be inexact or hold fewer than k.
    """
    if not 1 <= k <= dataset.n:
        raise ValueError(f"k must be in [1, {dataset.n}], got {k}")
    query = dataset.coerce_point(q)
    values, metric = dataset.values, tree.metric
    center, size, card = tree.center, tree.size, tree.cardinality
    counter = ComparisonCounter()

    node = off = 0
    while size[node] > 1:
        left = node + 1
        right = left + int(size[left])
        d_left, d_right = distances_to(values[center[[left, right]]], query,
                                       metric, counter).tolist()
        child, child_off = (left, off) if d_left <= d_right \
            else (right, off + int(card[left]))
        if card[child] < k:
            break
        node, off = child, child_off

    members = tree.order[off:off + int(card[node])]
    dists = distances_to(values[members], query, metric, counter)
    bound = float(np.partition(dists, k - 1)[k - 1])
    report = rho_search(tree, query, bound, dataset)
    return KnnReport(hits=report.hits[:k], invocations=1, final_radius=bound,
                     comparisons=counter.count + report.comparisons)
