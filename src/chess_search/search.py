"""Range and k-nearest-neighbor queries over a cluster tree.

``rho_search`` has two stages, as entropy-scaling search does. The
coarse stage walks the flat pre-order tree one depth at a time, from
the root's children on. At each depth it tests the centers of the
children of the nodes it explored at the depth before, and each child
has one of three outcomes. A child the query ball of radius r cannot
intersect (center farther than ``r + radius[node]``, up to the rounding
of a floating-point distance) is pruned with its subtree. A leaf, or a
node the ball wholly contains (``d + radius[node] <= r``), has its
slice of the tree's member permutation recorded, and no center below
it is tested. Any other node is explored: its children are decided at
the next depth. The fine stage sorts the recorded slices by their
offsets, joins them and scans them in one pass, one kernel call per
block of at most ``_BLOCK_BYTES`` of rows (the build's block size).
Every offered distance obeys the triangle inequality, so this returns
exactly the naive linear-scan result.

Two more triangle-inequality bounds rule out work with distances the
tree already holds. Each node has a *ring* against each of its eight
nearest ancestors: the range ``[lo, hi]`` of its members' distances to
that ancestor's center (GNAT's range tables, Brin, VLDB 1995). The
walk's frontier carries, for each explored node, the distances ``d_a``
of it and its nearest explored ancestors, turned once into windows; a
child is pruned without its center test when any ring puts every
member's ``max(d_a - hi, lo - d_a)`` beyond ``r``. A reached leaf's
member whose *spoke* (its distance to the leaf's center, ``d``) puts
``|d - spoke|`` beyond ``r`` cannot be a hit, and is not scanned
(M-tree's parent-distance filter, Ciaccia, Patella and Zezula, VLDB
1997). The build and inserts keep spokes and rings from distances they
compute anyway; one not known is nan, which rules nothing out (see
``tree.ClusterTree``).

``knn_search`` makes one range search. A descent toward the query finds
a cluster of at least k points; the k-th smallest distance in it bounds
the k-th nearest distance from above, and the first k hits of a range
search at that bound are the answer. The query computes each point's
distance once, in few kernel calls: the descent's center tests and the
bound cluster's scan go into the range search, whose walk tests the
other centers it needs in one call per depth and whose scan skips every
point whose distance is known. This is exact because the kernel gives a
row the same bits whatever block it comes in (see
``metrics.distances_to``), so a distance read back equals the one a new
kernel call would compute.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .data import Dataset
from .metrics import ComparisonCounter, MetricKind, _rounding_slack, distances_to
from .tree import _RINGS, ClusterTree, _block_rows, _check_exact_cover

__all__ = ["SearchReport", "KnnReport", "rho_search", "naive_search", "knn_search"]


@dataclass
class SearchReport:
    """Hits plus instrumentation for one range query. ``leaves_visited``
    counts the kernel calls that scanned points: the scanned points go to
    the kernel in blocks of at most ``_BLOCK_BYTES`` of rows, one call per
    block (the benchmark reads the name)."""

    hits: list[tuple[int, float]]  # (point index, distance), sorted by distance
    comparisons: int
    leaves_visited: int
    fraction_searched: float

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
    """``(index, distance)`` pairs of distinct indices, ordered by
    distance and then index."""
    # the methods and ``count_nonzero`` skip wrappers that cost more than
    # the sort itself on the few hits of a narrow query
    order = dists.argsort()
    indices, dists = indices[order], dists[order]
    tied = dists[1:] == dists[:-1]
    if np.count_nonzero(tied):
        # number the runs of equal distances, then order by (run, index)
        run = np.concatenate(([0], np.cumsum(~tied)))
        order = (run * (int(indices.max()) + 1) + indices).argsort()
        indices, dists = indices[order], dists[order]
    return list(zip(indices.tolist(), dists.tolist()))


def _scan(values: np.ndarray, members: np.ndarray | None, query, metric: MetricKind,
          counter: ComparisonCounter, block: int) -> np.ndarray:
    """Distances from ``query`` to ``values[members]``, or to every row of
    ``values`` when ``members`` is None, one kernel call per ``block``
    rows. Blocks of ``_block_rows(values)`` keep each call's gathered
    rows and temporaries in cache and below glibc's mmap threshold, as
    the build's do, instead of mapping and faulting them in anew.
    """
    rows = len(values) if members is None else members.size
    if rows <= block:
        return distances_to(values if members is None else values[members],
                            query, metric, counter)
    out = np.empty(rows)
    for a in range(0, rows, block):
        points = values[a:a + block] if members is None \
            else values[members[a:a + block]]
        out[a:a + block] = distances_to(points, query, metric, counter)
    return out


def _scan_unseen(values: np.ndarray, members: np.ndarray, query, metric: MetricKind,
                 counter: ComparisonCounter, block: int,
                 known: dict[int, float]) -> tuple[np.ndarray, int]:
    """Distances from ``query`` to ``values[members]``: a point's is read
    from ``known`` (point index to distance) where it is there, and the
    others are scanned by :func:`_scan`. Also returns how many were
    scanned."""
    if not known:
        return _scan(values, members, query, metric, counter, block), members.size
    # a distance is never NaN: the dataset's values are finite and bounded
    dists = np.fromiter(map(known.get, members.tolist(), repeat(math.nan)),
                        float, members.size)
    unseen = np.isnan(dists)
    scanned = int(np.count_nonzero(unseen))
    if scanned:
        dists[unseen] = _scan(values, members[unseen], query, metric, counter, block)
    return dists, scanned


def _check_radius(r: float) -> None:
    if r < 0 or not math.isfinite(r):
        raise ValueError(f"search radius must be finite and nonnegative, got {r}")


def rho_search(tree: ClusterTree, q, r: float, dataset: Dataset, *,
               _known: dict[int, float] | None = None) -> SearchReport:
    """All points within distance r of q, found by pruned tree descent.

    The walk goes one depth at a time. The root is always explored; each
    child of an explored internal node is decided once, with ``d =
    d(q, center[child])``:

    - if ``d + radius[child] <= r`` the ball holds the whole cluster, so
      under the triangle inequality every descendant would pass its own
      test: the child's slice of ``order`` is scanned whole and no
      center below the child is tested;
    - else if ``d <= r + radius[child]`` the child is explored, and its
      children are decided at the next depth;
    - else it is pruned.

    ``d`` costs a center test unless it is known: a child that shares its
    parent's center (or any center tested before) reads it back. Nodes
    share a center only if one is the other's ancestor, so the order in
    which a depth's children are decided changes no decision. A child
    whose center is not known is first held to its rings: ring ``k`` is
    ``[lo, hi]`` of its members' distances to the center of its ``(k +
    1)``-th nearest ancestor, and every member ``x`` has ``d(q, x) >=
    max(d_a - hi, lo - d_a)`` by the triangle inequality, with ``d_a``
    that ancestor's distance, so when that lower bound already exceeds
    ``r`` for any ``k`` the child is pruned untested. The root's center is
    never tested, so its children have no ring to meet. Each explored
    node turns its distance into a window once, and its children and
    their descendants, eight levels down, meet it ring by ring. Every
    member lies within ``radius`` of the child's center, itself a member,
    so the parent's ring lies within ``radius`` of the center's own
    distance to the parent's: the rings prune every child that distance
    alone would. A reached leaf's members are held to their spokes the
    same way: ``|d - spoke| <= d(q, x)``, so a member whose bound exceeds
    ``r`` is not scanned. Neither bound costs a distance; each costs a
    few float operations, per ring of a child and, for spokes, per
    member of a reached leaf that can lose one (``d > r`` or ``radius - d
    > r``). A spoke or ring that the tree does not know is nan (see
    ``ClusterTree``), and bounds nothing.

    Computed vector distances carry rounding error, so a center that lies
    exactly at ``r + radius`` (collinear points) can read a few ulps
    beyond it; the pruning test therefore allows a relative slack that
    bounds the kernel's rounding, ``4 (dim + 2)`` units of 2**-52. The
    ring and spoke bounds widen each distance by the same relative
    amount, ``eps = slack - 1``, and are compared with the slackened ``r
    slack``: a ring prunes when ``hi (1 + eps) < d_a (1 - eps) - r slack``
    or ``lo (1 - eps) > d_a (1 + eps) + r slack``, which the window
    ``(low, high)`` of ``d_a`` holds solved for ``hi`` and ``lo``, and a
    spoke when ``|d - spoke| - eps (d + spoke) > r slack``. Hamming and
    Levenshtein distances are exact integers and get none; the window is
    then ``(d_a - r, d_a + r)`` exactly.
    The containment test needs no slack: a contained cluster's points
    still each pass ``<= r`` on their own. The walk scans nothing: it
    records the slice of ``order`` of each leaf reached and each
    contained cluster, and after it one scan covers them all, in the
    order of their offsets in ``order``.
    Comparisons count the center tests actually made plus the points
    scanned, one kernel call per test and one per block of the scanned
    points; ``fraction_searched`` is the share of the dataset scanned.
    A search does not write to the tree. A dataset other than exactly the
    points the tree covers is a :class:`DimensionError`, not a search
    that misses the points appended since the tree last grew.

    ``_known`` serves :func:`knn_search` alone: distances from this same
    query, keyed by point index, that it has already computed, and the
    query it has already coerced. The walk reads a center's distance from
    it instead of testing the center, tests each depth's other centers in
    one kernel call and adds them to it; the scan reads every point found
    there and computes only the others. The kernel's results do not
    depend on the block a row comes in, so the hits are those of a search
    without it, bit for bit.
    """
    _check_radius(r)
    _check_exact_cover(tree, dataset)
    # :func:`knn_search` passes the query it has coerced already
    query = dataset.coerce_point(q) if _known is None else q
    values = dataset.values
    metric = tree.metric
    slack = _rounding_slack(metric, dataset.dim)
    eps = slack - 1.0
    counter = ComparisonCounter()
    # this query's distances by point index: the walk's center tests, and
    # for k-NN what it computed before the search
    known = {} if _known is None else _known

    # ``item`` reads Python scalars, which keeps the walk's per-node cost
    # close to that of attribute access
    center, radius, size = tree.center.item, tree.radius.item, tree.size.item
    card, order = tree.cardinality.item, tree.order
    # a node's rings, nearest ancestor first, are the ``width`` floats from
    # ``width * node``: lo and hi in turn
    width = 2 * _RINGS
    rings = memoryview(tree.ring.reshape(-1))
    # a ring [lo, hi] puts every member beyond r when hi < low or lo > high,
    # with low = d shrink - inner and high = d grow + outer the window of its
    # ancestor's distance d: hi (1 + eps) < d (1 - eps) - r slack and lo (1 -
    # eps) > d (1 + eps) + r slack, solved for hi and lo once per explored node
    shrink, grow = (1.0 - eps) / (1.0 + eps), (1.0 + eps) / (1.0 - eps)
    inner, outer = r * slack / (1.0 + eps), r * slack / (1.0 - eps)
    # one depth's explored nodes: (node, where its slice of order starts,
    # the windows of the node and its nearest explored ancestors, nearest
    # first, lows and highs in turn). The root is explored untested, and
    # gives no window
    frontier = [(0, 0, ())] if size(0) > 1 else []
    # the reached slices of order, (offset, count, distance of their
    # leaf's center), nan for a contained cluster, whose every member is
    # a hit; a one-node tree scans it all
    reached = [] if frontier else [(0, order.size, math.nan)]
    lossy = False  # whether the spoke filter can drop a reached leaf's point
    while frontier:
        children, new = [], []  # the children not pruned by rings; untested centers
        for node, off, windows in frontier:
            left = node + 1
            for child, at in ((left, off), (left + size(left), off + card(left))):
                c = center(child)
                if c in known:
                    children.append((child, at, c, windows))
                    continue
                # each ring bounds every member's distance from below; a nan
                # one bounds nothing. Ring k meets window k
                ring = iter(rings[width * child:width * child + len(windows)])
                window = iter(windows)
                for lo, hi, low, high in zip(ring, ring, window, window):
                    if hi < low or lo > high:
                        break
                else:
                    new.append(c)
                    children.append((child, at, c, windows))
        if new:
            if _known is None:
                # one kernel call per center: the benchmark harness counts a
                # range read's center tests as its kernel calls less its scan
                # blocks. ROADMAP item 2a has it read them from the report,
                # and deletes this branch
                for c in new:
                    known[c] = float(distances_to(values[c:c + 1], query, metric,
                                                  counter)[0])
            else:
                known.update(zip(new, distances_to(values.take(new, axis=0), query,
                                                   metric, counter).tolist()))
        frontier = []
        for child, at, c, windows in children:
            d, rad = known[c], radius(child)
            if d <= (r + rad) * slack:  # else pruned
                if size(child) > 1:
                    if d + rad > r:  # explored
                        frontier.append((child, at, (d * shrink - inner, d * grow + outer,
                                                     *windows[:width - 2])))
                        continue
                    reached.append((at, card(child), math.nan))  # contained
                else:  # a leaf: its spokes can rule members out
                    reached.append((at, card(child), d))
                    lossy = lossy or d > r or rad - d > r

    # by offset: the scan then reads ``order`` front to back
    reached.sort()
    slices = [order[at:at + count] for at, count, _ in reached]
    members = np.concatenate(slices) if slices else order[:0]
    if lossy:  # |d - spoke| bounds a member's distance from below
        d = np.array([d_leaf for *_, d_leaf in reached]).repeat(
            [part.size for part in slices])
        s = tree.spoke[members]
        members = members[~(np.abs(d - s) - eps * (d + s) > r * slack)]
    if not members.size:
        return SearchReport(hits=[], comparisons=counter.count, leaves_visited=0,
                            fraction_searched=0.0)
    block = _block_rows(values)
    # a plain search's scan looks up none of its own center tests: on the
    # vec-query range reads, a lookup per member cost 15-30% more time to
    # save 0.7% of the comparisons (2-core x86 VM)
    dists, scanned = _scan_unseen(values, members, query, metric, counter, block,
                                  known if _known is not None else {})
    within = dists <= r
    return SearchReport(hits=_sorted_hits(members[within], dists[within]),
                        comparisons=counter.count,
                        leaves_visited=-(-scanned // block),
                        fraction_searched=scanned / dataset.n)


def naive_search(dataset: Dataset, q, r: float, metric: MetricKind) -> SearchReport:
    """Linear-scan oracle: compares the query to every point, exactly n
    comparisons, scanning ``values`` in the blocks a search scans in."""
    _check_radius(r)
    query = dataset.coerce_point(q)
    values = dataset.values
    counter = ComparisonCounter()
    block = _block_rows(values)
    dists = _scan(values, None, query, metric, counter, block)
    within = dists <= r
    hits = _sorted_hits(np.flatnonzero(within), dists[within])
    return SearchReport(hits=hits, comparisons=counter.count,
                        leaves_visited=-(-len(values) // block), fraction_searched=1.0)


def knn_search(tree: ClusterTree, q, k: int, dataset: Dataset) -> KnnReport:
    """The k nearest stored points, exactly as a brute-force scan ranks them.

    Descends from the root toward the nearer child center (ties going
    left), one kernel call on both child centers per level, and stops at
    the last node whose chosen child would hold fewer than k points. The
    k-th smallest distance ``b`` in that node's cluster bounds the k-th
    nearest distance from above, so one range search at ``b`` holds the
    answer: its first k hits, which are sorted by distance and then
    index, so ties at the k-th position go to the lower index. The
    report's ``final_radius`` is ``b``.

    Each point's distance is computed once. The descent skips a center it
    has already tested (a child may share its parent's center), and the
    scan of the bound cluster skips the descent's centers. The range
    search gets every distance computed so far: its walk tests only the
    centers not yet known, one kernel call per depth, and its scan covers
    only points not yet seen. The kernel gives a row the same bits in any
    block, so the answer and its distances are those of a search that
    computed everything anew; ``comparisons`` counts the distances
    actually computed. As in :func:`rho_search`, the dataset must hold
    exactly the tree's points.
    """
    _check_exact_cover(tree, dataset)
    n = tree.order.size
    if isinstance(k, bool) or not (isinstance(k, numbers.Integral) and 1 <= k <= n):
        raise ValueError(f"k must be an integer in [1, {n}], got {k!r}")
    query = dataset.coerce_point(q)
    values, metric = dataset.values, tree.metric
    center, size, card = tree.center.item, tree.size.item, tree.cardinality.item
    counter = ComparisonCounter()
    known: dict[int, float] = {}  # point index -> distance to the query

    node = off = 0
    while size(node) > 1:
        left = node + 1
        right = left + size(left)
        pair = center(left), center(right)
        new = [c for c in pair if c not in known]
        if new:  # ``take`` gathers rows in a third of ``values[new]``'s time
            known.update(zip(new, distances_to(values.take(new, axis=0), query, metric,
                                               counter).tolist()))
        child, child_off = (left, off) if known[pair[0]] <= known[pair[1]] \
            else (right, off + card(left))
        if card(child) < k:
            break
        node, off = child, child_off

    members = tree.order[off:off + card(node)]
    dists, _ = _scan_unseen(values, members, query, metric, counter,
                            _block_rows(values), known)
    known.update(zip(members.tolist(), dists.tolist()))
    bound = float(np.partition(dists, k - 1)[k - 1])
    report = rho_search(tree, query, bound, dataset, _known=known)
    return KnnReport(hits=report.hits[:k], invocations=1, final_radius=bound,
                     comparisons=counter.count + report.comparisons)
