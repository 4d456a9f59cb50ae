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
tree already holds (see ``tree.ClusterTree`` and :func:`rho_search`): a
node's *rings* (GNAT's range tables, Brin, VLDB 1995) prune it without
its center test, and a point's *pivots* (LAESA's pivot table, Micó,
Oncina and Vidal, 1994) stand in for its leaf's center test and rule
it out of the scan.

``knn_search`` makes one range search. A descent toward the query finds
a cluster of at least k points; the k-th smallest distance in it bounds
the k-th nearest distance from above, and the first k hits of a range
search at that bound are the answer. The descent takes the child whose
center is nearer, and a third bound decides many levels untested: a
node's *center pivots*, its center's distances to its nearest ancestors'
centers, bound each child center's distance by the triangle inequality
from the one center on the path last tested, and where one child's bound
lies wholly below the other's, the tests could only confirm it. The
query computes each point's distance once, in few kernel calls: the
descent's center tests and the bound cluster's scan, which takes the
path's untested centers along, go into the range search, whose walk
tests the other centers it needs in one call per depth and whose scan
skips every point whose distance is known. This is exact because the
kernel gives a row the same bits whatever block it comes in (see
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

#: A window that rules nothing out
_OPEN = (-math.inf, math.inf)


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
        return distances_to(values if members is None else values.take(members, axis=0),
                            query, metric, counter)
    out = np.empty(rows)
    for a in range(0, rows, block):
        points = values[a:a + block] if members is None \
            else values.take(members[a:a + block], axis=0)
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
    alone would. A leaf that survives its rings and knows its ring 0 is
    recorded untested:
    its members' pivots stand in for its center test, and its center, a
    member, is scanned once instead of tested and then scanned again.
    Before the scan one filter holds every reached leaf's members to
    their pivots as the rings hold them all, ``|d_a - p| <= d(q, x)``:
    column 0 against the leaf's own center where its distance is known,
    column ``k`` against its ``k``-th ancestor's. Neither bound costs a
    distance. A pivot or ring the tree does not know is nan and bounds
    nothing; a leaf whose ring 0 is not known (a parsed tree before
    ``_load_pass``, a cut) is tested.

    Computed vector distances carry rounding error, so a center that lies
    exactly at ``r + radius`` (collinear points) can read a few ulps
    beyond it; the pruning test therefore allows a relative slack that
    bounds the kernel's rounding, ``4 (dim + 2)`` units of 2**-52. The
    ring and pivot bounds widen each distance by ``eps = slack - 1``: a
    ring prunes when ``hi (1 + eps) < d_a (1 - eps) - r slack`` or ``lo
    (1 - eps) > d_a (1 + eps) + r slack``, solved for ``hi`` and ``lo``
    once into the window ``(low, high)`` of ``d_a``, and a pivot outside
    it rules its member out. Hamming and Levenshtein distances are exact
    integers and get none: the window is ``(d_a - r, d_a + r)``.
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
    # the window (low, high) = (d shrink - inner, d grow + outer) of a
    # distance d: a ring or pivot below low or above high is beyond r slack
    shrink, grow = (1.0 - eps) / (1.0 + eps), (1.0 + eps) / (1.0 - eps)
    inner, outer = r * slack / (1.0 + eps), r * slack / (1.0 - eps)
    # one depth's explored nodes: (node, where its slice of order starts,
    # the windows of the node and its nearest explored ancestors, nearest
    # first, lows and highs in turn). The root is explored untested, and
    # gives no window
    frontier = [(0, 0, ())] if size(0) > 1 else []
    # the reached slices of order: (offset, count, the windows of their
    # members' pivot columns, column 0 first, or () for a contained
    # cluster, whose every member is a hit); a one-node tree scans it all
    reached = [] if frontier else [(0, order.size, ())]
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
                base = width * child
                ring = iter(rings[base:base + len(windows)])
                window = iter(windows)
                for lo, hi, low, high in zip(ring, ring, window, window):
                    if hi < low or lo > high:
                        break
                else:
                    if size(child) > 1 or not windows or rings[base] != rings[base]:
                        new.append(c)
                        children.append((child, at, c, windows))
                    else:  # a leaf whose ring 0 is known: its pivots stand in for a test
                        reached.append((at, card(child), (*_OPEN, *windows[:width - 2])))
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
                windows = (d * shrink - inner, d * grow + outer, *windows[:width - 2])
                if size(child) == 1:
                    reached.append((at, card(child), windows))
                elif d + rad > r:  # explored
                    frontier.append((child, at, windows))
                else:
                    reached.append((at, card(child), ()))  # contained

    # by offset: the scan then reads ``order`` front to back
    reached.sort()
    slices = [order[at:at + count] for at, count, _ in reached]
    members = np.concatenate(slices) if slices else order[:0]
    held = [w + _OPEN * (_RINGS - len(w) // 2) for *_, w in reached if w]
    if held:  # |d_a - pivot| bounds a member's distance from below
        count = [c for _, c, w in reached if w]
        windows = np.array(held)
        low = windows[:, 0::2].repeat(count, axis=0)
        high = windows[:, 1::2].repeat(count, axis=0)
        # the leaves' members, where contained clusters were reached too
        hold = None if len(held) == len(reached) else np.array(
            [bool(w) for *_, w in reached]).repeat([c for _, c, _ in reached])
        # ``take`` gathers rows in a third of fancy indexing's time
        pivots = tree.pivot.take(members if hold is None else members[hold], axis=0)
        out = pivots < low
        out |= pivots > high
        out = out.any(axis=1)
        if hold is not None:
            hold[hold] = out
            out = hold
        members = members[~out]
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
    left), and stops at the last node whose chosen child would hold fewer
    than k points, or whose children both would. The k-th smallest
    distance ``b`` in that node's cluster bounds the k-th nearest distance
    from above, so one range search at ``b`` holds the answer: its first k
    hits, which are sorted by distance and then index, so ties at the k-th
    position go to the lower index. The report's ``final_radius`` is
    ``b``.

    A level's choice costs a kernel call on both child centers unless the
    tree's center pivots decide it. The descent keeps ``d``, its distance
    to the nearest center it has tested on the path, that of the
    children's ``(j + 1)``-th ancestor; a child center ``c`` with center
    pivot ``p = center_pivot[child, j]`` has ``|d - p| <= d(q, c) <= d +
    p``. Where one child's upper bound lies below the other's lower bound,
    the tests could only choose that child, so it is taken untested. Each
    computed distance is widened by the kernel's rounding slack, as the
    ring windows of :func:`rho_search` are (the lower bound ``p shrink -
    d``, the upper ``(d + p) grow``); Hamming and Levenshtein distances are
    exact and get none. A nan pivot (a tree that knows none, or ``j`` past
    ``_RINGS``) decides nothing. The choices, and so the bound cluster,
    ``final_radius`` and hits, are those of a descent that tests every
    level. On ``vec-query`` (500 held-out queries, seed 4, k = 10) they
    decide 7.0 of the descent's 13.0 levels a query, and a query makes 8.5
    kernel calls and 34.8 comparisons, against 15.9 and 41.5.

    Each point's distance is computed once. The descent skips a center it
    has already tested (a child may share its parent's center), and the
    scan of the bound cluster skips the descent's centers and takes the
    path's untested centers along in its kernel call: the range search
    would compute each, as a center test or as a member of a cluster it
    scans. The range search gets every distance computed so far: its walk
    tests only the centers not yet known, one kernel call per depth, and
    its scan covers only points not yet seen. The kernel gives a row the
    same bits in any block, so the answer and its distances are those of a
    search that computed everything anew; ``comparisons`` counts the
    distances actually computed, never more than a descent that tests
    every level makes. As in :func:`rho_search`, the dataset must hold
    exactly the tree's points.
    """
    _check_exact_cover(tree, dataset)
    n = tree.order.size
    if isinstance(k, bool) or not (isinstance(k, numbers.Integral) and 1 <= k <= n):
        raise ValueError(f"k must be an integer in [1, {n}], got {k!r}")
    query = dataset.coerce_point(q)
    values, metric = dataset.values, tree.metric
    center, size, card = tree.center.item, tree.size.item, tree.cardinality.item
    pivot = tree.center_pivot.item
    eps = _rounding_slack(metric, dataset.dim) - 1.0
    shrink, grow = (1.0 - eps) / (1.0 + eps), (1.0 + eps) / (1.0 - eps)
    counter = ComparisonCounter()
    known: dict[int, float] = {}  # point index -> distance to the query

    # d: the distance to the nearest tested center on the path, the
    # children's (j + 1)-th ancestor's; none yet (the root's is not tested)
    node = off = 0
    d, j = math.nan, _RINGS
    untested = []  # the path's centers the table chose
    while size(node) > 1:
        left = node + 1
        right = left + size(left)
        n_left, n_right = card(left), card(right)
        if n_left < k and n_right < k:
            break  # either way, this is the bound cluster
        cl, cr = center(left), center(right)
        go = None  # whether to go right, once decided
        if j < _RINGS:
            # d(q, c) lies within [p shrink - d, (d + p) grow], rounding
            # included, with p its center pivot (its other lower bound, d
            # shrink - p, never passes the sibling's upper bound); a nan
            # decides nothing
            pl, pr = pivot(left, j), pivot(right, j)
            if pr * shrink - d > (d + pl) * grow:
                go = False
            elif pl * shrink - d > (d + pr) * grow:
                go = True
        if go is None:
            new = [c for c in (cl, cr) if c not in known]
            if new:  # ``take`` gathers rows in a third of ``values[new]``'s time
                known.update(zip(new, distances_to(values.take(new, axis=0), query,
                                                   metric, counter).tolist()))
            go = known[cl] > known[cr]  # ties go left
        if go:
            if n_right < k:
                break
            node, off, c = right, off + n_left, cr
        else:
            if n_left < k:
                break
            node, c = left, cl
        if c in known:
            d, j = known[c], 0
        else:
            untested.append(c)
            j += 1

    members = tree.order[off:off + card(node)]
    # the path's centers still untested join the bound cluster's scan: the
    # range search would compute each, as a center test or a member
    fresh = set(untested).difference(known, members.tolist())
    scan = np.concatenate((members, list(fresh))) if fresh else members
    dists, _ = _scan_unseen(values, scan, query, metric, counter, _block_rows(values),
                            known)
    known.update(zip(scan.tolist(), dists.tolist()))
    bound = float(np.partition(dists[:members.size], k - 1)[k - 1])
    report = rho_search(tree, query, bound, dataset, _known=known)
    return KnnReport(hits=report.hits[:k], invocations=1, final_radius=bound,
                     comparisons=counter.count + report.comparisons)
