import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chess_search import (BuildConfig, ClusterTree, Dataset, DimensionError,
                          MetricKind, build, insert_point, knn_search,
                          naive_search, rho_search, synth_manifold)
from chess_search import search
from chess_search import tree as tree_mod
from chess_search.metrics import _coordinate_bound, distances_to
from chess_search.tree import (_RINGS, _block_rows, _spokes, _truncated, deserialize,
                               serialize, tree_from_bytes, tree_to_bytes)

from conftest import (ancestors, brute_force_knn, checked_spokes, node_members,
                      reference_spokes, synth_aligned_strings)

E = MetricKind.EUCLIDEAN


@pytest.fixture(scope="module")
def small_manifold():
    ds = synth_manifold(1000, 40, 1, 0.02, seed=101, density_power=2.0)
    tree = build(ds, E, BuildConfig(max_depth=30, min_size=8, seed=7))
    return ds, tree


def test_zero_radius_finds_stored_point(small_manifold):
    ds, tree = small_manifold
    report = rho_search(tree, ds.values[17], 0.0, ds)
    assert (17, 0.0) in report.hits
    for idx, dist in report.hits:
        assert dist == 0.0
        assert np.array_equal(ds.values[idx], ds.values[17])


def test_ball_covering_everything_returns_all(small_manifold):
    ds, tree = small_manifold
    q = ds.values[0]
    r = tree.radius[0] + float(np.linalg.norm(q - ds.values[tree.center[0]]))
    report = rho_search(tree, q, r, ds)
    assert len(report.hits) == ds.n
    assert report.fraction_searched == 1.0
    # well past covering, both root children lie inside the ball: their
    # two center tests are the only ones, then every leaf is scanned
    report = rho_search(tree, q, 4 * r, ds)
    assert len(report.hits) == ds.n
    assert report.comparisons == ds.n + 2


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The row count of every kernel call the search module makes."""
    rows: list[int] = []

    def counted(points, q, kind, counter=None):
        rows.append(len(points))
        return distances_to(points, q, kind, counter)

    monkeypatch.setattr(search, "distances_to", counted)
    return rows


def scan_blocks(scanned: int, block: int) -> list[int]:
    """Row counts of the kernel calls of one pass over ``scanned`` points
    in blocks of ``block`` rows: every call a full block but the last."""
    return [min(block, scanned - a) for a in range(0, scanned, block)]


def test_contained_cluster_is_scanned_in_blocks(small_manifold, kernel_calls):
    # both root children lie inside the ball: two center tests, then one
    # pass over both children's slices of order, one kernel call per block
    # of rows. Scanned slice by slice, the pass would take more calls
    ds, tree = small_manifold
    q = ds.values[5]
    r = 2 * tree.radius[0]
    block = _block_rows(ds.values)
    blocks = -(-ds.n // block)
    children = (1, 1 + int(tree.size[1]))
    assert 2 < blocks < sum(-(-int(tree.cardinality[c]) // block) for c in children)
    report = rho_search(tree, q, r, ds)
    assert kernel_calls == [1, 1] + scan_blocks(ds.n, block)
    assert max(kernel_calls) <= block
    assert report.leaves_visited == blocks
    assert report.comparisons == ds.n + 2
    assert report.hits == naive_search(ds, q, r, E).hits


def test_query_pruned_at_the_root_makes_no_scan_call(small_manifold, kernel_calls):
    # both root children pruned: two center tests and no scan, not an
    # empty one, so kernel calls less leaves visited still count the tests
    ds, tree = small_manifold
    report = rho_search(tree, ds.values[0] + 100.0, 0.5, ds)
    assert kernel_calls == [1, 1]
    assert report.hits == []
    assert (report.comparisons, report.leaves_visited, report.fraction_searched) \
        == (2, 0, 0.0)


@pytest.mark.parametrize("metric", [E, MetricKind.CHORD, MetricKind.HAMMING,
                                    MetricKind.LEVENSHTEIN])
def test_walk_reconciles_kernel_calls(metric, kernel_calls):
    # the identities the benchmark harness checks on traced range reads:
    # every kernel call is a center test or a block of the one scan pass,
    # which follows the last center test, and kernel rows are comparisons.
    # In 120 dimensions a block holds 85 rows, so the pass spans several
    # blocks; a string block holds every point, so the pass is one call
    if metric.for_vectors:
        corpora = [synth_manifold(600, dim, 1, 0.02, seed=13, density_power=2.0)
                   for dim in (10, 120)]
    else:
        corpora = [synth_aligned_strings(300, 60, 4, 0.05, seed=13)]
    for ds in corpora:
        tree = build(ds, metric, BuildConfig(max_depth=20, min_size=4, seed=3))
        block = _block_rows(ds.values)
        top = 4 * tree.radius[0]  # contains both root children for any stored query
        radii = [0.0, *(top * 2.0 ** -np.arange(12, -1, -1))]
        for i in (0, 101, 277):
            for r in radii:
                kernel_calls.clear()
                report = rho_search(tree, ds.values[i], r, ds)
                scanned = round(report.fraction_searched * ds.n)
                center_tests = len(kernel_calls) - report.leaves_visited
                assert center_tests + scanned == report.comparisons
                assert report.leaves_visited == -(-scanned // block)
                assert kernel_calls == [1] * center_tests + scan_blocks(scanned, block)
                assert sum(kernel_calls) == report.comparisons
                assert max(kernel_calls) <= block
                assert report.hits == naive_search(ds, ds.values[i], r, metric).hits
            assert report.leaves_visited == -(-ds.n // block)
        if ds.dim > 100:
            assert report.leaves_visited > 2


def reference_walk(tree: ClusterTree, dists: np.ndarray, r: float, slack: float,
                   pivot: np.ndarray, ring: np.ndarray,
                   ) -> tuple[list[int], np.ndarray, tuple[int, int]]:
    """The nodes whose centers a range search tests, in pre-order; the
    positions in ``order`` of the points it scans, ascending; and how
    many nodes the rings prune and points the pivots rule out. ``dists``
    holds the query's distance to every point, ``pivot`` and ``ring`` the
    tree's (see ``reference_spokes``; nan where the tree does not know
    one, which rules nothing out) and ``slack`` the pruning test's
    rounding allowance; ``eps = slack - 1`` widens the triangle bounds.

    A node is reached when its parent is explored. Its center is not
    tested again if a node before it had the same center. Otherwise it is
    pruned untested if one of its rings ``[lo, hi]``, the one against an
    ancestor ``a`` other than the root (which is explored untested), puts
    every member beyond ``r``: ``hi (1 + eps) < d(a) (1 - eps) - r slack``
    or ``lo (1 - eps) > d(a) (1 + eps) + r slack``, solved for ``hi`` and
    ``lo`` as the search solves them, into the window ``(d(a) shrink -
    inner, d(a) grow + outer)``. A leaf that survives its rings, has an
    ancestor other than the root and knows its ring 0 is reached without
    its center test; every other node's center is tested. A reached leaf
    does not scan a member one of whose pivot columns lies outside its
    window: column 0 that of the leaf's own center, where its distance is
    known, and column ``k`` that of its ``k``-th ancestor, but the root. A
    contained cluster scans all."""
    eps = slack - 1.0
    shrink, grow = (1.0 - eps) / (1.0 + eps), (1.0 + eps) / (1.0 - eps)
    inner, outer = r * slack / (1.0 + eps), r * slack / (1.0 - eps)
    nodes = tree.size.size
    chains = ancestors(tree)
    leaf_card = np.where(tree.size == 1, tree.cardinality, 0)
    start = np.cumsum(leaf_card) - leaf_card  # where each node's slice begins
    explored = np.zeros(nodes, dtype=bool)
    explored[0] = nodes > 1  # the root, untested
    tested, seen = [], set()
    scanned = [] if nodes > 1 else [np.arange(tree.order.size)]
    by_ring = by_pivot = 0
    for node in range(1, nodes):
        if not explored[chains[node][0]]:
            continue
        c, rad = tree.center[node], tree.radius[node]
        leaf = tree.size[node] == 1
        d_a = dists[tree.center[chains[node][:-1]]]  # but the root's
        d = dists[c]
        if c not in seen:
            near = d_a[:ring.shape[1]]
            lo, hi = ring[node, :near.size, 0], ring[node, :near.size, 1]
            if ((hi < near * shrink - inner) | (lo > near * grow + outer)).any():
                by_ring += 1
                continue
            if leaf and d_a.size and not np.isnan(ring[node, 0, 0]):
                d = None  # reached untested
            else:
                tested.append(node)
                seen.add(c)
        if d is not None and d > (r + rad) * slack:
            continue
        span = start[node] + np.arange(tree.cardinality[node])
        if leaf:
            p = pivot[tree.order[span]]
            centers = [(0, d)] if d is not None else []
            centers += list(enumerate(d_a[:pivot.shape[1] - 1], start=1))
            out = np.zeros(span.size, dtype=bool)
            for k, d_k in centers:
                out |= (p[:, k] < d_k * shrink - inner) | (p[:, k] > d_k * grow + outer)
            by_pivot += int(np.count_nonzero(out))
            scanned.append(span[~out])
        elif d + rad > r:
            explored[node] = True
        else:
            scanned.append(span)
    positions = np.concatenate(scanned) if scanned else np.zeros(0, dtype=np.int64)
    return tested, positions, (by_ring, by_pivot)


@pytest.fixture()
def walk_order(monkeypatch):
    """``rho_search``, checking its walk and its scan against
    :func:`reference_walk`, on the tree's pivots and rings: each must be
    nan (not known) or equal what ``reference_spokes`` computes anew, and
    the search must leave their bytes as they were. Its one-row center tests,
    each named by the point its row views, are the reference's tested
    centers by depth, and at each depth in pre-order, so every depth's
    centers are tested before the next depth's. Its one scan pass gets
    the reference's points, at strictly increasing offsets in ``order``.
    ``skips`` sums the reference's nodes pruned by rings and points ruled
    out by pivots."""
    centers: list[int] = []
    skips = [0, 0]
    scans: list[np.ndarray] = []
    searched: dict[str, np.ndarray] = {}  # the values, while a check runs
    references = {}  # reference_spokes of each tree checked, by its bytes
    scan = search._scan

    def kernel(points, q, kind, counter=None):
        values = searched.get("values")
        if values is not None and np.may_share_memory(points, values):
            assert len(points) == 1  # a view of one row: a center test
            centers.append((points.ctypes.data - values.ctypes.data) // values.strides[0])
        return distances_to(points, q, kind, counter)

    def scanned(values, members, *args):
        if searched:
            scans.append(members)
        return scan(values, members, *args)

    monkeypatch.setattr(search, "distances_to", kernel)
    monkeypatch.setattr(search, "_scan", scanned)

    def checked(tree, q, r, ds):
        searched["values"] = ds.values
        centers.clear()
        scans.clear()
        bounds = [b.tobytes() for b in (tree.pivot, tree.ring)]
        report = rho_search(tree, q, r, ds)
        searched.clear()
        assert [b.tobytes() for b in (tree.pivot, tree.ring)] == bounds
        slack = 1.0 + 4 * (ds.dim + 2) * 2.0 ** -52 if tree.metric.for_vectors else 1.0
        dists = distances_to(ds.values, ds.coerce_point(q), tree.metric)
        key = tree_to_bytes(tree)
        if key not in references:
            references[key] = reference_spokes(tree, ds)
        tested, positions, ruled_out = reference_walk(
            tree, dists, r, slack, *checked_spokes(tree, ds, want=references[key]))
        skips[:] = np.add(skips, ruled_out)
        depth = tree.depths()
        by_depth = sorted(tested, key=lambda node: (depth[node], node))
        assert centers == tree.center[by_depth].tolist()
        if positions.size:
            assert len(scans) == 1 and np.array_equal(scans[0], tree.order[positions])
            position = np.argsort(tree.order)[scans[0]]
            assert (np.diff(position) > 0).all()
        else:
            assert scans == []
        return report
    checked.centers, checked.scans, checked.skips = centers, scans, skips
    return checked


@pytest.mark.parametrize("metric", [E, MetricKind.CHORD, MetricKind.HAMMING,
                                    MetricKind.LEVENSHTEIN])
def test_walk_tests_centers_and_scans_slices_by_depth(metric, walk_order):
    # the walk goes one depth at a time: it tests a depth's centers in
    # pre-order before the next depth's, prunes by rings, records slices
    # of order and rules out members by pivots; one pass scans the rest,
    # at increasing offsets. A built tree and a parsed one whose pivots
    # and rings ``_spokes`` works out walk alike; a parsed tree, which
    # knows none (all nan), walks by cluster pruning alone
    if metric.for_vectors:
        ds = synth_manifold(600, 10, 1, 0.02, seed=13, density_power=2.0)
    else:
        ds = synth_aligned_strings(300, 60, 4, 0.05, seed=13)
    tree = build(ds, metric, BuildConfig(max_depth=20, min_size=4, seed=3))
    top = 4 * tree.radius[0]
    parsed, bounded = (tree_from_bytes(tree_to_bytes(tree))[0] for _ in range(2))
    _spokes(bounded, ds.values)
    for t in (tree, bounded):  # both know every pivot and ring
        checked_spokes(t, ds, known=True)
    for t in (tree, bounded, parsed):
        walk_order.skips[:] = [0, 0]
        for i in (0, 101, 277):
            for r in (0.0, *(top * 2.0 ** -np.arange(12, -1, -1))):
                report = walk_order(t, ds.values[i], r, ds)
                assert report.hits == naive_search(ds, ds.values[i], r, metric).hits
        if t is parsed:
            assert walk_order.skips == [0, 0]
        else:
            assert min(walk_order.skips) > 0  # both rules ruled something out
    # a one-node tree: no center test, and one pass over all of order
    leaf = build(ds, metric, BuildConfig(max_depth=20, min_size=ds.n, seed=3))
    assert leaf.size.tolist() == [1]
    report = walk_order(leaf, ds.values[5], top / 8, ds)
    assert walk_order.centers == []
    assert len(walk_order.scans) == 1 and np.array_equal(walk_order.scans[0], leaf.order)
    assert report.comparisons == ds.n
    assert report.hits == naive_search(ds, ds.values[5], top / 8, metric).hits


@pytest.mark.parametrize("metric", [MetricKind.HAMMING, MetricKind.LEVENSHTEIN])
def test_rings_test_a_subset_of_the_centers_hubs_test(metric, walk_order):
    # A child's hub, its center's distance to its parent's, puts its
    # members within [hub - radius, hub + radius] of the parent's center:
    # the widest ring a hub implies, and under the integer metrics (no
    # slack) the hub test exactly. On every query, the walk on the tree's
    # rings tests a subset of the centers the walk on hubs tests, and both
    # find the linear scan's hits
    ds = synth_aligned_strings(300, 60, 4, 0.05, seed=13)
    tree = build(ds, metric, BuildConfig(max_depth=20, min_size=4, seed=3))
    values = ds.values
    hubbed_rings = np.full_like(tree.ring, np.nan)  # one ring each, from the hub
    for p in np.flatnonzero(tree.size > 1):
        for child in (p + 1, p + 1 + tree.size[p + 1]):
            hub = distances_to(values[tree.center[child]][np.newaxis],
                               values[tree.center[p]], metric)[0]
            hubbed_rings[child, 0] = hub - tree.radius[child], hub + tree.radius[child]
    spared = 0
    for i in range(0, ds.n, 30):
        q = values[i]
        dists = distances_to(values, q, metric)
        for r in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0):
            report = walk_order(tree, q, r, ds)  # walks as the reference on rings
            ringed, _, _ = reference_walk(tree, dists, r, 1.0, tree.pivot, tree.ring)
            hubbed, positions, _ = reference_walk(tree, dists, r, 1.0, tree.pivot,
                                                  hubbed_rings)
            assert set(ringed) <= set(hubbed)
            spared += len(hubbed) - len(ringed)
            points = tree.order[positions]
            within = dists[points] <= r
            assert report.hits == naive_search(ds, q, r, metric).hits
            assert report.hits == [(int(i), float(d)) for d, i in
                                   sorted(zip(dists[points][within], points[within]))]
    assert spared > 0


@pytest.mark.parametrize("metric", [E, MetricKind.LEVENSHTEIN])
def test_a_leaf_with_a_known_ring_is_reached_untested(metric, monkeypatch):
    # A leaf below a root child knows its ring against its parent, whose
    # center the walk has tested: a range search reads its members' pivots
    # in place of its center's distance, which it used to compute and then
    # compute again in the scan. A cut knows no ring, and the search tests
    # the center of every leaf it reaches, as the paper's search does. A
    # leaf is reached when its parent is explored: tested, not pruned and
    # not contained
    if metric.for_vectors:
        ds = synth_manifold(600, 10, 1, 0.02, seed=43, density_power=2.0)
    else:
        ds = synth_aligned_strings(300, 60, 4, 0.05, seed=43)
    tree = build(ds, metric, BuildConfig(max_depth=20, min_size=4, seed=3))
    cut = _truncated(tree, tree.depth)
    assert np.array_equal(cut.center, tree.center) and np.array_equal(cut.size, tree.size)
    assert np.isnan(cut.ring).all()
    tested: list[int] = []

    def kernel(points, q, kind, counter=None):
        if len(points) == 1 and np.may_share_memory(points, ds.values):
            tested.append((points.ctypes.data - ds.values.ctypes.data)
                          // ds.values.strides[0])
        return distances_to(points, q, kind, counter)

    monkeypatch.setattr(search, "distances_to", kernel)
    chains = ancestors(tree)
    slack = 1.0 + 4 * (ds.dim + 2) * 2.0 ** -52 if metric.for_vectors else 1.0
    # the leaves below a root child whose center is none of their ancestors'
    leaves = [leaf for leaf in np.flatnonzero(tree.size == 1).tolist() if len(chains[leaf]) > 1
              and tree.center[leaf] not in tree.center[chains[leaf]]]
    untested = on_cut = 0
    for i in range(0, ds.n, 25):
        q = ds.values[i]
        dists = distances_to(ds.values, q, metric)
        for r in (0.0, float(np.quantile(dists, 0.02)), float(np.quantile(dists, 0.1))):
            for t in (tree, cut):
                tested.clear()
                assert rho_search(t, q, r, ds).hits == naive_search(ds, q, r, metric).hits
                centers = set(tested)
                explored = np.zeros(tree.size.size, dtype=bool)
                explored[0] = True
                for node in range(1, tree.size.size):  # parents come first
                    d, rad = dists[tree.center[node]], tree.radius[node]
                    explored[node] = (explored[chains[node][0]] and tree.size[node] > 1
                                      and tree.center[node] in centers
                                      and r < d + rad and d <= (r + rad) * slack)
                for leaf in leaves:
                    reached = explored[chains[leaf][0]]
                    if t is cut:
                        assert not reached or tree.center[leaf] in centers
                        on_cut += reached
                    else:
                        assert tree.center[leaf] not in centers
                        untested += reached
    assert untested > 20 and on_cut > 20


@pytest.mark.parametrize("metric", [E, MetricKind.CHORD, MetricKind.HAMMING,
                                    MetricKind.LEVENSHTEIN])
def test_outer_rings_test_a_subset_of_the_centers_parent_rings_test(metric):
    # The same tree with every ring but the one against the parent unknown
    # walks as rings did against the parent alone. On every query the walk
    # with all its rings tests a subset of the centers that walk tests,
    # and makes no more comparisons; range and k-NN answers are identical
    if metric.for_vectors:
        ds = synth_manifold(600, 4, 2, 0.02, seed=41)
    else:
        ds = synth_aligned_strings(300, 60, 4, 0.05, seed=41)
    tree = build(ds, metric, BuildConfig(max_depth=20, min_size=4, seed=3))
    parent_only, _ = tree_from_bytes(tree_to_bytes(tree))
    parent_only.pivot = tree.pivot.copy()
    parent_only.pivot[:, 2:] = np.nan  # as known as the rings are
    parent_only.ring[:, 0] = tree.ring[:, 0]
    far = float(distances_to(ds.values, ds.values[0], metric).max())
    spared = 0
    for i in range(0, ds.n, 20):
        q = ds.coerce_point(ds.values[i])
        for r in far * 2.0 ** -np.arange(10, 0, -1):
            outer, inner = {}, {}
            got = rho_search(tree, q, r, ds, _known=outer)
            want = rho_search(parent_only, q, r, ds, _known=inner)
            assert set(outer) <= set(inner)
            assert got.hits == want.hits == naive_search(ds, q, r, metric).hits
            assert got.comparisons <= want.comparisons
            spared += want.comparisons - got.comparisons
        for k in (1, 10):
            got, want = knn_search(tree, q, k, ds), knn_search(parent_only, q, k, ds)
            assert got.hits == want.hits and got.comparisons <= want.comparisons
    assert spared > 0


def test_ring_bound_allows_for_rounding():
    # q, x and c on a line in the plane: with x between q and c, d(q, x) =
    # d(q, c) - d(x, c); with q between c and x, d(q, x) = d(x, c) - d(q,
    # c). A ball about q through x touches the ring of the leaf {x} whose
    # parent is centered on c. Computed, the difference can exceed d(q, x)
    # by ulps of the far larger d(q, c), on either side of the ring's
    # window; the ring test's widening by eps keeps x a hit
    rng = np.random.default_rng(5)
    slack = 1.0 + 4 * (2 + 2) * 2.0 ** -52
    beyond = {False: 0, True: 0}  # whether q lies between c and x
    for _ in range(40):
        for q_between in (False, True):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            x, far = rng.uniform(0.5, 2.0), rng.uniform(1e5, 1e7)
            ds = Dataset.from_vectors([[0.0, 0.0], x * u,
                                       -far * u if q_between else (x + far) * u])
            d = distances_to(ds.values, ds.values[2], E)  # c is point 2
            # the root {q, x, c} centered on q: a leaf {q}, and {x, c}
            # centered on c, split into the leaves {x} and {c}
            tree = ClusterTree(center=np.array([0, 0, 2, 1, 2]),
                               radius=np.array([d[0], 0.0, d[1], 0.0, 0.0]),
                               cardinality=np.array([3, 1, 2, 1, 1]),
                               size=np.array([5, 1, 3, 1, 1]), order=np.arange(3),
                               metric=E, config=BuildConfig(2, 1),
                               dataset_hash=ds.content_hash())
            _spokes(tree, ds.values)
            r = float(distances_to(ds.values[1:2], ds.values[0], E)[0])
            lo, hi = tree.ring[3, 0]
            # the ring lies outside the window unwidened
            beyond[q_between] += lo > d[0] + r * slack if q_between \
                else hi < d[0] - r * slack
            assert rho_search(tree, ds.values[0], r, ds).hits == \
                naive_search(ds, ds.values[0], r, E).hits == [(0, 0.0), (1, r)]
    assert min(beyond.values()) > 0


HITS = st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 4), st.floats(0, 100)),
                max_size=60, unique_by=lambda hit: hit[0])


@settings(max_examples=300, deadline=None)
@given(HITS, st.sampled_from(["float", "integral float", "int"]))
@example([], "float")
@example([(7, 3, 0.5)], "float")
@example([(7, 3, 0.5)], "int")
def test_sorted_hits_match_a_lexsort(hits, kind):
    # (distance, index) order, ties to the lower index. Small integers make
    # ties common; a float distance is one of 0, 0.5 and 1 half the time
    indices = np.array([i for i, _, _ in hits], dtype=np.intp)
    small = np.array([t for _, t, _ in hits], dtype=np.int64)
    if kind == "int":
        dists = small
    elif kind == "integral float":
        dists = small.astype(np.float64)
    else:
        floats = np.array([f for _, _, f in hits], dtype=np.float64)
        dists = np.where(small % 2 == 0, small / 4, floats)
    order = np.lexsort((indices, dists))
    want = list(zip(indices[order].tolist(), dists[order].tolist()))
    got = search._sorted_hits(indices, dists)
    assert got == want
    assert [type(d) for _, d in got] == [type(d) for _, d in want]


def test_negative_radius_rejected(small_manifold):
    ds, tree = small_manifold
    with pytest.raises(ValueError):
        rho_search(tree, ds.values[0], -1.0, ds)


@pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
def test_naive_search_rejects_bad_radius(small_manifold, r):
    # the same check, and message, as rho_search
    ds, tree = small_manifold
    for search in (lambda: naive_search(ds, ds.values[0], r, E),
                   lambda: rho_search(tree, ds.values[0], r, ds)):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            search()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_query_rejected(small_manifold, bad):
    ds, tree = small_manifold
    q = ds.values[5].copy()
    q[3] = bad
    with pytest.raises(DimensionError, match="index 3"):
        rho_search(tree, q, 1.0, ds)
    with pytest.raises(DimensionError, match="index 3"):
        knn_search(tree, q, 3, ds)


def test_searches_are_exact_up_to_the_coordinate_bound():
    # Both searches from point 0 at r = 1e201 used to return only point 0
    # of these, as the distances to the others overflowed to inf; such a
    # dataset, or query, is now refused where it enters
    with pytest.raises(DimensionError, match="row 0, index 0"):
        Dataset.from_vectors([[1e200, 0.0], [1.5e200, 0.0], [0.0, 1.0]])
    b = _coordinate_bound(2)
    ds = Dataset.from_vectors([[b, 0.0], [-b, 0.0], [0.0, 1.0], [b, -b], [-b, b]])
    tree = build(ds, E, BuildConfig(max_depth=5, min_size=1, seed=0))
    for r in (1e201, 3 * b):
        got = rho_search(tree, ds.values[0], r, ds)
        assert got.hits == naive_search(ds, ds.values[0], r, E).hits
        assert got.hit_indices() == set(range(ds.n))
    assert knn_search(tree, ds.values[0], ds.n, ds).hits == got.hits
    with pytest.raises(DimensionError, match="index 0 is beyond"):
        rho_search(tree, [1e200, 0.0], 1.0, ds)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_insert_leaves_tree_unchanged(bad):
    ds = synth_manifold(120, 6, 1, 0.05, seed=14)
    tree = build(ds, E, BuildConfig(max_depth=8, min_size=5, seed=0))
    before = tree_to_bytes(tree)
    point = ds.values[0].copy()
    point[0] = bad
    with pytest.raises(DimensionError, match="index 0"):
        insert_point(tree, point, ds)
    assert ds.n == 120
    assert tree_to_bytes(tree) == before


def test_report_invariants(small_manifold):
    ds, tree = small_manifold
    report = rho_search(tree, ds.values[5], 3.0, ds)
    assert all(d <= 3.0 for _, d in report.hits)
    assert report.fraction_searched <= 1.0
    assert report.comparisons > 0
    assert all(type(i) is int and type(d) is float for i, d in report.hits)
    assert report.hits == sorted(report.hits, key=lambda h: (h[1], h[0]))


def test_naive_comparisons_equal_n(small_manifold, kernel_calls):
    ds, _ = small_manifold
    block = _block_rows(ds.values)
    for r in (0.0, 1.0, 1e9):
        kernel_calls.clear()
        report = naive_search(ds, ds.values[3], r, E)
        assert report.comparisons == ds.n
        assert report.fraction_searched == 1.0
        assert kernel_calls == scan_blocks(ds.n, block)
        assert report.leaves_visited == -(-ds.n // block) == 4


def test_naive_zero_radius_held_out_query_is_empty():
    ds = synth_manifold(100, 5, 1, 0.1, seed=3)
    q = ds.values[0] + 17.0
    assert naive_search(ds, q, 0.0, E).hits == []


def test_naive_hits_monotone_in_radius(small_manifold):
    ds, _ = small_manifold
    q = ds.values[9] + 0.01
    previous = set()
    for r in (0.01, 0.1, 1.0, 10.0):
        current = naive_search(ds, q, r, E).hit_indices()
        assert previous <= current
        previous = current


def test_tree_search_equals_oracle_over_radius_sweep(small_manifold):
    ds, tree = small_manifold
    rng = np.random.default_rng(31)
    queries = ds.values[rng.choice(ds.n, 20, replace=False)] + 1e-3
    pool = np.concatenate([distances_to(ds.values, q, E) for q in queries])
    radii = [float(np.quantile(pool, f)) for f in (0.0001, 0.001, 0.01, 0.1)]
    for q in queries:
        for r in radii:
            got = rho_search(tree, q, r, ds)
            want = naive_search(ds, q, r, E)
            assert got.hits == want.hits
            assert got.comparisons <= want.comparisons + 2 * ds.n


def test_pruned_subtrees_hold_no_hits(small_manifold):
    # triangle-inequality soundness audit: walk the tree replicating the
    # pruning rule and verify pruned subtrees by exhaustive scan
    ds, tree = small_manifold
    q = ds.values[77] + 0.05
    r = 0.4

    stack = [0]
    while stack:
        node = stack.pop()
        if tree.size[node] == 1:
            continue
        left = node + 1
        for child in (left, left + tree.size[left]):
            d = float(distances_to(ds.values[tree.center[child]][None, :], q, E)[0])
            if d > r + tree.radius[child]:
                dists = distances_to(ds.values[node_members(tree, child)], q, E)
                assert (dists > r).all()
            else:
                stack.append(child)


def test_chord_search_is_exact_on_low_dimensional_gaussians():
    # cosine distance (1 - cos) broke the triangle inequality: here its
    # pruned search missed 19,120 of 65,467 hits at r = 0.01, 0.05 and 0.2,
    # and 46 of the 100 k-NN answers differed from brute force. The chord
    # radii are those radii in its units, sqrt(2 r)
    C = MetricKind.CHORD
    ds = Dataset.from_vectors(np.random.default_rng(0).normal(size=(5000, 3)))
    tree = build(ds, C, BuildConfig(50, 10, 0))
    total = 0
    for i in range(0, ds.n, 50):
        q = ds.values[i]
        for r in (0.01, 0.05, 0.2):
            want = naive_search(ds, q, math.sqrt(2 * r), C).hits
            assert rho_search(tree, q, math.sqrt(2 * r), ds).hits == want
            total += len(want)
        dists = distances_to(ds.values, q, C)
        assert [j for j, _ in knn_search(tree, q, 10, ds).hits] == \
            brute_force_knn(ds.values, q, 10, dists)
    assert total == 65_467


def test_deep_tree_beats_naive_comparisons(small_manifold):
    ds, tree = small_manifold
    rng = np.random.default_rng(61)
    pool = np.concatenate([distances_to(ds.values, ds.values[i], E)
                           for i in rng.choice(ds.n, 5)])
    r = float(np.quantile(pool, 0.005))
    for qi in rng.choice(ds.n, 10, replace=False):
        report = rho_search(tree, ds.values[qi] + 1e-4, r, ds)
        assert report.comparisons < ds.n
        assert report.fraction_searched < 0.5


def test_knn_k_equals_n(small_manifold):
    ds, tree = small_manifold
    q = ds.values[13]
    report = knn_search(tree, q, ds.n, ds)
    assert len(report.hits) == ds.n
    assert all(type(i) is int and type(d) is float for i, d in report.hits)
    assert report.hits == sorted(report.hits, key=lambda h: (h[1], h[0]))


def test_knn_k1_on_stored_point(small_manifold):
    ds, tree = small_manifold
    report = knn_search(tree, ds.values[42], 1, ds)
    assert report.hits == [(42, 0.0)]


def test_knn_matches_brute_force_2d():
    rng = np.random.default_rng(71)
    ds = Dataset.from_vectors(rng.random((5000, 2)) * 100)
    tree = build(ds, E, BuildConfig(max_depth=40, min_size=10, seed=5))
    queries = rng.random((50, 2)) * 100
    for q in queries:
        dists = distances_to(ds.values, q, E)
        want = brute_force_knn(ds.values, q, 10, dists)
        got = knn_search(tree, q, 10, ds)
        assert [i for i, _ in got.hits] == want


def test_knn_tie_at_kth_takes_lower_index():
    # four points at identical distance from the query
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                    [5.0, 5.0], [6.0, 6.0], [7.0, 7.0], [8.0, 8.0],
                    [9.0, 9.0], [10.0, 10.0], [11.0, 11.0]])
    ds = Dataset.from_vectors(pts + 20.0)
    tree = build(ds, E, BuildConfig(max_depth=5, min_size=2, seed=1))
    report = knn_search(tree, np.array([20.0, 20.0]), 2, ds)
    assert [i for i, _ in report.hits] == [0, 1]


def test_knn_coerces_its_query_once(small_manifold, monkeypatch):
    # the range search at the bound takes the query k-NN has coerced;
    # a range search of its own still checks its query
    ds, tree = small_manifold
    coerced = []
    coerce = Dataset.coerce_point

    def counted(self, p):
        coerced.append(p)
        return coerce(self, p)

    monkeypatch.setattr(Dataset, "coerce_point", counted)
    knn_search(tree, ds.values[3] + 1e-3, 5, ds)
    assert len(coerced) == 1
    rho_search(tree, ds.values[3] + 1e-3, 0.1, ds)
    assert len(coerced) == 2


def test_knn_k_out_of_range(small_manifold):
    ds, tree = small_manifold
    with pytest.raises(ValueError):
        knn_search(tree, ds.values[0], 0, ds)
    with pytest.raises(ValueError):
        knn_search(tree, ds.values[0], ds.n + 1, ds)
    with pytest.raises(ValueError, match="k must be an integer in"):
        knn_search(tree, ds.values[0], 2.5, ds)
    assert len(knn_search(tree, ds.values[0], np.int64(3), ds).hits) == 3
    # a bool is no count, whether Python's or numpy's
    for k in (True, np.True_):
        with pytest.raises(ValueError, match="k must be an integer in"):
            knn_search(tree, ds.values[0], k, ds)


def test_search_refuses_a_dataset_the_tree_does_not_cover_exactly():
    # a tree misses every point appended since it last grew: searching a
    # larger dataset would lose hits without a word
    ds = synth_manifold(300, 4, 1, 0.05, seed=20)
    config = BuildConfig(max_depth=10, min_size=5, seed=6)
    tree = build(ds, E, config)
    q = ds.values[0]
    small = Dataset.from_vectors(ds.values[:50])
    appended = Dataset.from_vectors(ds.values)
    appended.append_point(q + 1e-3)
    # another tree's insert grows the dataset both trees cover
    shared = Dataset.from_vectors(ds.values)
    insert_point(build(shared, E, config), q + 1e-3, shared)
    for data in (small, appended, shared):
        for search in (lambda: rho_search(tree, q, 1.0, data),
                       lambda: knn_search(tree, q, 3, data)):
            with pytest.raises(DimensionError,
                               match=f"tree covers 300 points, dataset holds {data.n}"):
                search()


def test_knn_far_query_stays_exact():
    ds = synth_manifold(300, 6, 1, 0.01, seed=81)
    tree = build(ds, E, BuildConfig(max_depth=15, min_size=5, seed=3))
    q = ds.values.max(axis=0) + 1e6
    report = knn_search(tree, q, 7, ds)
    dists = distances_to(ds.values, q, E)
    assert [i for i, _ in report.hits] == brute_force_knn(ds.values, q, 7, dists)


def test_knn_makes_one_range_search_at_an_upper_bound(small_manifold):
    ds, tree = small_manifold
    rng = np.random.default_rng(91)
    for qi in rng.choice(ds.n, 20, replace=False):
        q = ds.values[qi] + 1e-3
        report = knn_search(tree, q, 10, ds)
        dists = distances_to(ds.values, q, E)
        want = brute_force_knn(ds.values, q, 10, dists)
        assert [i for i, _ in report.hits] == want
        assert report.invocations == 1 and not report.used_fallback
        assert report.final_radius >= dists[want[-1]]


def test_knn_on_singleton_leaves_scans_far_fewer_than_n():
    # min_size=1 leaves are mostly singletons, so the median leaf radius
    # is 0; the descent must still find a small cluster to bound from
    ds = synth_manifold(2000, 10, 1, 0.05, seed=3)
    tree = build(ds, E, BuildConfig(50, 1, 0))
    rng = np.random.default_rng(3)
    comparisons = []
    for qi in rng.choice(ds.n, 20, replace=False):
        q = ds.values[qi] + 1e-3
        report = knn_search(tree, q, 10, ds)
        dists = distances_to(ds.values, q, E)
        assert [i for i, _ in report.hits] == brute_force_knn(ds.values, q, 10, dists)
        comparisons.append(report.comparisons)
    assert np.mean(comparisons) < ds.n / 5


@pytest.fixture()
def knn_once(monkeypatch):
    """``knn_search``, checking that the query computes no point's
    distance twice: the search module's kernel calls record every row
    they get by its bytes (the tests' points are distinct), the rows sum
    to the report's comparisons, and the query makes one range search,
    at the bound it reports. That search tests the centers it needs one
    depth at a time: its kernel calls other than its scan's blocks number
    at most the tree's depth."""
    rows: list[bytes] = []
    radii: list[float] = []
    calls = [0]

    def kernel(points, q, kind, counter=None):
        rows.extend(p.tobytes() for p in points)
        calls[0] += 1
        return distances_to(points, q, kind, counter)

    def range_search(*args, **kwargs):
        radii.append(args[2])
        before = calls[0]
        report = rho_search(*args, **kwargs)
        assert calls[0] - before - report.leaves_visited <= args[0].depth
        return report

    monkeypatch.setattr(search, "distances_to", kernel)
    monkeypatch.setattr(search, "rho_search", range_search)

    def knn(tree, q, k, ds):
        rows.clear()
        radii.clear()
        report = search.knn_search(tree, q, k, ds)
        assert len(set(rows)) == len(rows) == report.comparisons
        assert radii == [report.final_radius]
        return report
    return knn


@pytest.mark.parametrize("metric", [E, MetricKind.CHORD, MetricKind.HAMMING,
                                    MetricKind.LEVENSHTEIN])
def test_knn_computes_each_distance_once(metric, knn_once):
    # The range search at the bound used to test the descent's centers
    # again and scan the bound cluster again. Here it reads both, its walk
    # adds its own center tests, and its scan skips every point known.
    # The answer stays bit for bit the linear scan's first k, on a built
    # tree and on one grown by inserts
    if metric.for_vectors:
        ds = synth_manifold(600, 10, 1, 0.02, seed=23, density_power=2.0)
    else:
        ds = synth_aligned_strings(300, 40, 4, 0.05, seed=23)
    config = BuildConfig(max_depth=20, min_size=4, seed=3)
    grown = Dataset(ds.kind, ds.values[:ds.n // 3].copy())
    trees = [build(ds, metric, config), build(grown, metric, config)]
    for p in ds.values[grown.n:]:
        insert_point(trees[1], p, grown)
    assert grown == ds
    for tree in trees:
        for i in (0, 77, 201):
            q = ds.values[i]
            everything = naive_search(ds, q, float(distances_to(ds.values, q, metric).max()),
                                      metric).hits
            for k in (1, 10, ds.n):
                report = knn_once(tree, q, k, ds)
                assert report.hits == everything[:k]
            # k = n bounds from the root's whole slice of order: neither
            # root child holds n points, so the descent tests no center, and
            # after that scan every distance is known, so the range search
            # computes none
            assert report.comparisons == ds.n


def test_knn_tests_its_range_walks_centers_one_kernel_call_per_depth(kernel_calls):
    # Mutants of a few ancestors under Levenshtein: at the k-NN bound the
    # range walk reaches most clusters, so a call per center test would
    # make some 70 calls a query. The descent makes one call per level,
    # the bound cluster's scan one, the range walk one per depth and the
    # range search's scan one: the corpus fits in one block
    ds = synth_aligned_strings(256, 32, 16, 0.1, seed=35)
    tree = build(ds, MetricKind.LEVENSHTEIN, BuildConfig(max_depth=8, min_size=10, seed=0))
    assert _block_rows(ds.values) >= ds.n
    # the same stream goes on past the stored strings: 40 new ones
    queries = synth_aligned_strings(296, 32, 16, 0.1, seed=35).values[ds.n:]
    computed = []
    for q in queries:
        kernel_calls.clear()
        report = knn_search(tree, q, 10, ds)
        assert len(kernel_calls) <= 2 * tree.depth + 2
        computed.append(report.comparisons)
    # the walk reaches most clusters: the distances far outnumber the calls
    assert np.mean(computed) > 4 * (2 * tree.depth + 2)


def blind_copy(tree: ClusterTree) -> ClusterTree:
    """The tree as it is, but knowing none of its center pivots."""
    blind = copy.copy(tree)
    blind.center_pivot = np.full_like(tree.center_pivot, np.nan)
    return blind


@pytest.mark.parametrize("metric", [E, MetricKind.CHORD, MetricKind.HAMMING,
                                    MetricKind.LEVENSHTEIN])
def test_center_pivots_skip_descent_tests_and_change_no_answer(metric):
    # Where a child center's distance, bounded by the center pivots, must
    # lie below its sibling's, the descent takes that child untested. It
    # decides as the tests would: the same bound cluster, so the same
    # ``final_radius`` and hits, against the same tree knowing no center
    # pivot, on stored, held-out and far or off-manifold queries. Every
    # distance is one the tree without them computes too
    rng = np.random.default_rng(45)
    n = 500 if metric.for_vectors else 300
    if metric.for_vectors:
        every = synth_manifold(n + 20, 10, 1, 0.02, seed=45, density_power=2.0)
        stored = every.values[:n]
        off = stored[rng.choice(n, 10)] + rng.normal(0, 0.5, (10, 10))
        far = [stored.max(axis=0) + 1e3, -stored.max(axis=0) * 50]
    else:
        every = synth_aligned_strings(n + 20, 40, 4, 0.05, seed=45)
        stored = every.values[:n]
        alphabet = np.frombuffer(b"ACGT-", dtype=np.uint8)
        off = alphabet[rng.integers(0, 5, (10, 40))]
        far = [np.full(40, ord("-"), dtype=np.uint8)]
    ds = Dataset(every.kind, stored.copy())
    queries = [*stored[rng.choice(n, 20, replace=False)], *every.values[n:], *off, *far]
    tree = build(ds, metric, BuildConfig(max_depth=30, min_size=4, seed=9))
    blind = blind_copy(tree)
    total = {"pivots": 0, "blind": 0}
    for q in queries:
        everything = naive_search(ds, q, float(distances_to(ds.values, q, metric).max()),
                                  metric).hits
        for k in (1, 5, 20):
            got, want = knn_search(tree, q, k, ds), knn_search(blind, q, k, ds)
            assert got.hits == want.hits == everything[:k]
            assert got.final_radius == want.final_radius
            assert got.comparisons <= want.comparisons
            total["pivots"] += got.comparisons
            total["blind"] += want.comparisons
    assert total["pivots"] < total["blind"]


def test_center_pivot_bounds_allow_for_rounding():
    # q, a, l and r on a line in the plane, a the tested center between q
    # and l, and q between a and r, placed so that d(q, l) = d(q, a) + d(a,
    # l) equals d(q, r) = d(a, r) - d(q, a): each child's bound is tight
    # and the two tie. Computed, the bounds can read r as farther than l
    # while the distances read l as farther than r, by ulps of the far
    # larger distances; widened by eps, the bounds decide nothing there,
    # so the descent tests both, as a tree without center pivots does
    rng = np.random.default_rng(6)
    eps = 4 * (2 + 2) * 2.0 ** -52
    wrong = 0  # cases where unwidened bounds would go against the distances
    for _ in range(300):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        d, p = rng.uniform(1e5, 1e7), rng.uniform(0.5, 2.0)
        q = rng.uniform(-1e6, 1e6, 2)
        # the points a, l, r and s, the last far off
        ds = Dataset.from_vectors(q + np.outer([-d, -(d + p), d + p, 1e9], u))
        # the root {a, l, r, s}: a child {a, l, r} centered on a, split into
        # {l, a} centered on l and the leaf {r}; and the leaf {s}
        dist = distances_to(ds.values, ds.values[0], E)
        tree = ClusterTree(center=np.array([0, 0, 1, 2, 3]),
                           radius=np.array([dist[3], dist[1:3].max(), p, 0.0, 0.0]),
                           cardinality=np.array([4, 3, 2, 1, 1]),
                           size=np.array([5, 3, 1, 1, 1]), order=np.array([1, 0, 2, 3]),
                           metric=E, config=BuildConfig(2, 1),
                           dataset_hash=ds.content_hash())
        _spokes(tree, ds.values)
        x = distances_to(ds.values, q, E)
        pl, pr = tree.center_pivot[2, 0], tree.center_pivot[3, 0]
        wrong += bool(pr - x[0] > x[0] + pl and x[1] > x[2])
        assert pr * (1 - eps) / (1 + eps) - x[0] <= (x[0] + pl) * (1 + eps) / (1 - eps)
        got, want = knn_search(tree, q, 1, ds), knn_search(blind_copy(tree), q, 1, ds)
        assert got.hits == want.hits and got.final_radius == want.final_radius
        assert got.comparisons == want.comparisons
    assert wrong > 0


def test_center_pivots_cut_the_descents_kernel_calls_on_a_deep_tree(monkeypatch):
    # On a depth >= 20 manifold the descent tests a level's two centers in
    # one kernel call; the center pivots decide levels without one. The
    # calls before the range search (descent and bound scan) fall
    ds = synth_manifold(3000, 10, 1, 0.0, seed=46, density_power=4.0)
    tree = build(ds, E, BuildConfig(max_depth=50, min_size=2, seed=1))
    assert tree.depth >= 20
    calls = [0]

    def kernel(points, q, kind, counter=None):
        calls[0] += 1
        return distances_to(points, q, kind, counter)

    def range_search(*args, **kwargs):
        descent.append(calls[0])
        return rho_search(*args, **kwargs)

    monkeypatch.setattr(search, "distances_to", kernel)
    monkeypatch.setattr(search, "rho_search", range_search)
    before = {}
    for name, t in (("pivots", tree), ("blind", blind_copy(tree))):
        descent = []
        for i in range(0, ds.n, 60):
            calls[0] = 0
            search.knn_search(t, ds.values[i] + 1e-3, 5, ds)
        before[name] = descent
    assert all(a <= b for a, b in zip(before["pivots"], before["blind"]))
    assert sum(before["pivots"]) < 0.8 * sum(before["blind"])


@pytest.mark.parametrize("metric", [E, MetricKind.CHORD, MetricKind.HAMMING,
                                    MetricKind.LEVENSHTEIN])
def test_batched_walk_tests_the_centers_the_plain_walk_does(metric, monkeypatch):
    # Given known distances, as k-NN gives them, the walk tests each depth's
    # centers in one kernel call; a plain search tests each in a call of
    # its own. From nothing known, at each k-NN bound, the batched walk
    # adds to the known distances exactly the centers that the plain walk
    # tests, with the same bits, and finds the same hits. On built, grown,
    # parsed (no pivot or ring known) and cut trees
    if metric.for_vectors:
        ds = synth_manifold(450, 10, 1, 0.02, seed=35, density_power=2.0)
    else:
        ds = synth_aligned_strings(240, 40, 4, 0.05, seed=35)
    config = BuildConfig(max_depth=20, min_size=4, seed=5)
    built = build(ds, metric, config)
    head = Dataset(ds.kind, ds.values[:ds.n // 2].copy())
    grown = build(head, metric, config)
    for p in ds.values[head.n:]:
        insert_point(grown, p, head)
    trees = {"built": built, "grown": grown,
             "parsed": tree_from_bytes(tree_to_bytes(built))[0], "cut": _truncated(built, 6)}
    tested: dict[int, float] = {}  # the plain walk's center tests, by point
    walking = [False]

    def kernel(points, q, kind, counter=None):
        dists = distances_to(points, q, kind, counter)
        values = ds.values
        if walking[0] and np.may_share_memory(points, values):
            assert len(points) == 1  # a view of one row: a center test
            tested[(points.ctypes.data - values.ctypes.data) // values.strides[0]] = \
                float(dists[0])
        return dists

    monkeypatch.setattr(search, "distances_to", kernel)
    rng = np.random.default_rng(35)
    for name, tree in trees.items():
        added = []
        for i in rng.choice(ds.n, 6, replace=False):
            q = ds.values[i]
            everything = naive_search(ds, q, float(distances_to(ds.values, q, metric).max()),
                                      metric).hits
            for k in (1, 10, 60):
                bound = knn_search(tree, q, k, ds)
                assert bound.hits == everything[:k], name
                tested.clear()
                walking[0] = True
                plain = rho_search(tree, q, bound.final_radius, ds)
                walking[0] = False
                known: dict[int, float] = {}
                batched = rho_search(tree, ds.coerce_point(q), bound.final_radius, ds,
                                     _known=known)
                assert batched.hits == plain.hits, name
                assert sorted(known) == sorted(tested), name
                assert np.array([known[c] for c in tested]).tobytes() \
                    == np.array(list(tested.values())).tobytes(), name
                added.append(len(known))
        assert len(added) == 18 and sum(added) > 0, name


@pytest.mark.parametrize("metric", [E, MetricKind.CHORD, MetricKind.HAMMING,
                                    MetricKind.LEVENSHTEIN])
def test_searches_are_exact_on_trees_the_build_did_not_make(metric, tmp_path):
    # A parsed tree or a cut knows no pivot or ring (all nan) until
    # ``_spokes`` works them out (``deserialize`` does); an insert writes
    # only those it computes, and a search writes none. Each tree answers
    # as the linear scan, at stored distances and at containment radii,
    # and so does k-NN; each pivot and ring it knows is what a fresh pass
    # computes
    if metric.for_vectors:
        ds = synth_manifold(450, 10, 1, 0.02, seed=29, density_power=2.0)
    else:
        ds = synth_aligned_strings(240, 40, 4, 0.05, seed=29)
    config = BuildConfig(max_depth=20, min_size=4, seed=5)
    built = build(ds, metric, config)
    head = Dataset(ds.kind, ds.values[:ds.n // 2].copy())
    grown, _ = tree_from_bytes(tree_to_bytes(build(head, metric, config)))
    for p in ds.values[head.n:]:
        insert_point(grown, p, head)
    serialize(built, tmp_path / "t.tree")
    cut = _truncated(built, 3)
    _spokes(cut, ds.values)
    trees = {"parsed": tree_from_bytes(tree_to_bytes(built))[0],
             "loaded": deserialize(tmp_path / "t.tree", ds), "parsed, then grown": grown,
             "cut": _truncated(built, 3), "cut, then worked out": cut}
    rng = np.random.default_rng(29)
    for name, tree in trees.items():
        for i in rng.choice(ds.n, 4, replace=False):
            q = ds.values[i]
            everything = naive_search(ds, q, float(distances_to(ds.values, q, metric).max()),
                                      metric).hits
            for _, r in everything[:30:3]:  # stored distances
                want = [h for h in everything if h[1] <= r]
                assert rho_search(tree, q, r, ds).hits == want, name
            for node in rng.choice(tree.size.size, 8):
                c = tree.center[node]
                r = float(distances_to(ds.values[c:c + 1], q, metric)[0] + tree.radius[node])
                assert rho_search(tree, q, r, ds).hits == \
                    naive_search(ds, q, r, metric).hits, name
            for k in (1, 7):
                assert knn_search(tree, q, k, ds).hits == everything[:k], name
        pivot, ring = checked_spokes(tree, ds)
        known = [np.count_nonzero(~np.isnan(b))
                 for b in (pivot[:, 0], ring[..., 0], ring[..., 1], pivot)]
        # a node has a ring against each of its nearest _RINGS ancestors,
        # and a point a pivot against its leaf and as many of its ancestors
        depths = tree.depths()
        rings = int(np.minimum(depths, _RINGS).sum())
        leaves = np.flatnonzero(tree.size == 1)
        pivots = int((tree.cardinality[leaves]
                      * np.minimum(depths[leaves] + 1, _RINGS)).sum())
        if name in ("parsed", "cut"):
            assert known == [0, 0, 0, 0], name
        elif name == "parsed, then grown":
            # the inserted points' pivots, and splits' partition distances;
            # a split child's ring is known only where all its members'
            # pivots against that ancestor were
            inserted = ds.n - ds.n // 2
            assert inserted <= known[0] < ds.n, name
            assert known[1] == known[2] < rings, name
            assert known[3] < pivots, name
        else:
            assert known == [ds.n, rings, rings, pivots], name


@pytest.mark.parametrize("metric", [E, MetricKind.LEVENSHTEIN])
def test_built_and_grown_trees_never_work_out_their_spokes(metric, monkeypatch):
    # the build and inserts keep pivots and rings from the distances they
    # compute anyway, so no insert pays a pass over the dataset, not even
    # on a parsed tree, which knows none; a built tree's stay those a
    # fresh pass computes
    worked_out = []
    monkeypatch.setattr(tree_mod, "_spokes", lambda tree, values: worked_out.append(tree))
    if metric.for_vectors:
        ds = synth_manifold(400, 10, 1, 0.02, seed=31, density_power=2.0)
    else:
        ds = synth_aligned_strings(200, 30, 4, 0.05, seed=31)
    grown = Dataset(ds.kind, ds.values[:ds.n // 4].copy())
    tree = build(grown, metric, BuildConfig(max_depth=20, min_size=3, seed=2))
    nodes = tree.size.size
    parsed_grown = Dataset(ds.kind, grown.values.copy())
    parsed, _ = tree_from_bytes(tree_to_bytes(tree))
    for p in ds.values[grown.n:]:
        insert_point(tree, p, grown)
        insert_point(parsed, p, parsed_grown)
        rho_search(tree, p, 1.0, grown)
        knn_search(tree, p, 3, grown)
    assert tree.size.size > nodes + 20  # the inserts split leaves
    assert tree_to_bytes(parsed) == tree_to_bytes(tree)
    assert worked_out == []
    checked_spokes(tree, grown, known=True)


def test_an_insert_into_a_parsed_tree_costs_its_descent(monkeypatch):
    # a parsed tree knows no pivot, and its first insert works none out:
    # it computes its descent's distances (and a split's), not one per point
    ds = synth_manifold(2_001, 10, 1, 0.02, seed=37, density_power=2.0)
    n = ds.n - 1
    head = Dataset(ds.kind, ds.values[:n].copy())
    tree, _ = tree_from_bytes(tree_to_bytes(build(head, E, BuildConfig(seed=4))))
    rows = []
    kernel = tree_mod.distances_to

    def counted(points, q, kind, counter=None):
        rows.append(len(points))
        return kernel(points, q, kind, counter)

    monkeypatch.setattr(tree_mod, "distances_to", counted)
    insert_point(tree, ds.values[-1], head)
    assert 0 < sum(rows) < n // 2
    assert not np.isnan(tree.pivot[n, 0])  # the new point's own


def caterpillar(ds: Dataset, rng: np.random.Generator,
                leaf_size: int = 1) -> ClusterTree:
    """A tree over points on a line in which every internal node has a
    leaf child holding the ``leaf_size`` points at one end of its range,
    so the internal nodes form one chain. Each node is centered on the
    extreme point of the points it splits off; which end, and which
    side the leaf takes, are random."""
    x = ds.values[:, 0]
    remaining = np.argsort(x).tolist()
    head, tail = [], []  # pre-order rows (center, radius, card, members)
    while len(remaining) > leaf_size:
        if rng.random() < 0.5:
            split_off, remaining = remaining[-leaf_size:], remaining[:-leaf_size]
            c = split_off[-1]
        else:
            split_off, remaining = remaining[:leaf_size], remaining[leaf_size:]
            c = split_off[0]
        members = remaining + split_off
        head.append((c, float(np.abs(x[members] - x[c]).max()), len(members), None))
        leaf = (c, float(np.abs(x[split_off] - x[c]).max()), leaf_size, split_off)
        if rng.random() < 0.5:
            head.append(leaf)
        else:
            tail.append(leaf)  # comes after the chain below this node
    last = (remaining[0], float(x[remaining[-1]] - x[remaining[0]]),
            len(remaining), remaining)  # centered on its lowest point
    rows = head + [last] + tail[::-1]
    is_leaf = np.array([m is not None for *_, m in rows])
    # an internal node at chain position j has chain - j internal nodes below
    chain = int((~is_leaf).sum())
    size = np.ones(len(rows), dtype=np.int64)
    size[~is_leaf] = 2 * (chain - np.arange(chain)) + 1
    center, radius, card = (np.array(col) for col in list(zip(*rows))[:3])
    order = np.array([i for *_, m in rows if m is not None for i in m])
    return ClusterTree(center=center, radius=radius, cardinality=card, size=size,
                       order=order, metric=E,
                       config=BuildConfig(max_depth=ds.n, min_size=1),
                       dataset_hash=ds.content_hash())


def grow_deep_tree(leaf_size: int, seed: int, knn=knn_search, rho=rho_search) -> list:
    """Load a depth-1,500 caterpillar from v3 bytes, round-trip it, check
    range and k-NN search (made by ``rho`` and ``knn``) against the
    oracle, insert 10 points and check again. Returns every k-NN report."""
    rng = np.random.default_rng(seed)
    ds = Dataset.from_vectors(rng.uniform(0, 100, (1500 * leaf_size + 1, 1)))
    raw = tree_to_bytes(caterpillar(ds, rng, leaf_size))
    tree, end = tree_from_bytes(raw)
    assert end == len(raw) and tree_to_bytes(tree) == raw
    assert tree.depth == 1500
    knn_reports = []

    def check(tree):
        for q in rng.uniform(-5, 105, (4, 1)):
            for r in (0.0, 0.5, 5.0, 50.0):
                got = rho(tree, q, r, ds)
                want = naive_search(ds, q, r, E)
                assert got.hits == want.hits
            for k in (1, 5):
                got = knn(tree, q, k, ds)
                dists = distances_to(ds.values, q, E)
                assert [i for i, _ in got.hits] == brute_force_knn(ds.values, q, k, dists)
                knn_reports.append(got)

    check(tree)
    n0 = ds.n
    for p in rng.uniform(0, 100, (10, 1)):
        insert_point(tree, p, ds)
    assert tree.cardinality[0] == ds.n == n0 + 10
    check(tree)
    _spokes(tree, ds.values)  # and again with every pivot and ring known
    # eight rings a node, however deep the tree, each as a fresh pass makes it
    assert tree.ring.shape == (tree.size.size, _RINGS, 2)
    checked_spokes(tree, ds, known=True)
    check(tree)
    again, _ = tree_from_bytes(tree_to_bytes(tree))
    assert tree_to_bytes(again) == tree_to_bytes(tree)
    return knn_reports


def test_depth_1500_tree_loads_searches_and_grows(knn_once):
    # singleton leaves: every k-NN query still makes one range search and
    # computes each distance once
    reports = grow_deep_tree(leaf_size=1, seed=1500, knn=knn_once)
    assert all(r.invocations == 1 and not r.used_fallback for r in reports)


def test_depth_1500_tree_with_pair_leaves_loads_searches_and_grows(knn_once):
    # two-point leaves: k=1 bounds from a leaf, k=5 from a chain node
    reports = grow_deep_tree(leaf_size=2, seed=1501, knn=knn_once)
    assert all(r.invocations == 1 and not r.used_fallback for r in reports)


def test_depth_1500_tree_is_walked_by_depth(walk_order):
    # the caterpillar puts a chain node's leaf child before or after the
    # chain below it at random, so the walk's order shows on both sides,
    # and its slices of order are reached out of offset order
    grow_deep_tree(leaf_size=1, seed=1502, rho=walk_order)
