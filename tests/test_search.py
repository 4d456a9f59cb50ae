import math

import numpy as np
import pytest

from chess_search import (BuildConfig, ClusterTree, Dataset, DimensionError,
                          MetricKind, build, insert_point, knn_search,
                          naive_search, rho_search, synth_manifold)
from chess_search.metrics import distances_to
from chess_search.tree import tree_from_bytes, tree_to_bytes

from conftest import brute_force_knn, node_members

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


def test_naive_comparisons_equal_n(small_manifold):
    ds, _ = small_manifold
    for r in (0.0, 1.0, 1e9):
        report = naive_search(ds, ds.values[3], r, E)
        assert report.comparisons == ds.n
        assert report.fraction_searched == 1.0


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


def test_cosine_never_false_positive():
    ds = synth_manifold(800, 30, 1, 1.0, seed=41)
    tree = build(ds, MetricKind.COSINE, BuildConfig(max_depth=25, min_size=8,
                                                    seed=2))
    rng = np.random.default_rng(51)
    for qi in rng.choice(ds.n, 15, replace=False):
        q = ds.values[qi] + 0.01
        for r in (1e-6, 1e-4, 1e-2):
            got = rho_search(tree, q, r, ds)
            want = naive_search(ds, q, r, MetricKind.COSINE)
            assert got.hit_indices() <= want.hit_indices()
            assert all(d <= r for _, d in got.hits)


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


def test_knn_k_out_of_range(small_manifold):
    ds, tree = small_manifold
    with pytest.raises(ValueError):
        knn_search(tree, ds.values[0], 0, ds)
    with pytest.raises(ValueError):
        knn_search(tree, ds.values[0], ds.n + 1, ds)


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
    return ClusterTree(center=center, radius=radius, lfd=np.zeros(len(rows)),
                       cardinality=card, size=size, order=order,
                       metric=E, config=BuildConfig(max_depth=ds.n, min_size=1),
                       dataset_hash=ds.content_hash())


def grow_deep_tree(leaf_size: int, seed: int) -> list:
    """Load a depth-1,500 caterpillar from v2 bytes, round-trip it, check
    range and k-NN search against the oracle, insert 10 points and check
    again. Returns every k-NN report."""
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
                got = rho_search(tree, q, r, ds)
                want = naive_search(ds, q, r, E)
                assert got.hits == want.hits
            for k in (1, 5):
                got = knn_search(tree, q, k, ds)
                dists = distances_to(ds.values, q, E)
                assert [i for i, _ in got.hits] == brute_force_knn(ds.values, q, k, dists)
                knn_reports.append(got)

    check(tree)
    n0 = ds.n
    for p in rng.uniform(0, 100, (10, 1)):
        insert_point(tree, p, ds)
    assert tree.cardinality[0] == ds.n == n0 + 10
    check(tree)
    again, _ = tree_from_bytes(tree_to_bytes(tree))
    assert tree_to_bytes(again) == tree_to_bytes(tree)
    return knn_reports


def test_depth_1500_tree_loads_searches_and_grows():
    # singleton leaves: every k-NN query still makes one range search
    reports = grow_deep_tree(leaf_size=1, seed=1500)
    assert all(r.invocations == 1 and not r.used_fallback for r in reports)


def test_depth_1500_tree_with_pair_leaves_loads_searches_and_grows():
    # two-point leaves: k=1 bounds from a leaf, k=5 from a chain node
    reports = grow_deep_tree(leaf_size=2, seed=1501)
    assert all(r.invocations == 1 and not r.used_fallback for r in reports)
