import dataclasses
import hashlib
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chess_search import (BuildConfig, ComparisonCounter, Dataset, DatasetKind,
                          DegenerateInputError, DimensionError, FormatError,
                          MetricKind, Quantizer, build, compress_tree,
                          decompress, deserialize, insert_point, knn_search,
                          lfd_depth_profile, metric_entropy, naive_search,
                          rho_search, save_dense, serialize, synth_manifold)
from chess_search.compress import DEFAULT_QUANTUM
from chess_search.metrics import distances_to
from chess_search.tree import (_TREE_HEADER, _level_partition, _level_stats,
                               _node_stats, _sample_size, _spokes, _subtree_sizes,
                               _truncated, select_poles, tree_from_bytes,
                               tree_to_bytes)

from conftest import descent_leaves, node_members, synth_aligned_strings

E = MetricKind.EUCLIDEAN


def line_dataset(coords):
    return Dataset.from_vectors(np.array(coords, dtype=float)[:, None])


def test_build_config_validation():
    with pytest.raises(ValueError):
        BuildConfig(max_depth=0)
    with pytest.raises(ValueError):
        BuildConfig(min_size=0)
    assert BuildConfig(seed=-1).seed == 2**64 - 1
    # CHESSTREE stores both as u64
    for name in ("max_depth", "min_size"):
        assert getattr(BuildConfig(**{name: 2**64 - 1}), name) == 2**64 - 1
        with pytest.raises(ValueError, match=rf"{name} must be below 2\*\*64"):
            BuildConfig(**{name: 2**64})


def test_select_poles_two_members():
    ds = line_dataset([3.0, -5.0])
    rng = np.random.default_rng(0)
    assert select_poles([0, 1], ds, E, ComparisonCounter(), rng) == (0, 1)


def test_select_poles_collinear_farthest_pair():
    # seed picked so the sqrt-size sample contains both endpoints
    ds = line_dataset([0.0, 1.0, 10.0])
    rng = np.random.default_rng(9)
    assert select_poles([0, 1, 2], ds, E, ComparisonCounter(), rng) == (0, 2)


def test_select_poles_requires_two_members():
    ds = line_dataset([1.0, 2.0])
    with pytest.raises(ValueError):
        select_poles([0], ds, E, ComparisonCounter(), np.random.default_rng(0))


def test_select_poles_near_maximal_on_random_points():
    rng = np.random.default_rng(77)
    values = rng.random((1000, 4))
    ds = Dataset.from_vectors(values)
    pair = np.linalg.norm(values[:, None, :] - values[None, :, :], axis=2)
    chosen = select_poles(np.arange(1000), ds, E, ComparisonCounter(),
                          np.random.default_rng(5))
    chosen_d = pair[chosen[0], chosen[1]]
    rank = (pair[np.triu_indices(1000, 1)] <= chosen_d).mean()
    assert rank >= 0.95


def partition(member_indices, ds, rng):
    idx = np.asarray(member_indices, dtype=np.int64)
    lc, rc = select_poles(idx, ds, E, ComparisonCounter(), rng)
    goes_left, _ = _level_partition(ds.values, idx, np.zeros(idx.size, np.int64),
                                    np.array([lc]), np.array([rc]), E,
                                    ComparisonCounter())
    return idx[goes_left], idx[~goes_left], lc, rc


def test_partition_two_points():
    ds = line_dataset([0.0, 10.0])
    left, right, lc, rc = partition([0, 1], ds, np.random.default_rng(0))
    assert left.tolist() == [0] and right.tolist() == [1]
    assert (lc, rc) == (0, 1)


def test_partition_equidistant_point_goes_left():
    # seed picked so the poles are the endpoints; index 2 sits midway
    ds = line_dataset([0.0, 8.0, 4.0])
    left, right, lc, rc = partition([0, 1, 2], ds, np.random.default_rng(1))
    assert (lc, rc) == (0, 1)
    assert 2 in left.tolist()
    assert right.tolist() == [1]


def test_partition_is_disjoint_and_exhaustive():
    rng = np.random.default_rng(13)
    ds = Dataset.from_vectors(rng.random((500, 2)))
    left, right, lc, rc = partition(np.arange(500), ds, np.random.default_rng(3))
    assert len(left) > 0 and len(right) > 0
    assert set(left.tolist()) | set(right.tolist()) == set(range(500))
    assert set(left.tolist()) & set(right.tolist()) == set()
    assert lc in left.tolist() and rc in right.tolist()


def test_identical_points_build_single_leaf():
    ds = Dataset.from_vectors(np.ones((5, 3)))
    tree = build(ds, E, BuildConfig(max_depth=10, min_size=1, seed=0))
    assert tree.size.tolist() == [1]
    assert tree.radius[0] == 0.0
    assert tree.depth == 0
    assert metric_entropy(tree) == 1


def test_leaves_partition_all_points():
    ds = line_dataset([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    tree = build(ds, E, BuildConfig(max_depth=10, min_size=1, seed=0))
    gathered = sorted(node_members(tree, 0).tolist())
    assert gathered == list(range(8))
    _, offsets = tree.leaf_offsets()
    leaf_sets = [set(tree.order[a:b].tolist()) for a, b in zip(offsets, offsets[1:])]
    assert sum(len(s) for s in leaf_sets) == 8


def test_build_rejects_incompatible_metric():
    ds = Dataset.from_strings(["ACGT", "AAAA"])
    with pytest.raises(Exception):
        build(ds, E, BuildConfig())


def test_build_comparison_bound():
    for seed in (0, 1):
        ds = synth_manifold(2000, 30, 2, 0.1, seed=seed)
        tree = build(ds, E, BuildConfig(max_depth=40, min_size=5, seed=seed))
        bound = 3 * (tree.depth + 1) * ds.n + ds.n
        assert tree.build_comparisons <= bound


def test_build_is_deterministic():
    ds = synth_manifold(400, 10, 1, 0.05, seed=6)
    t1 = build(ds, E, BuildConfig(max_depth=20, min_size=4, seed=42))
    t2 = build(ds, E, BuildConfig(max_depth=20, min_size=4, seed=42))
    assert tree_to_bytes(t1) == tree_to_bytes(t2)
    t3 = build(ds, E, BuildConfig(max_depth=20, min_size=4, seed=43))
    assert tree_to_bytes(t1) != tree_to_bytes(t3)


def reference_build(dataset, metric, config):
    """The node-at-a-time build that preceded the level-synchronous one:
    a stack of nodes in pre-order, one kernel call per seed row and two
    per partition. Trees and comparison counts must match it exactly."""
    def node_rng(stream):
        return np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, stream)))

    def sample_size(m):
        return min(m, max(2, math.isqrt(m - 1) + 1))

    def poles(idx, counter, rng):
        seeds = np.sort(rng.choice(idx, size=sample_size(idx.size), replace=False))
        best_i = best_j = 0
        best_d = -1.0
        for i in range(seeds.size - 1):
            row = distances_to(values[seeds[i + 1:]], values[seeds[i]], metric, counter)
            j = int(np.argmax(row))
            if row[j] > best_d:
                best_d = float(row[j])
                best_i, best_j = i, i + 1 + j
        return int(seeds[best_i]), int(seeds[best_j])

    def lfd(cardinality, radius, dists):
        if cardinality <= 1 or radius == 0.0:
            return 0.0
        return math.log2(cardinality / int(np.count_nonzero(dists <= radius / 2.0)))

    counter = ComparisonCounter()
    n = dataset.n
    all_idx = np.arange(n, dtype=np.int64)
    values = dataset.values
    seeds = np.sort(node_rng(0).choice(all_idx, size=sample_size(n), replace=False))
    s = seeds.size
    pair = np.zeros((s, s))
    for i in range(s - 1):
        row = distances_to(values[seeds[i + 1:]], values[seeds[i]], metric, counter)
        pair[i, i + 1:] = row
        pair[i + 1:, i] = row
    root_center = int(seeds[int(np.argmin(pair.sum(axis=1)))])
    root_dists = np.zeros(n)
    others = all_idx != root_center
    root_dists[others] = distances_to(values[others], values[root_center],
                                      metric, counter)

    rows, leaf_members = [], []
    stack = [(all_idx, root_center, root_dists, 0, 1)]
    while stack:
        idx, center, dists, depth, stream = stack.pop()
        radius = float(dists.max())
        split = not (depth >= config.max_depth or idx.size <= config.min_size
                     or radius == 0.0)
        rows.append((center, radius, lfd(idx.size, radius, dists), idx.size, split))
        if not split:
            leaf_members.append(idx)
            continue
        lc, rc = poles(idx, counter, node_rng(stream))
        pos_l = int(np.flatnonzero(idx == lc)[0])
        pos_r = int(np.flatnonzero(idx == rc)[0])
        rest = np.ones(idx.size, dtype=bool)
        rest[pos_l] = rest[pos_r] = False
        d_left = np.zeros(idx.size)
        d_right = np.zeros(idx.size)
        if rest.any():
            d_left[rest] = distances_to(values[idx[rest]], values[lc], metric, counter)
            d_right[rest] = distances_to(values[idx[rest]], values[rc], metric, counter)
        goes_left = d_left <= d_right
        goes_left[pos_l] = True
        goes_left[pos_r] = False
        stack.append((idx[~goes_left], rc, d_right[~goes_left], depth + 1, 2 * stream + 1))
        stack.append((idx[goes_left], lc, d_left[goes_left], depth + 1, 2 * stream))

    centers, radii, lfds, cards, internal = map(np.array, zip(*rows))
    return dict(center=centers.astype(np.int64), radius=radii, lfd=lfds,
                cardinality=cards.astype(np.int64), size=_subtree_sizes(internal),
                order=np.concatenate(leaf_members), build_comparisons=counter.count)


def identity_corpora():
    rng = np.random.default_rng(41)
    letters = np.frombuffer(b"ACGT-", dtype=np.uint8)
    strings = Dataset(DatasetKind.ALIGNED_STRINGS, letters[rng.integers(0, 5, (250, 24))])
    cases = []
    for seed in (0, 3, 11):
        cases += [
            (f"euclidean-{seed}", synth_manifold(700, 12, 2, 0.05, seed=seed), E,
             BuildConfig(50, 10, seed)),
            # chord, the distance of the angle between vectors
            (f"cosine-{seed}", synth_manifold(500, 8, 2, 0.5, seed=seed),
             MetricKind.CHORD, BuildConfig(50, 5, seed)),
            (f"hamming-{seed}", strings, MetricKind.HAMMING, BuildConfig(50, 4, seed)),
            (f"levenshtein-{seed}", strings, MetricKind.LEVENSHTEIN,
             BuildConfig(6, 6, seed)),
            (f"min-size-1-{seed}", synth_manifold(300, 4, 1, 0.0, seed=seed), E,
             BuildConfig(50, 1, seed)),
            (f"max-depth-3-{seed}", synth_manifold(400, 4, 2, 0.1, seed=seed), E,
             BuildConfig(3, 1, seed)),
            # repeated points: zero-radius nodes above min_size
            (f"duplicates-{seed}", Dataset.from_vectors(
                np.repeat(rng.integers(0, 3, (30, 2)).astype(float), 6, axis=0)), E,
             BuildConfig(50, 1, seed)),
            # few distinct distances: ties among seed pairs and partitions
            (f"ties-{seed}", Dataset.from_vectors(
                rng.integers(0, 4, (150, 1)).astype(float)), E, BuildConfig(50, 1, seed)),
            (f"ties-hamming-{seed}", Dataset(DatasetKind.ALIGNED_STRINGS,
                                             letters[rng.integers(0, 2, (120, 3))]),
             MetricKind.HAMMING, BuildConfig(50, 1, seed)),
        ]
        cases += [(f"n{n}-{seed}", Dataset.from_vectors(rng.random((n, 3))), E,
                   BuildConfig(50, 1, seed)) for n in (1, 2, 3)]
    return cases


@pytest.mark.parametrize("name, ds, metric, config", identity_corpora(),
                         ids=[case[0] for case in identity_corpora()])
def test_build_matches_the_node_at_a_time_reference(name, ds, metric, config):
    tree = build(ds, metric, config)
    want = reference_build(ds, metric, config)
    assert tree.build_comparisons == want.pop("build_comparisons")
    # the one pass that computes fractal dimensions also reproduces the radii
    radius, lfd = _node_stats(tree, ds.values)
    assert lfd.tobytes() == want.pop("lfd").tobytes()
    assert radius.tobytes() == tree.radius.tobytes()
    for column, expected in want.items():
        got = getattr(tree, column)
        assert got.dtype == expected.dtype, column
        assert got.tobytes() == expected.tobytes(), column


def test_build_comparisons_by_depth():
    for ds, metric, config in [
            (synth_manifold(2000, 30, 2, 0.1, seed=4), E, BuildConfig(40, 5, 4)),
            (synth_manifold(500, 6, 1, 0.0, seed=5), E, BuildConfig(50, 1, 5)),
            (synth_manifold(300, 6, 2, 0.0, seed=6), E, BuildConfig(4, 1, 6))]:
        tree = build(ds, metric, config)
        by_depth = tree.build_comparisons_by_depth
        n = ds.n
        s = _sample_size(n)
        assert len(by_depth) == tree.depth + 1
        assert sum(by_depth) == tree.build_comparisons
        # depth 0 also pays for the root: its medoid sample and distances
        assert by_depth[0] <= 3 * n + s * (s - 1) // 2 + n - 1
        assert all(0 <= cost <= 3 * n for cost in by_depth[1:])
        assert by_depth[-1] == 0  # the deepest level holds only leaves
        again, _ = tree_from_bytes(tree_to_bytes(tree))
        assert again.build_comparisons_by_depth == []  # not serialized


def test_tree_invariants_on_built_trees(corpus_b):
    datasets = [
        (synth_manifold(1500, 20, 1, 0.02, seed=8), E),
        (Dataset(DatasetKind.ALIGNED_STRINGS, corpus_b.values[:800].copy()),
         MetricKind.HAMMING),
    ]
    for ds, metric in datasets:
        tree = build(ds, metric, BuildConfig(max_depth=25, min_size=8, seed=2))
        depths = tree.depths()
        for node in range(tree.size.size):
            members = node_members(tree, node)
            assert tree.cardinality[node] == members.size
            dists = distances_to(ds.values[members], ds.values[tree.center[node]],
                                 metric)
            tol = 0.0 if metric is MetricKind.HAMMING else 1e-9
            assert dists.max() <= tree.radius[node] + tol
            assert tree.radius[node] == dists.max()  # radius is exact, not padded
            if tree.size[node] > 1:
                left = node + 1
                right = left + tree.size[left]
                assert tree.size[node] == 1 + tree.size[left] + tree.size[right]
                l = set(node_members(tree, left).tolist())
                r = set(node_members(tree, right).tolist())
                assert l | r == set(members.tolist())
                assert not l & r
            else:
                assert (depths[node] == 25 or tree.cardinality[node] <= 8
                        or tree.radius[node] == 0.0)


@pytest.mark.parametrize("metric", list(MetricKind))
def test_load_pass_gives_the_builds_values(metric):
    # the load pass works depth by depth, each depth's members the depth
    # above's less its leaves'; under every metric it gives the build's
    # radii, pivots and rings, and the node-at-a-time build's fractal
    # dimensions, bit for bit
    if metric in (MetricKind.HAMMING, MetricKind.LEVENSHTEIN):
        ds = synth_aligned_strings(300, 24, 6, 0.15, seed=9)
    else:
        ds = synth_manifold(400, 6, 2, 0.05, seed=9)
    config = BuildConfig(max_depth=12, min_size=3, seed=2)
    tree = build(ds, metric, config)
    parsed, _ = tree_from_bytes(tree_to_bytes(tree))
    assert _spokes(parsed, ds.values).tobytes() == tree.radius.tobytes()
    for name in ("pivot", "ring"):
        assert getattr(parsed, name).tobytes() == getattr(tree, name).tobytes()
    radius, lfd = _node_stats(tree, ds.values)
    assert radius.tobytes() == tree.radius.tobytes()
    assert lfd.tobytes() == reference_build(ds, metric, config)["lfd"].tobytes()


def test_lfd_singleton_is_zero():
    radius, lfd = _level_stats(np.zeros(1), np.array([1]))
    assert radius.tolist() == [0.0] and lfd.tolist() == [0.0]


def test_lfd_arithmetic():
    # 8 members, 2 of them (center plus one) within half the radius; then
    # a node of three duplicates, whose radius and dimension are zero
    coords = [0.0, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 0.0, 0.0, 0.0]
    radius, lfd = _level_stats(np.array(coords), np.array([8, 3]))
    assert radius.tolist() == [1.0, 0.0]
    assert lfd.tolist() == [2.0, 0.0]


def test_lfd_of_uniform_segment_is_about_one():
    # An interval whose center sits near its one-third point has true
    # LFD log2(3/2) ~ 0.585, so the envelope below is the attainable one;
    # most clusters still land within 1 +- 0.3.
    ds = line_dataset(np.linspace(0.0, 100.0, 4096))
    tree = build(ds, E, BuildConfig(max_depth=30, min_size=32, seed=0))
    _, lfds = _node_stats(tree, ds.values)
    measured = []
    for node in np.flatnonzero(tree.cardinality >= 64):
        lfd = lfds[node]
        # brute-force ball counts are the oracle
        dists = np.abs(ds.values[node_members(tree, node), 0]
                       - ds.values[tree.center[node], 0])
        inner = int((dists <= tree.radius[node] / 2).sum())
        import math
        assert lfd == math.log2(tree.cardinality[node] / inner)
        measured.append(lfd)
    measured = np.array(measured)
    assert len(measured) > 10
    assert measured.min() >= np.log2(3 / 2) - 0.02
    assert measured.max() <= 1.05
    assert (np.abs(measured - 1.0) <= 0.3).mean() >= 0.85
    assert abs(measured.mean() - 1.0) <= 0.2


def test_metric_entropy_counts():
    ds = Dataset.from_vectors(np.ones((3, 2)))
    assert metric_entropy(build(ds, E, BuildConfig())) == 1
    ds4 = line_dataset([0.0, 1.0, 10.0, 11.0])
    tree = build(ds4, E, BuildConfig(max_depth=5, min_size=1, seed=1))
    assert metric_entropy(tree) == 4
    assert metric_entropy(tree) == tree.size.tolist().count(1)


def test_lfd_profile_single_leaf():
    ds = Dataset.from_vectors(np.ones((4, 2)))
    tree = build(ds, E, BuildConfig())
    assert lfd_depth_profile(tree, ds) == [(0, 0, 0.0)]
    with pytest.raises(DimensionError, match="tree covers 4 points, dataset holds 5"):
        lfd_depth_profile(tree, Dataset.from_vectors(np.ones((5, 2))))


def test_lfd_profile_deciles_nondecreasing():
    ds = synth_manifold(1200, 15, 2, 0.05, seed=12)
    tree = build(ds, E, BuildConfig(max_depth=20, min_size=5, seed=3))
    profile = lfd_depth_profile(tree, ds)
    by_depth = {}
    for depth, decile, lfd in profile:
        by_depth.setdefault(depth, []).append((decile, lfd))
    for rows in by_depth.values():
        lfds = [lfd for _, lfd in sorted(rows)]
        assert lfds == sorted(lfds)


def test_insert_center_copy_keeps_radius():
    ds = synth_manifold(120, 6, 1, 0.05, seed=14)
    tree = build(ds, E, BuildConfig(max_depth=8, min_size=5, seed=0))
    leaf = int(np.flatnonzero(tree.size == 1)[0])
    before_radius, before_card = tree.radius[leaf], tree.cardinality[leaf]
    insert_point(tree, ds.values[tree.center[leaf]].copy(), ds)
    assert tree.cardinality[leaf] == before_card + 1
    assert tree.radius[leaf] == before_radius
    assert node_members(tree, leaf)[-1] == 120
    assert tree.cardinality[0] == 121


def test_insert_far_outlier_joins_its_leaf():
    ds = synth_manifold(120, 6, 1, 0.05, seed=14)
    tree = build(ds, E, BuildConfig(max_depth=8, min_size=5, seed=0))
    leaves_before = metric_entropy(tree)
    outlier = ds.values.max(axis=0) * 50 + 1000.0
    insert_point(tree, outlier, ds)
    assert metric_entropy(tree) == leaves_before
    assert tree.cardinality[0] == ds.n == 121
    # the outlier ends its leaf's slice, and every radius on its path
    # grew to reach it
    path = [node for node in range(tree.size.size) if 120 in node_members(tree, node)]
    leaf = path[-1]
    assert tree.size[leaf] == 1 and node_members(tree, leaf)[-1] == 120
    for node in path:
        assert tree.radius[node] >= distances_to(
            ds.values[tree.center[node]][None], outlier, E)[0]
    assert rho_search(tree, outlier, 0.0, ds).hit_indices() == {120}
    assert knn_search(tree, outlier, 1, ds).hits == [(120, 0.0)]


def test_grown_tree_costs_about_what_a_fresh_build_costs():
    # built on a tenth of the points with the rest inserted, leaves stay
    # as small as a build keeps them, so queries cost about the same
    n = 12_000
    values = synth_manifold(n, 20, 2, 0.0, 5).values
    values = values[np.random.default_rng(0).permutation(n)]
    config = BuildConfig(max_depth=50, min_size=10, seed=0)
    fresh_ds = Dataset.from_vectors(values)
    fresh = build(fresh_ds, E, config)
    grown_ds = Dataset.from_vectors(values[:n // 10])
    grown = build(grown_ds, E, config)
    for point in values[n // 10:]:
        insert_point(grown, point, grown_ds)
    assert tree_to_bytes(tree_from_bytes(tree_to_bytes(grown))[0]) == tree_to_bytes(grown)
    assert grown.cardinality[grown.size == 1].max() <= 2 * config.min_size

    def mean_costs(tree, ds):
        queries = ds.values[::n // 100]
        return (np.mean([knn_search(tree, q, 10, ds).comparisons for q in queries]),
                np.mean([rho_search(tree, q, 1.0, ds).comparisons for q in queries]))

    (fresh_knn, fresh_range), (grown_knn, grown_range) = (
        mean_costs(fresh, fresh_ds), mean_costs(grown, grown_ds))
    assert grown_knn <= 1.3 * fresh_knn
    assert grown_range <= 1.3 * fresh_range


LETTERS = np.frombuffer(b"ACGT-", dtype=np.uint8)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["dense", "levenshtein"]), st.integers(0, 2**32 - 1),
       st.integers(1, 4), st.sampled_from([2, 4, 50]),
       st.lists(st.sampled_from(["near", "duplicate", "far"]), min_size=1,
                max_size=60))
def test_random_insert_streams_keep_leaves_small_and_search_exact(
        kind, seed, min_size, max_depth, stream):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        metric = E
        ds = Dataset.from_vectors(rng.normal(size=(20, 3)))
    else:
        metric = MetricKind.LEVENSHTEIN
        ds = Dataset(DatasetKind.ALIGNED_STRINGS, LETTERS[rng.integers(0, 4, (20, 8))])
    config = BuildConfig(max_depth=max_depth, min_size=min_size, seed=seed)
    tree = build(ds, metric, config)
    for step in stream:
        point = ds.values[rng.integers(ds.n)].copy()
        if step == "near" and kind == "dense":
            point += rng.normal(0.0, 0.1, ds.dim)
        elif step == "near":
            point[rng.integers(ds.dim)] = LETTERS[rng.integers(5)]
        elif step == "far":  # one far point, so far inserts are duplicates too
            point = np.full(ds.dim, 1e3) if kind == "dense" else "-" * ds.dim
        insert_point(tree, point, ds)

    outgrown = ((tree.size == 1) & (tree.depths() < max_depth) & (tree.radius > 0)
                & (tree.cardinality > 2 * min_size))
    assert not outgrown.any()
    # inserts keep every radius exact
    assert _node_stats(tree, ds.values)[0].tobytes() == tree.radius.tobytes()
    raw = tree_to_bytes(tree)
    assert tree_to_bytes(tree_from_bytes(raw)[0]) == raw
    for q in ds.values[rng.choice(ds.n, 4, replace=False)]:
        everything = naive_search(ds, q, 1e9, metric).hits
        for r in (0.0, everything[ds.n // 3][1], everything[-1][1]):
            assert rho_search(tree, q, r, ds).hits == naive_search(ds, q, r, metric).hits
        for k in (1, 5):
            assert knn_search(tree, q, k, ds).hits == everything[:k]


def grown_tree(kind: str):
    """A tree built on a tenth of its points, the rest inserted."""
    if kind == "euclidean":
        metric, values = E, synth_manifold(1000, 6, 2, 0.0, seed=5).values
        ds, config = Dataset.from_vectors(values[:100]), BuildConfig(50, 5, 2)
    else:
        rng = np.random.default_rng(6)
        metric = MetricKind.LEVENSHTEIN
        values = LETTERS[rng.integers(0, 4, (300, 12))]
        ds = Dataset(DatasetKind.ALIGNED_STRINGS, values[:30])
        config = BuildConfig(50, 3, 2)
    tree = build(ds, metric, config)
    for point in values[ds.n:]:
        insert_point(tree, point, ds)
    return tree, ds


@pytest.mark.parametrize("kind", ["euclidean", "levenshtein"])
def test_fractal_dimensions_of_a_grown_tree_are_exact(kind):
    tree, ds = grown_tree(kind)
    radius, lfd = _node_stats(tree, ds.values)
    assert radius.tobytes() == tree.radius.tobytes()
    for node in range(tree.size.size):  # brute-force ball counts, node by node
        members = node_members(tree, node)
        dists = distances_to(ds.values[members], ds.values[tree.center[node]], tree.metric)
        r, card = dists.max(), members.size
        inner = int(np.count_nonzero(dists <= r / 2))
        assert lfd[node] == (math.log2(card / inner) if card > 1 and r > 0 else 0.0)


def test_search_stays_exact_after_inserts():
    ds = synth_manifold(400, 8, 1, 0.05, seed=15)
    tree = build(ds, E, BuildConfig(max_depth=12, min_size=5, seed=1))
    rng = np.random.default_rng(44)
    for i in range(30):
        point = ds.values[rng.integers(ds.n)] + rng.normal(0, 0.5, ds.dim)
        insert_point(tree, np.abs(point), ds)
    for q in ds.values[rng.choice(ds.n, 10, replace=False)]:
        for r in (0.5, 2.0, 10.0):
            got = rho_search(tree, q, r, ds).hit_indices()
            want = naive_search(ds, q, r, E).hit_indices()
            assert got == want


def test_inserts_leave_the_dataset_hash_to_its_reader(tmp_path, monkeypatch):
    ds = synth_manifold(300, 6, 1, 0.05, seed=16)
    tree = build(ds, E, BuildConfig(max_depth=12, min_size=5, seed=2))
    leaves = metric_entropy(tree)
    hashes = []
    content_hash = Dataset.content_hash
    monkeypatch.setattr(Dataset, "content_hash",
                        lambda self: hashes.append(None) or content_hash(self))
    rng = np.random.default_rng(62)
    near = rng.choice(ds.n, 10, replace=False)
    for i in range(100):  # ten inserts beside each of ten points: leaves split
        point = ds.values[near[i % 10]] + rng.normal(0.0, 0.01, ds.dim)
        insert_point(tree, np.abs(point), ds)
    assert len(hashes) == 0
    assert metric_entropy(tree) > leaves + 10

    path = tmp_path / "grown.tree"
    serialize(tree, path)
    assert tree_to_bytes(deserialize(path, ds)) == tree_to_bytes(tree)
    save_dense(ds, tmp_path / "grown.vec")
    digest = hashlib.sha256((tmp_path / "grown.vec").read_bytes()).digest()
    assert _TREE_HEADER.unpack_from(path.read_bytes())[6] == digest
    assert tree.dataset_hash == digest
    archive = tmp_path / "grown.chess"
    compress_tree(tree, ds, Quantizer(), archive)
    back = decompress(archive)
    assert back.n == ds.n == 400
    assert np.abs(back.values - ds.values).max() <= DEFAULT_QUANTUM / 2 * (1 + 1e-9)


@pytest.mark.parametrize("grow", ["append", "other tree"])
def test_dataset_grown_after_last_insert_fails_checks(tmp_path, grow):
    ds = synth_manifold(200, 4, 1, 0.05, seed=17)
    tree = build(ds, E, BuildConfig(max_depth=10, min_size=5, seed=3))
    other = build(ds, E, BuildConfig(max_depth=10, min_size=5, seed=4))
    insert_point(tree, np.full(4, 0.5), ds)
    covered = Dataset(ds.kind, ds.values.copy())
    if grow == "other tree":
        # ``other`` covers 200 of the 201 points: its insert is refused
        other_bytes = tree_to_bytes(other)
        with pytest.raises(DimensionError,
                           match="tree covers 200 points, dataset holds 201"):
            insert_point(other, np.full(4, 0.25), ds)
        assert ds == covered
        assert tree_to_bytes(other) == other_bytes
        return
    ds.append_point(np.full(4, 0.25))
    assert tree.dataset_hash == covered.content_hash() != ds.content_hash()
    with pytest.raises(ValueError, match="not built over this dataset"):
        compress_tree(tree, ds, Quantizer(), tmp_path / "stale.chess")
    path = tmp_path / "stale.tree"
    serialize(tree, path)
    with pytest.raises(FormatError, match="different dataset"):
        deserialize(path, ds)
    assert tree_to_bytes(deserialize(path, covered)) == tree_to_bytes(tree)


def test_failed_insert_leaves_tree_and_dataset_unchanged(tmp_path):
    ds = synth_manifold(300, 6, 1, 0.05, seed=19)
    tree = build(ds, MetricKind.CHORD, BuildConfig(max_depth=10, min_size=5, seed=5))
    tree_bytes = tree_to_bytes(tree)
    compress_tree(tree, ds, Quantizer(), tmp_path / "before.chess")
    with pytest.raises(DegenerateInputError):
        insert_point(tree, np.zeros(6), ds)
    assert ds.n == 300
    assert tree_to_bytes(tree) == tree_bytes
    compress_tree(tree, ds, Quantizer(), tmp_path / "after.chess")
    assert (tmp_path / "after.chess").read_bytes() \
        == (tmp_path / "before.chess").read_bytes()


@pytest.mark.parametrize("kind, point", [
    ("dense", np.zeros(5)), ("strings", "ACGTACGT-N"), ("strings", "ACGT")])
def test_refused_point_leaves_tree_and_dataset_unchanged(kind, point):
    if kind == "dense":  # the wrong dimension
        ds, metric = synth_manifold(100, 6, 1, 0.05, seed=21), E
    else:  # a bad letter, the wrong length
        ds = Dataset(DatasetKind.ALIGNED_STRINGS, LETTERS[np.random.default_rng(
            3).integers(0, 5, (100, 10))])
        metric = MetricKind.LEVENSHTEIN
    tree = build(ds, metric, BuildConfig(max_depth=8, min_size=3, seed=1))
    tree_bytes, values, digest = tree_to_bytes(tree), ds.values.copy(), ds.content_hash()
    with pytest.raises(DimensionError):
        insert_point(tree, point, ds)
    assert np.array_equal(ds.values, values) and ds.content_hash() == digest
    assert tree_to_bytes(tree) == tree_bytes


def test_insert_checks_the_point_once(monkeypatch):
    ds = synth_manifold(100, 4, 1, 0.05, seed=21)
    tree = build(ds, E, BuildConfig(max_depth=8, min_size=5, seed=1))
    calls = []
    coerce_point = Dataset.coerce_point
    monkeypatch.setattr(Dataset, "coerce_point",
                        lambda self, p: calls.append(p) or coerce_point(self, p))
    insert_point(tree, np.full(4, 0.5), ds)
    assert len(calls) == 1


def test_truncated_tree_is_the_shallower_build():
    ds = synth_manifold(1500, 8, 1, 0.02, seed=23)
    deep = build(ds, E, BuildConfig(max_depth=50, min_size=4, seed=6))
    for depth in range(1, deep.depth + 1):
        assert tree_to_bytes(_truncated(deep, depth)) == tree_to_bytes(
            build(ds, E, BuildConfig(max_depth=depth, min_size=4, seed=6)))
    # depth 0 is the root as one leaf, the tree a build with one leaf of
    # every point makes
    root = _truncated(deep, 0)
    whole = build(ds, E, BuildConfig(max_depth=1, min_size=ds.n, seed=6))
    assert root.size.tolist() == [1]
    for q in ds.values[::150]:
        for r in (0.05, 0.5):
            got, want = rho_search(root, q, r, ds), rho_search(whole, q, r, ds)
            assert got.hits == want.hits
            assert got.comparisons == want.comparisons


def test_insert_refuses_a_dataset_the_tree_does_not_cover():
    ds = synth_manifold(100, 4, 1, 0.05, seed=21)
    tree = build(ds, E, BuildConfig(max_depth=8, min_size=5, seed=1))
    small = Dataset.from_vectors(ds.values[:50])
    with pytest.raises(DimensionError,
                       match="tree covers 100 points, dataset holds 50"):
        insert_point(tree, np.full(4, 0.5), small)
    assert small.n == 50 and tree.order.size == 100


@pytest.mark.parametrize("metric", list(MetricKind))
def test_every_stored_point_descends_to_its_own_leaf(metric):
    # the build's partition, an insert's descent and k-NN's descent share
    # one rule: on into the nearer child center, ties going left. So a
    # descent toward a stored point ends at the leaf that holds it. No two
    # base points are at distance 0: the build sends a right pole right
    # even on a tie with the left pole, which a descent cannot see
    rng = np.random.default_rng(43)
    if metric.for_vectors:
        ds = synth_manifold(400, 6, 2, 0.05, seed=43)
    else:
        rows = np.unique(LETTERS[rng.integers(0, 5, (420, 24))], axis=0)
        ds = Dataset(DatasetKind.ALIGNED_STRINGS, rows[rng.permutation(400)])
    base = Dataset(ds.kind, ds.values[:300].copy())
    built = build(base, metric, BuildConfig(50, 4, 7))
    grown = build(base, metric, BuildConfig(50, 4, 7))
    grown_ds = Dataset(ds.kind, base.values.copy())
    # fresh points and duplicates of stored ones, one copy each at most,
    # so that a split's poles never coincide
    points = np.concatenate((ds.values[300:], base.values[rng.choice(300, 40, False)]))
    for p in points[rng.permutation(len(points))]:
        insert_point(grown, p, grown_ds)
    assert metric_entropy(grown) > metric_entropy(built)
    parsed, _ = tree_from_bytes(tree_to_bytes(grown))
    for tree, data in ((built, base), (grown, grown_ds), (parsed, grown_ds),
                       (_truncated(built, built.depth // 2), base)):
        leaves, bounds = tree.leaf_offsets()
        want = np.empty(data.n, dtype=np.int64)
        want[tree.order] = np.repeat(leaves, np.diff(bounds))
        assert np.array_equal(descent_leaves(tree, data), want)


def test_repr_of_grown_tree_does_not_hash(monkeypatch):
    ds = synth_manifold(100, 4, 1, 0.05, seed=18)
    tree = build(ds, E, BuildConfig(max_depth=8, min_size=5, seed=1))
    insert_point(tree, np.full(4, 0.5), ds)
    monkeypatch.setattr(Dataset, "content_hash", lambda self: pytest.fail("hashed"))
    assert "dataset_hash" not in repr(tree)
    assert tree._grown is not None


def test_serialize_roundtrip_small(tmp_path):
    ds = line_dataset([0.0, 1.0, 10.0])
    tree = build(ds, E, BuildConfig(max_depth=3, min_size=1, seed=9))
    path = tmp_path / "t.tree"
    serialize(tree, path)
    loaded = deserialize(path, ds)
    assert tree_to_bytes(loaded) == tree_to_bytes(tree)
    assert loaded.config == tree.config
    assert loaded.metric is tree.metric


def test_deserialize_refuses_wrong_dataset(tmp_path):
    ds = line_dataset([0.0, 1.0, 10.0])
    other = line_dataset([0.0, 1.0, 11.0])
    tree = build(ds, E, BuildConfig(seed=9))
    path = tmp_path / "t.tree"
    serialize(tree, path)
    with pytest.raises(FormatError, match="different dataset"):
        deserialize(path, other)


def test_deserialize_truncated(tmp_path):
    ds = line_dataset([0.0, 1.0, 10.0])
    tree = build(ds, E, BuildConfig(seed=9))
    path = tmp_path / "t.tree"
    serialize(tree, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError, match="truncated"):
        deserialize(path, ds)


@pytest.mark.parametrize("metric", [E, MetricKind.LEVENSHTEIN])
def test_deserialize_refuses_a_radius_below_its_members(metric, tmp_path):
    # a stream with one radius shrunk and its checksum made valid again
    # passes every structural check, and a search pruning on it would
    # drop hits. The load pass measures every node's members and refuses
    # it, naming the node and its radius entry's byte offset. A vector
    # radius short by less than the rounding slack a search allows loads
    if metric.for_vectors:
        ds = synth_manifold(200, 4, 1, 0.05, seed=3)
    else:
        ds = synth_aligned_strings(60, 20, 3, 0.1, seed=3)
    tree = build(ds, metric, BuildConfig(max_depth=6, min_size=2, seed=1))
    k = int(np.flatnonzero(tree.radius > 0)[-1])
    at = _TREE_HEADER.size + 9 * tree.size.size + 8 * k
    path = tmp_path / "t.tree"
    for shrunk, refused in ((np.nextafter(tree.radius[k], 0), not metric.for_vectors),
                            (tree.radius[k] * 0.9, True)):
        raw = bytearray(tree_to_bytes(tree))
        raw[at:at + 8] = struct.pack("<d", shrunk)
        raw[-4:] = struct.pack("<I", zlib.crc32(raw[:-4]))
        assert tree_from_bytes(bytes(raw))[0].radius[k] == shrunk
        path.write_bytes(raw)
        if refused:
            with pytest.raises(FormatError,
                               match=f"radius of node {k} is .* at byte offset {at}$"):
                deserialize(path, ds)
        else:
            assert deserialize(path, ds).radius[k] == shrunk


def test_serialized_trees_search_identically(tmp_path):
    rng = np.random.default_rng(50)
    for i in range(100):
        ds = Dataset.from_vectors(rng.random((24, 3)))
        tree = build(ds, E, BuildConfig(max_depth=6, min_size=2, seed=i))
        path = tmp_path / f"t{i}.tree"
        serialize(tree, path)
        loaded = deserialize(path, ds)
        for q in rng.random((10, 3)):
            r = float(rng.random() * 0.8)
            assert (rho_search(tree, q, r, ds).hits
                    == rho_search(loaded, q, r, ds).hits)


def fuzz_tree_bytes() -> bytes:
    ds = synth_manifold(60, 4, 1, 0.05, seed=3)
    return tree_to_bytes(build(ds, E, BuildConfig(max_depth=6, min_size=3, seed=1)))


FUZZ_TREE = fuzz_tree_bytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 8 * len(FUZZ_TREE) - 1), min_size=1, max_size=3,
                unique=True))
def test_tree_bit_flips_fail_loudly(bits):
    raw = bytearray(FUZZ_TREE)
    for bit in bits:
        raw[bit // 8] ^= 1 << (bit % 8)
    try:
        tree, _ = tree_from_bytes(bytes(raw))
    except FormatError:
        return
    assert tree_to_bytes(tree) == FUZZ_TREE


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(FUZZ_TREE) - 1))
def test_truncated_tree_fails_loudly(length):
    with pytest.raises(FormatError):
        tree_from_bytes(FUZZ_TREE[:length])


@pytest.mark.parametrize("version", [1, 2])
def test_old_tree_versions_are_refused(version):
    # version 2 carried a fractal-dimension column; tree files must be rebuilt
    raw = bytearray(FUZZ_TREE)
    raw[len(b"CHESSTREE")] = version
    with pytest.raises(FormatError, match=f"unsupported tree version {version}"):
        tree_from_bytes(bytes(raw))


@pytest.mark.parametrize("offset, field, message", [
    # id 1 was the retired cosine distance
    (10, b"\x01", "unknown metric id byte 1"),
    (11, struct.pack("<Q", 0), "max_depth must be positive, got 0"),
    (19, struct.pack("<Q", 0), "min_size must be positive, got 0")])
def test_bad_header_field_names_its_byte(offset, field, message):
    raw = bytearray(FUZZ_TREE)
    raw[offset:offset + len(field)] = field
    raw[-4:] = struct.pack("<I", zlib.crc32(raw[:-4]))  # a valid checksum
    with pytest.raises(FormatError, match=f"^{message} at byte offset {offset}$"):
        tree_from_bytes(bytes(raw))


def _leaf_centers_swapped(tree):
    center = tree.center.copy()
    leaves = np.flatnonzero(tree.size == 1)
    center[leaves[0]], center[leaves[-1]] = center[leaves[-1]], center[leaves[0]]
    return {"center": center}


def _with(column, index, value):
    def change(tree):
        array = getattr(tree, column).copy()
        array[index] = value
        return {column: array}
    return change


@pytest.mark.parametrize("change, message", [
    (_with("size", 0, 1), "node beyond the end of the tree"),
    (_with("size", -1, 3), "tree unfinished"),
    (_with("cardinality", 0, 61), "cardinality out of range"),
    (_with("cardinality", 1, 1), "sum of its children"),
    (_with("radius", 2, -1.0), "bad radius"),
    (_with("radius", 2, np.nan), "bad radius"),
    (_with("order", 0, 60), "point index out of range"),
    (_with("order", 1, 0), "repeated point index"),
    (_leaf_centers_swapped, "center outside its own cluster"),
])
def test_structural_faults_name_a_byte_offset(change, message):
    tree, _ = tree_from_bytes(FUZZ_TREE)
    # tree_to_bytes writes a valid checksum, so only the structure is wrong
    raw = tree_to_bytes(dataclasses.replace(tree, **change(tree)))
    with pytest.raises(FormatError, match=f"{message}.* at byte offset \\d+"):
        tree_from_bytes(raw)


def test_bad_radius_offset_points_at_the_entry():
    tree, _ = tree_from_bytes(FUZZ_TREE)
    nodes = tree.size.size
    raw = tree_to_bytes(dataclasses.replace(tree, **_with("radius", 2, -1.0)(tree)))
    # header, then flags (1 byte per node) and centers (8 bytes per node)
    at = _TREE_HEADER.size + 9 * nodes + 8 * 2
    with pytest.raises(FormatError, match=f"at byte offset {at}$"):
        tree_from_bytes(raw)
    assert raw[at:at + 8] == np.array([-1.0], dtype="<f8").tobytes()
