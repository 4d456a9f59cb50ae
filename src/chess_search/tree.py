"""Divisive binary cluster hierarchy over a dataset, stored as flat arrays.

The build picks two maximally separated seed points (poles) from a
random sample of roughly sqrt(m) members, assigns every member to the
nearer pole, and splits each side again. A node stops splitting at the
configured maximum depth, at or below the minimum size, or when its
radius is zero (all members identical). Per-node geometry is exact: the
radius is the maximum member distance to the center, and the local
fractal dimension is the log2 ratio of member counts within the full
radius and half the radius.

Member distances to the freshly chosen child center fall out of the
partitioning step, so radii and fractal dimensions cost no additional
distance evaluations; the total build cost stays within
``3 * (depth + 1) * n + n`` comparisons.

Each node draws randomness from its own seeded stream (heap numbering),
so a tree is a pure function of (dataset, metric, config) regardless of
evaluation order. The build exploits that: it works one depth at a time,
and every distance of a depth (all seed pairs of its nodes, then all
members against their own node's two poles) is evaluated in row-paired
kernel calls over cache-sized blocks. :func:`select_poles` and
``_partition_core`` are the pole and partition steps of one node.
``build_comparisons_by_depth`` splits the build's cost by depth.

A tree is a struct of arrays, one entry per node in pre-order:
``center``, ``radius``, ``lfd``, ``cardinality`` and ``size`` (nodes in
the subtree, 1 for a leaf). Node ``i``'s children are ``i + 1`` and
``i + 1 + size[i + 1]``. Every node's members are one contiguous slice
of the permutation ``order``: the left child's slice starts at its
parent's and the right child's follows it. No walk recurses, so depth
is bounded by memory, not by the interpreter's recursion limit. The
CHESSTREE v2 stream stores the columns (flags in place of ``size``),
``order`` and a CRC32; parsing checks the checksum and the structure.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import DimensionError, FormatError
from .metrics import ComparisonCounter, MetricKind, distances_to

__all__ = [
    "BuildConfig",
    "ClusterTree",
    "build",
    "select_poles",
    "metric_entropy",
    "lfd_depth_profile",
    "insert_point",
    "serialize",
    "deserialize",
    "tree_to_bytes",
    "tree_from_bytes",
]

TREE_MAGIC = b"CHESSTREE"
TREE_VERSION = 2
# magic, version, metric, max_depth, min_size, seed, dataset hash,
# node count, point count
_TREE_HEADER = struct.Struct("<9sBBQQQ32sQQ")
_U32 = struct.Struct("<I")
# columns in stream order: one entry per node, then one per point
_COLUMNS = (("flags", "u1"), ("center", "<u8"), ("radius", "<f8"),
            ("lfd", "<f8"), ("cardinality", "<u8"), ("order", "<u8"))

#: Bytes of the rows gathered for one kernel call of a build pass; the
#: call also gathers as many bytes of queries.
_BLOCK_BYTES = 80 * 1024

#: Multiple of the leaf radius beyond which an inserted point starts a
#: new sibling cluster instead of joining the leaf.
DEFAULT_SPLIT_FACTOR = 2.0


@dataclass
class BuildConfig:
    """Build parameters; the seed is normalized to an unsigned 64-bit value."""

    max_depth: int = 50
    min_size: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {self.max_depth}")
        if self.min_size <= 0:
            raise ValueError(f"min_size must be positive, got {self.min_size}")
        self.seed = int(self.seed) & 0xFFFFFFFFFFFFFFFF


@dataclass(eq=False)
class ClusterTree:
    """Pre-order node columns plus the member permutation ``order``.

    ``dataset_hash`` is the SHA-256 of the dataset the tree covers. After
    :func:`insert_point` it is the hash of the rows the dataset held at
    the tree's last insert, worked out on the first read (serialization,
    the checks of :func:`deserialize` and ``compress_tree``) instead of
    on every insert.
    """

    center: np.ndarray       # int64 point index of each node's center
    radius: np.ndarray       # float64 exact radius
    lfd: np.ndarray          # float64 local fractal dimension
    cardinality: np.ndarray  # int64 member count
    size: np.ndarray         # int64 nodes in the subtree, 1 for a leaf
    order: np.ndarray        # int64 permutation of the point indices
    metric: MetricKind
    config: BuildConfig
    # a property over _hash and _grown, installed below
    dataset_hash: bytes = field(repr=False)
    build_comparisons: int = 0
    #: comparisons spent on each depth's nodes (the root's center and
    #: distances count toward depth 0); set by :func:`build`, not serialized
    build_comparisons_by_depth: list[int] = field(default_factory=list, repr=False)
    _hash: bytes | None = field(default=None, init=False, repr=False)
    # the grown dataset and its ``values`` at the tree's last insert, if
    # the hash has not been read or set since
    _grown: tuple[Dataset, np.ndarray] | None = field(default=None, init=False,
                                                     repr=False)

    def leaf_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Pre-order leaf node indices, and where each leaf's slice of
        ``order`` starts followed by where the last one ends (pre-order
        leaves tile ``order``)."""
        leaves = np.flatnonzero(self.size == 1)
        return leaves, np.concatenate(([0], np.cumsum(self.cardinality[leaves])))

    def leaf_members(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Pre-order leaf node indices and each leaf's slice of ``order``."""
        leaves, offsets = self.leaf_offsets()
        return leaves, np.split(self.order, offsets[1:-1])

    def depths(self) -> np.ndarray:
        """Depth of every node; the root is at depth 0. A node's depth is
        the number of internal nodes whose subtree span covers it."""
        internal = np.flatnonzero(self.size > 1)
        step = np.zeros(self.size.size + 1, dtype=np.int64)
        np.add.at(step, internal + 1, 1)
        np.add.at(step, internal + self.size[internal], -1)
        return np.cumsum(step[:-1])

    @property
    def depth(self) -> int:
        """Deepest leaf level actually reached."""
        return int(self.depths().max())

    def mean_leaf_radius(self) -> float:
        return float(self.radius[self.size == 1].mean())

    def median_leaf_radius(self) -> float:
        return float(np.median(self.radius[self.size == 1]))


def _read_hash(tree: ClusterTree) -> bytes:
    if tree._grown is not None:
        dataset, values = tree._grown
        if dataset.values is not values:  # appended to since: hash the snapshot
            dataset = Dataset(dataset.kind, values)
        tree._hash, tree._grown = dataset.content_hash(), None
    return tree._hash


def _write_hash(tree: ClusterTree, digest: bytes) -> None:
    tree._hash, tree._grown = digest, None


# Installed after the dataclass is made, so the constructor and
# dataclasses.replace still take and copy ``dataset_hash`` as a field.
ClusterTree.dataset_hash = property(_read_hash, _write_hash)


def _subtree_sizes(internal: np.ndarray) -> np.ndarray:
    """Nodes in every subtree of a full binary tree given in pre-order by
    its internal-node flags.

    ``level`` counts internal minus leaf nodes so far; the subtree of node
    ``i`` ends at the first ``k >= i`` where ``level`` is one below its
    value before ``i``. Keys ``(level + 1, k)`` sorted in one array let a
    single ``searchsorted`` find that ``k`` for every ``i``.
    """
    step = np.where(internal, 1, -1)
    level = np.cumsum(step)
    n = level.size
    index = np.arange(n)
    keys = np.sort((level + 1) * (n + 1) + index)
    ends = keys[np.searchsorted(keys, (level - step) * (n + 1) + index)] % (n + 1)
    return ends - index + 1


def _node_rng(seed: int, stream: int) -> np.random.Generator:
    # one independent stream per node (heap numbering); stream 0 is
    # reserved for root-center selection
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, stream)))


def _sample_size(m: int) -> int:
    return min(m, max(2, math.isqrt(m - 1) + 1))  # ceil(sqrt(m)), clamped to [2, m]


def _paired_pass(values: np.ndarray, rows: np.ndarray, queries: np.ndarray,
                 metric: MetricKind, counter: ComparisonCounter) -> np.ndarray:
    """``d(values[rows[k]], values[queries[k]])`` for every ``k``, one
    paired kernel call per block of rows.

    Each temporary of one call (gathered rows, gathered queries, their
    differences) stays near ``_BLOCK_BYTES``, in cache and below glibc's
    default 128 KiB mmap threshold, instead of being mapped and faulted
    in anew on every call. On the ``vec-query`` corpus (2-core x86 VM,
    mmap threshold pinned as the benchmark pins it), whole builds with 48
    to 88 KiB blocks took about the same time; 96 KiB and more measured
    10-20% slower.
    """
    block = max(1, _BLOCK_BYTES // (values.itemsize * values.shape[1]))
    out = np.empty(rows.size)
    for a in range(0, rows.size, block):
        out[a:a + block] = distances_to(values[rows[a:a + block]],
                                        values[queries[a:a + block]], metric, counter)
    return out


def _draw_seeds(members: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``ceil(sqrt(m))`` distinct members (at least two), in ascending
    point-index order."""
    return np.sort(rng.choice(members, size=_sample_size(members.size), replace=False))


def _level_poles(values: np.ndarray, seeds: list[np.ndarray], metric: MetricKind,
                 counter: ComparisonCounter) -> tuple[np.ndarray, np.ndarray]:
    """The two poles of every node of a level from its seeds.

    Every seed pair ``i < j`` of every node is evaluated in one paired
    pass, node after node and row-major within a node; a node's poles
    are its first pair at the maximum distance, so ties go to the
    smallest seed positions and the left pole has the lower index.
    """
    pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    firsts, seconds = [], []
    for node_seeds in seeds:
        k = node_seeds.size
        if k not in pairs:
            pairs[k] = np.triu_indices(k, 1)
        i, j = pairs[k]
        firsts.append(node_seeds[i])
        seconds.append(node_seeds[j])
    counts = np.array([f.size for f in firsts])
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    d = _paired_pass(values, second, first, metric, counter)
    starts = np.cumsum(counts) - counts
    segment = np.repeat(np.arange(counts.size), counts)
    at_max = np.flatnonzero(d == np.maximum.reduceat(d, starts)[segment])
    best = at_max[np.searchsorted(segment[at_max], np.arange(counts.size))]
    return first[best], second[best]


def _level_partition(values: np.ndarray, members: np.ndarray, node_of: np.ndarray,
                     left: np.ndarray, right: np.ndarray, metric: MetricKind,
                     counter: ComparisonCounter) -> tuple[np.ndarray, np.ndarray]:
    """Assign the members of a level's nodes to their node's poles.

    ``node_of`` gives each member's node, whose poles are ``left`` and
    ``right`` at that position. A member goes left when its distance to
    the left pole is less than or equal to its distance to the right
    pole; each pole always lands on its own side and is not compared.
    One paired pass evaluates every other member against both its poles.
    Returns the left-going mask and every member's distance to its own
    side's pole.
    """
    is_left = members == left[node_of]
    is_right = members == right[node_of]
    rest = np.flatnonzero(~(is_left | is_right))
    rest_nodes = node_of[rest]
    d = _paired_pass(values, np.concatenate((members[rest], members[rest])),
                     np.concatenate((left[rest_nodes], right[rest_nodes])),
                     metric, counter)
    d_left = np.zeros(members.size)
    d_right = np.zeros(members.size)
    d_left[rest], d_right[rest] = d[:rest.size], d[rest.size:]
    goes_left = (d_left <= d_right) & ~is_right  # ties go left
    return goes_left, np.where(goes_left, d_left, d_right)


def select_poles(member_indices, dataset: Dataset, metric: MetricKind,
                 counter: ComparisonCounter, rng: np.random.Generator,
                 ) -> tuple[int, int]:
    """Pick the two maximally separated points of a random member sample.

    Draws ``max(2, ceil(sqrt(m)))`` distinct seeds and returns the seed
    pair at maximum pairwise distance, ties broken toward the smallest
    point indices. The first element of the returned pair is always the
    lower point index. This is the build's pole step for one node.
    """
    idx = np.asarray(member_indices, dtype=np.int64)
    if idx.size < 2:
        raise ValueError("select_poles requires at least 2 members")
    left, right = _level_poles(dataset.values, [_draw_seeds(idx, rng)], metric, counter)
    return int(left[0]), int(right[0])


def _partition_core(member_indices: np.ndarray, dataset: Dataset,
                    metric: MetricKind, counter: ComparisonCounter,
                    rng: np.random.Generator):
    """Split members between two poles chosen by :func:`select_poles`: the
    build's pole and partition steps for one node.

    Returns each side's indices and center, together with every member's
    distance to its own side's center.
    """
    idx = np.asarray(member_indices, dtype=np.int64)
    if idx.size < 2:
        raise ValueError("partition requires at least 2 members")
    left, right = select_poles(idx, dataset, metric, counter, rng)
    goes_left, own = _level_partition(dataset.values, idx, np.zeros(idx.size, np.int64),
                                      np.array([left]), np.array([right]),
                                      metric, counter)
    return idx[goes_left], idx[~goes_left], left, right, own[goes_left], own[~goes_left]


def _lfd(cardinality: int, radius: float, inner: int) -> float:
    """log2 of the member count within the radius over the count
    ``inner`` within half the radius; zero for singletons and
    zero-radius clusters."""
    if cardinality <= 1 or radius == 0.0:
        return 0.0
    return math.log2(cardinality / inner)


def _lfd_from_dists(cardinality: int, radius: float, dists: np.ndarray) -> float:
    return _lfd(cardinality, radius, int(np.count_nonzero(dists <= radius / 2.0)))


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.column_stack((a, b)).reshape(-1)


def build(dataset: Dataset, metric: MetricKind, config: BuildConfig) -> ClusterTree:
    """Cluster the dataset into a binary hierarchy.

    The root center is the sampled point minimizing the summed distance
    to a sqrt(n) sample (an approximate geometric median); child centers
    are the poles of their parent's partition. Identical inputs produce
    identical trees.

    The build goes one depth at a time. A level holds the members of its
    nodes, node after node, each node's in ascending point-index order,
    with their distances to the node's center. Radii and fractal
    dimensions are reductions over those segments. Every splitting node
    draws its seeds from its own stream; one paired pass evaluates all
    seed pairs of the level and one more all partition distances, and the
    members regroup stably into the next level, left child before right.
    Leaves write their members into ``order`` at their offset; the
    pre-order columns are assembled at the end from the child links (the
    children of a level's ``r``-th splitting node are nodes ``2r`` and
    ``2r + 1`` of the next level).
    """
    if not dataset.compatible_with(metric):
        raise DimensionError(
            f"metric {metric.value} does not apply to {dataset.kind.value} data")
    counter = ComparisonCounter()
    n = dataset.n
    values = dataset.values
    seeds = _draw_seeds(np.arange(n, dtype=np.int64), _node_rng(config.seed, 0))
    i, j = np.triu_indices(seeds.size, 1)
    pair = np.zeros((seeds.size, seeds.size))
    pair[i, j] = pair[j, i] = _paired_pass(values, seeds[j], seeds[i], metric, counter)
    root = int(seeds[int(np.argmin(pair.sum(axis=1)))])
    others = np.flatnonzero(np.arange(n) != root)
    dists = np.zeros(n)
    dists[others] = _paired_pass(values, others, np.full(others.size, root),
                                 metric, counter)

    # the current level: members, distances to their own center, member
    # count, center, stream (heap numbering) and offset in ``order`` per node
    members = np.arange(n, dtype=np.int64)
    counts, centers, streams, offsets = (np.array([n]), np.array([root]), [1],
                                         np.array([0]))
    order = np.empty(n, dtype=np.int64)
    levels, spent = [], [0]  # spent: the comparison count after each depth
    for depth in itertools.count():
        starts = np.cumsum(counts) - counts
        radius = np.maximum.reduceat(dists, starts)
        inner = np.add.reduceat(dists <= np.repeat(radius / 2.0, counts), starts,
                                dtype=np.int64)
        lfd = np.array([_lfd(*node) for node in zip(counts.tolist(), radius.tolist(),
                                                    inner.tolist())])
        split = (counts > config.min_size) & (radius != 0.0)
        if depth >= config.max_depth:
            split[:] = False
        levels.append((centers, radius, lfd, counts, split))
        leaf = np.repeat(~split, counts)
        order[np.flatnonzero(leaf) + np.repeat(offsets - starts, counts)[leaf]] = \
            members[leaf]
        if not split.any():
            break

        inside = np.repeat(split, counts)
        members, counts, offsets = members[inside], counts[split], offsets[split]
        starts = np.cumsum(counts) - counts
        streams = [s for s, f in zip(streams, split.tolist()) if f]
        left, right = _level_poles(values, [
            _draw_seeds(members[a:a + c], _node_rng(config.seed, s))
            for a, c, s in zip(starts.tolist(), counts.tolist(), streams)],
            metric, counter)
        node_of = np.repeat(np.arange(counts.size), counts)
        goes_left, own = _level_partition(values, members, node_of, left, right,
                                          metric, counter)
        child = 2 * node_of + ~goes_left
        regroup = np.argsort(child, kind="stable")
        members, dists = members[regroup], own[regroup]
        counts = np.bincount(child, minlength=2 * counts.size)
        centers = _interleave(left, right)
        streams = [t for s in streams for t in (2 * s, 2 * s + 1)]
        offsets = _interleave(offsets, offsets + counts[0::2])
        spent.append(counter.count)
    spent.append(counter.count)

    # subtree sizes bottom-up, then pre-order positions top-down
    sizes, below = [], None
    for *_, split in reversed(levels):
        size = np.ones(split.size, dtype=np.int64)
        if below is not None:
            size[split] += below[0::2] + below[1::2]
        sizes.append(size)
        below = size
    sizes.reverse()
    nodes = int(sizes[0][0])
    columns = (np.empty(nodes, np.int64), np.empty(nodes), np.empty(nodes),
               np.empty(nodes, np.int64), np.empty(nodes, np.int64))
    position = np.zeros(1, dtype=np.int64)
    for (*fields, split), size, below in zip(levels, sizes, sizes[1:] + [None]):
        for column, value in zip(columns, (*fields, size)):
            column[position] = value
        if below is not None:
            first = position[split] + 1
            position = _interleave(first, first + below[0::2])
    center, radius, lfd, cardinality, size = columns
    return ClusterTree(
        center=center, radius=radius, lfd=lfd, cardinality=cardinality, size=size,
        order=order, metric=metric, config=config,
        dataset_hash=dataset.content_hash(), build_comparisons=counter.count,
        build_comparisons_by_depth=np.diff(spent).tolist())


def metric_entropy(tree: ClusterTree) -> int:
    """Number of leaf clusters."""
    return int(np.count_nonzero(tree.size == 1))


def lfd_depth_profile(tree: ClusterTree) -> list[tuple[int, int, float]]:
    """Mean local fractal dimension per (depth, decile).

    Clusters at each depth are ranked by fractal dimension and split
    into ten rank buckets; empty buckets are omitted. Rows are sorted by
    depth then decile, and decile means are nondecreasing within a
    depth by construction.
    """
    depths = tree.depths()
    ranked = np.lexsort((tree.lfd, depths))
    depths, lfds = depths[ranked], tree.lfd[ranked]
    starts = np.flatnonzero(np.diff(depths)) + 1
    rows: list[tuple[int, int, float]] = []
    for depth, group in zip(depths[np.r_[0, starts]].tolist(),
                            np.split(lfds, starts)):
        for decile, bucket in enumerate(np.array_split(group, 10)):
            if bucket.size:
                rows.append((depth, decile, float(bucket.mean())))
    return rows


def insert_point(tree: ClusterTree, point, dataset: Dataset,
                 split_factor: float = DEFAULT_SPLIT_FACTOR) -> ClusterTree:
    """Add one point to the dataset and thread it into the tree.

    Descends from the root following the nearer child center (ties going
    left), updating cardinality and radius along the path. The point
    joins the end of the leaf's slice of ``order``. When it lands farther
    than ``split_factor`` times the leaf radius from the leaf center (and
    the radius is positive), the leaf becomes an internal node over the
    old leaf and a new singleton: two pre-order rows are inserted after
    it.

    Cost: one distance to the root center, then one kernel call per level
    on the two child centers; the chosen child's distance serves the next
    level's radius update and, at the leaf, the split test. Besides the
    descent, an insert appends to the dataset (amortized O(1)), shifts the
    tail of ``order`` by one and, on a split, the node columns by two;
    the dataset hash is left to its first reader (see
    :class:`ClusterTree`).

    Requires exclusive access: no concurrent searches during mutation.
    """
    arr = dataset.coerce_point(point)
    new_index = dataset.append_point(arr)
    values = dataset.values
    center, radius, card, size = tree.center, tree.radius, tree.cardinality, tree.size

    path = []
    node = off = 0
    d_node = float(distances_to(values[center[:1]], arr, tree.metric)[0])
    while size[node] > 1:
        path.append(node)
        radius[node] = max(radius[node], d_node)
        left = node + 1
        right = left + int(size[left])
        d_left, d_right = distances_to(values[center[[left, right]]], arr,
                                       tree.metric).tolist()
        if d_left <= d_right:
            node, d_node = left, d_left
        else:
            node, d_node, off = right, d_right, off + int(card[left])
    split = radius[node] > 0.0 and d_node > split_factor * radius[node]
    if split:  # the leaf becomes the parent of its old self and a singleton
        tree.center, tree.radius, tree.lfd, tree.cardinality, tree.size = (
            np.concatenate((column[:node + 1], [column[node], new], column[node + 1:]))
            for column, new in ((center, new_index), (radius, 0.0),
                                (tree.lfd, 0.0), (card, 1), (size, 1)))
        tree.size[path + [node]] += 2
    path.append(node)
    tree.cardinality[path] += 1
    tree.radius[node] = max(tree.radius[node], d_node)
    end = off + int(tree.cardinality[node])
    tree.order = np.concatenate((tree.order[:end - 1], [new_index],
                                 tree.order[end - 1:]))
    if split:
        members = tree.order[off:end]
        tree.lfd[node] = _lfd_from_dists(
            members.size, tree.radius[node],
            distances_to(values[members], values[center[node]], tree.metric))

    # rows of ``values`` are never rewritten, so the view is a snapshot
    tree._grown = dataset, dataset.values
    return tree


def tree_to_bytes(tree: ClusterTree) -> bytes:
    """Serialize to the CHESSTREE v2 wire format: header, one column per
    node field, ``order``, CRC32."""
    body = b"".join([
        _TREE_HEADER.pack(TREE_MAGIC, TREE_VERSION, tree.metric.wire_id,
                          tree.config.max_depth, tree.config.min_size,
                          tree.config.seed, tree.dataset_hash,
                          tree.size.size, tree.order.size),
        (tree.size > 1).astype("u1").tobytes(),
        tree.center.astype("<u8").tobytes(),
        tree.radius.astype("<f8").tobytes(),
        tree.lfd.astype("<f8").tobytes(),
        tree.cardinality.astype("<u8").tobytes(),
        tree.order.astype("<u8").tobytes(),
    ])
    return body + _U32.pack(zlib.crc32(body))


def tree_from_bytes(raw: bytes, offset: int = 0) -> tuple[ClusterTree, int]:
    """Parse a CHESSTREE byte stream; returns the tree and the end offset.

    Checks the checksum and the tree's structure; any fault raises
    :class:`FormatError` naming a byte offset. The returned tree is not
    yet bound to a dataset: callers are responsible for checking
    ``dataset_hash`` (see :func:`deserialize`).
    """
    if len(raw) - offset < _TREE_HEADER.size:
        raise FormatError(f"truncated tree header at byte offset {len(raw)}")
    magic, version, metric_id, max_depth, min_size, seed, digest, nodes, points = \
        _TREE_HEADER.unpack_from(raw, offset)
    if magic != TREE_MAGIC:
        raise FormatError(f"bad tree magic at byte offset {offset}")
    if version != TREE_VERSION:
        raise FormatError(f"unsupported tree version {version} at byte offset "
                          f"{offset + len(TREE_MAGIC)}")
    try:
        metric = MetricKind.from_wire_id(metric_id)
        config = BuildConfig(max_depth=max_depth, min_size=min_size, seed=seed)
    except ValueError as exc:
        raise FormatError(f"{exc} in tree header at byte offset {offset}") from None
    pos = offset + _TREE_HEADER.size
    counts = {name: points if name == "order" else nodes for name, _ in _COLUMNS}
    end = pos + sum(np.dtype(wire).itemsize * counts[name] for name, wire in _COLUMNS)
    if len(raw) < end + _U32.size:
        raise FormatError(f"truncated tree at byte offset {len(raw)}")
    if zlib.crc32(memoryview(raw)[offset:end]) != _U32.unpack_from(raw, end)[0]:
        raise FormatError(f"tree checksum mismatch at byte offset {end}")

    columns: dict[str, np.ndarray] = {}
    starts: dict[str, tuple[int, int]] = {}  # byte offset and width of entries
    for name, wire in _COLUMNS:
        column = np.frombuffer(raw, dtype=wire, count=counts[name], offset=pos)
        starts[name] = (pos, column.itemsize)
        pos += column.nbytes
        columns[name] = column.astype(np.float64 if column.dtype.kind == "f"
                                      else np.int64)
    size = _check_structure(columns, starts)
    del columns["flags"]
    return (ClusterTree(size=size, metric=metric, config=config,
                        dataset_hash=digest, **columns), end + _U32.size)


def _check_structure(columns: dict[str, np.ndarray],
                     starts: dict[str, tuple[int, int]]) -> np.ndarray:
    """Raise :class:`FormatError` at the first entry that breaks the tree's
    structure; return the subtree sizes."""

    def fail(name: str, k: int, what: str):
        start, width = starts[name]
        raise FormatError(f"{what} (entry {k}) at byte offset {start + k * width}")

    def check(ok: np.ndarray, name: str, what: str) -> None:
        bad = np.flatnonzero(~ok)
        if bad.size:
            fail(name, int(bad[0]), what)

    flags, center, card, order = (columns[name] for name in
                                  ("flags", "center", "cardinality", "order"))
    nodes, n = flags.size, order.size
    if nodes == 0:
        fail("flags", 0, "tree without nodes")
    check(flags <= 1, "flags", "bad node flag")
    # a pre-order full binary tree closes exactly at its last node
    level = np.cumsum(np.where(flags == 1, 1, -1))
    check(np.r_[True, level[:-1] >= 0], "flags", "node beyond the end of the tree")
    if level[-1] != -1:
        fail("flags", nodes - 1, "tree unfinished at its last node")
    size = _subtree_sizes(flags == 1)

    check((card >= 1) & (card <= n), "cardinality", "cardinality out of range")
    if card[0] != n:
        fail("cardinality", 0, f"root cardinality differs from the {n} points")
    left = np.minimum(np.arange(1, nodes + 1), nodes - 1)
    right = np.minimum(left + size[left], nodes - 1)
    check((flags == 0) | (card == card[left] + card[right]), "cardinality",
          "cardinality differs from the sum of its children")
    radius = columns["radius"]
    check(np.isfinite(radius) & (radius >= 0), "radius", "bad radius")
    check(np.isfinite(columns["lfd"]), "lfd", "non-finite fractal dimension")

    check((order >= 0) & (order < n), "order", "point index out of range")
    check(np.bincount(order, minlength=n)[order] == 1, "order", "repeated point index")
    check((center >= 0) & (center < n), "center", "center index out of range")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    # a node's slice starts after the members of the leaves before it
    leaf_card = np.where(flags == 0, card, 0)
    off, at = np.cumsum(leaf_card) - leaf_card, position[center]
    check((off <= at) & (at < off + card), "center", "center outside its own cluster")
    return size


def serialize(tree: ClusterTree, path) -> None:
    Path(path).write_bytes(tree_to_bytes(tree))


def deserialize(path, dataset: Dataset) -> ClusterTree:
    """Load a CHESSTREE file, refusing trees built over a different dataset."""
    tree, end = tree_from_bytes(Path(path).read_bytes())
    if tree.dataset_hash != dataset.content_hash():
        raise FormatError(
            f"{path}: tree was built over a different dataset "
            f"(hash {tree.dataset_hash.hex()[:16]}..., "
            f"dataset {dataset.content_hash().hex()[:16]}...)")
    if not dataset.compatible_with(tree.metric):
        raise FormatError(f"{path}: metric {tree.metric.value} does not apply "
                          f"to {dataset.kind.value} data")
    return tree
