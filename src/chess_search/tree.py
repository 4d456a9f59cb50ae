"""Divisive binary cluster hierarchy over a dataset, stored as flat arrays.

The build picks two maximally separated seed points (poles) from a
random sample of roughly sqrt(m) members, assigns every member to the
nearer pole, and splits each side again. A node stops splitting at the
configured maximum depth, at or below the minimum size, or when its
radius is zero (all members identical). A node's radius is exact: the
maximum member distance to its center.

Member distances to the freshly chosen child center fall out of the
partitioning step, so radii cost no additional distance evaluations; the
total build cost stays within ``3 * (depth + 1) * n + n`` comparisons.
The same distances give every point's *pivots*, its distances to the
centers of its leaf and the leaf's nearest ancestors, ``_RINGS`` of
them (LAESA's pivot table, Micó, Oncina and Vidal, Pattern Recognition
Letters 1994, with the tree's own centers as pivots), and every node's
*rings*, the ranges ``[lo, hi]`` of its members' distances to the
centers of its ``_RINGS`` nearest ancestors (GNAT's range tables, Brin,
VLDB 1995, kept for the eight nearest ancestors), which a range search
uses to rule points and subtrees out by the triangle inequality. One
step makes both in the build, a split and the load (:func:`_ring_step`):
a node's rings are the column ranges of its members' pivot rows as its
parent left them, which then take their distances to its center in front.
The same step keeps each node's *center pivots*, its center's pivot row
as its parent left it, which a k-NN descent reads to choose a child
without testing either center.
A node's local fractal dimension is not stored: :func:`lfd_depth_profile`
computes it from the tree and the dataset when it is read.

Each node draws randomness from its own seeded stream (heap numbering),
so a tree is a pure function of (dataset, metric, config) regardless of
evaluation order. The build exploits that: it works one depth at a time,
and every distance of a depth (all seed pairs of its nodes, then all
members against their own node's two poles) is evaluated in row-paired
kernel calls over cache-sized blocks. ``build_comparisons_by_depth``
splits the build's cost by depth.

A tree is a struct of arrays, one entry per node in pre-order:
``center``, ``radius``, ``cardinality`` and ``size`` (nodes in
the subtree, 1 for a leaf). Node ``i``'s children are ``i + 1`` and
``i + 1 + size[i + 1]``. Every node's members are one contiguous slice
of the permutation ``order``: the left child's slice starts at its
parent's and the right child's follows it. Pre-order is therefore the
order of the slices' offsets, the shallower node first where offsets
are equal; the build sorts its nodes so, and the subtree sizes follow
from which nodes are internal, both in the build and in the parser. No
walk recurses, so depth is bounded by memory, not by the interpreter's
recursion limit. The CHESSTREE v3 stream stores the columns (flags in
place of ``size``), ``order`` and a CRC32; parsing checks the checksum
and the structure.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import DimensionError, FormatError
from .metrics import ComparisonCounter, MetricKind, _rounding_slack, distances_to

__all__ = [
    "BuildConfig",
    "ClusterTree",
    "build",
    "metric_entropy",
    "lfd_depth_profile",
    "insert_point",
    "serialize",
    "deserialize",
    "tree_to_bytes",
    "tree_from_bytes",
]

TREE_MAGIC = b"CHESSTREE"
TREE_VERSION = 3
# magic, version, metric, max_depth, min_size, seed, dataset hash,
# node count, point count
_TREE_HEADER = struct.Struct("<9sBBQQQ32sQQ")
_U32 = struct.Struct("<I")
# the columns in stream order, for writer and parser alike: one entry per
# node (``flags`` is 1 where ``size > 1``), then one per point
_COLUMNS = (("flags", "u1"), ("center", "<u8"), ("radius", "<f8"),
            ("cardinality", "<u8"), ("order", "<u8"))

#: Bytes of the rows gathered for one kernel call of a build pass or a
#: search scan; a build call also gathers as many bytes of queries.
_BLOCK_BYTES = 80 * 1024

#: Ancestors each node keeps a ring against, nearest first. On the
#: benchmark's seed-1 range reads, on trees as built, 8 rings make 0.7%
#: more comparisons than rings against every ancestor on ``vec-churn``
#: (39.62 against 39.34; 41.71 at 4 rings) and as many on ``seq-edit``;
#: and a fixed width keeps the table at 16 floats a node, however deep.
_RINGS = 8


@dataclass
class BuildConfig:
    """Build parameters; the seed is normalized to an unsigned 64-bit value."""

    max_depth: int = 50
    min_size: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_depth", "min_size"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if value >= 2 ** 64:  # CHESSTREE stores both as u64
                raise ValueError(f"{name} must be below 2**64, got {value}")
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
    #: every point's *pivots*, shape ``(points, _RINGS)``: ``pivot[x, k]``
    #: is point ``x``'s distance to the center of its leaf's ``k``-th
    #: nearest ancestor-or-self (the leaf itself at ``k = 0``). After
    #: inserts, rows past the last point are spare room, so that an insert
    #: writes one row and copies nothing. Every node's *rings*, shape
    #: ``(nodes, _RINGS, 2)``: ``ring[i, k]`` is ``[lo, hi]``, the least and
    #: greatest of node ``i``'s members' distances to the center of its
    #: ``(k + 1)``-th nearest ancestor (its parent at ``k = 0``), so a
    #: leaf's ring ``k`` is the range of its members' pivot column ``k + 1``.
    #: An entry past the root is nan (the root's rings are all nan), and so
    #: is one not known, which a search reads as ruling nothing out: a new
    #: tree (parsed, constructed or a ``_truncated`` cut) knows none,
    #: :func:`build` and :func:`insert_point` write those they compute, and
    #: :func:`_spokes` works them all out (:func:`deserialize` calls it).
    #: Every known entry is exactly its distance or range, and a ring is
    #: known only where all its members' distances are: a leaf's known
    #: ring ``k`` holds every member's pivot column ``k + 1``, which the
    #: search relies on. Known rings nest, which :func:`insert_point`
    #: relies on: a node's ring against an ancestor lies within its
    #: parent's against that ancestor. Every node's *center pivots*, shape
    #: ``(nodes, _RINGS)``: ``center_pivot[i, k]`` is the distance from node
    #: ``i``'s center to the center of its ``(k + 1)``-th nearest ancestor,
    #: the center's pivot row as its parent left it, so the step that makes
    #: the rings makes them too, at no distance; ``search.knn_search``'s
    #: descent reads them. They are nan past the root and where not known,
    #: as pivots and rings are, and known as the center's pivots are. Not
    #: serialized: deflated, the pivot table's first column alone would add
    #: 14.5% to the ``vec-query`` archive, and all three come from one load
    #: pass. Not constructor arguments: an insert writes them in place, so
    #: a ``dataclasses.replace`` copy makes its own, all nan.
    pivot: np.ndarray = field(init=False, repr=False)
    ring: np.ndarray = field(init=False, repr=False)
    center_pivot: np.ndarray = field(init=False, repr=False)
    _hash: bytes | None = field(default=None, init=False, repr=False)
    # the grown dataset and its ``values`` at the tree's last insert, if
    # the hash has not been read or set since
    _grown: tuple[Dataset, np.ndarray] | None = field(default=None, init=False,
                                                     repr=False)

    def __post_init__(self) -> None:
        # one read-only nan shared by every row: a tree that knows no pivot
        # (parsed, cut or copied) holds no table until an insert grows one.
        # It knows no ring or center pivot either
        self.pivot = np.broadcast_to(math.nan, (self.order.size, _RINGS))
        self.ring = np.full((self.size.size, _RINGS, 2), math.nan)
        self.center_pivot = np.full((self.size.size, _RINGS), math.nan)

    def leaf_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Pre-order leaf node indices, and where each leaf's slice of
        ``order`` starts followed by where the last one ends (pre-order
        leaves tile ``order``)."""
        leaves = np.flatnonzero(self.size == 1)
        return leaves, np.concatenate(([0], np.cumsum(self.cardinality[leaves])))

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


def _block_rows(values: np.ndarray) -> int:
    """Rows of ``values`` that fit ``_BLOCK_BYTES``, at least one."""
    return max(1, _BLOCK_BYTES // (values.itemsize * values.shape[1]))


def _paired_pass(values: np.ndarray, rows: np.ndarray, queries: np.ndarray,
                 metric: MetricKind, counter: ComparisonCounter | None) -> np.ndarray:
    """``d(values[rows[k]], values[queries[k]])`` for every ``k``, one
    paired kernel call per block of rows. A block whose rows all share
    one query (most partition blocks near the root) passes it as a single
    1-D row instead: nothing is gathered for it, and the Levenshtein
    kernel builds its match masks once instead of once per row.

    Each temporary of one call (gathered rows, gathered queries, their
    differences) stays near ``_BLOCK_BYTES``, in cache and below glibc's
    default 128 KiB mmap threshold, instead of being mapped and faulted
    in anew on every call. On the ``vec-query`` corpus (2-core x86 VM,
    mmap threshold pinned as the benchmark pins it), whole builds with 48
    to 88 KiB blocks took about the same time; 96 KiB and more measured
    10-20% slower.
    """
    block = _block_rows(values)
    out = np.empty(rows.size)
    for a in range(0, rows.size, block):
        q = queries[a:a + block]
        shared = (q == q[0]).all()
        out[a:a + block] = distances_to(values[rows[a:a + block]],
                                        values[q[0] if shared else q], metric, counter)
    return out


def _draw_seeds(members: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``ceil(sqrt(m))`` distinct members (at least two), in ascending
    point-index order."""
    return np.sort(rng.choice(members, size=_sample_size(members.size), replace=False))


def _level_poles(values: np.ndarray, seeds: list[np.ndarray], metric: MetricKind,
                 counter: ComparisonCounter | None) -> tuple[np.ndarray, np.ndarray]:
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
                     counter: ComparisonCounter | None) -> tuple[np.ndarray, np.ndarray]:
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


def _level_stats(dists: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius and local fractal dimension of every node, from its members'
    distances to its center, node after node (``counts`` members each)."""
    starts = np.cumsum(counts) - counts
    radius = np.maximum.reduceat(dists, starts)
    inner = np.add.reduceat(dists <= np.repeat(radius / 2.0, counts), starts,
                            dtype=np.int64)
    # math.log2 per node: np.log2 differs from it in the last bit on some ratios
    lfd = np.array([math.log2(c / i) if c > 1 and r != 0.0 else 0.0 for c, r, i
                    in zip(counts.tolist(), radius.tolist(), inner.tolist())])
    return radius, lfd


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.column_stack((a, b)).reshape(-1)


def _ring_step(pivots: np.ndarray, starts: np.ndarray, own: np.ndarray,
               at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A level's rings and center pivots from its members' pivot rows, then
    the rows one level down: the one step that makes every ring and pivot.

    ``pivots[k, j]`` is member ``j``'s distance to the center of its
    parent's ``k``-th nearest ancestor-or-self (nan where not known; no
    row past the root or ``_RINGS``), the members node after node, each
    node's from ``starts``, and ``at`` is where each node's center is
    among them. A node's ring ``k`` is the least and greatest of its
    members' ``pivots[k]``, nan if any is nan or past the rows, and its
    center pivot ``k`` is its center's ``pivots[k]``, nan past the rows.
    Returns the rings, shape ``(nodes, _RINGS, 2)``, the center pivots,
    shape ``(nodes, _RINGS)``, and the pivots moved one row down, ``own``,
    each member's distance to its node's center, in front.
    """
    ring = np.full((starts.size, _RINGS, 2), math.nan)
    ring[:, :len(pivots), 0] = np.minimum.reduceat(pivots, starts, axis=1).T
    ring[:, :len(pivots), 1] = np.maximum.reduceat(pivots, starts, axis=1).T
    center = np.full((starts.size, _RINGS), math.nan)
    center[:, :len(pivots)] = pivots.take(at, axis=1).T
    return ring, center, np.vstack((own, pivots[:_RINGS - 1]))


def _level_split(values: np.ndarray, members: np.ndarray, counts: np.ndarray,
                 streams: list[int], seed: int, metric: MetricKind,
                 counter: ComparisonCounter | None, pivots: np.ndarray,
                 ) -> tuple[np.ndarray, ...]:
    """Split every node of a level in two: the one step that splits a node,
    in :func:`build` and :func:`insert_point` alike.

    ``members`` holds the nodes' members node after node, ``counts`` each
    in ascending point-index order; node ``k`` draws its seeds from stream
    ``streams[k]``. ``pivots`` holds the members' pivot rows as its
    columns, their node's center first (see :func:`_ring_step`); they
    regroup with the members, give the children's rings, and each child's
    center's column is its center pivots, before the rows take the
    partition distances in front: all at no distance. Returns the
    children's centers, members (stable within each child), rings, center
    pivots, radii and counts, left child first, and the members' pivots
    as the children leave them (a child's center at 0, not compared).
    """
    starts = np.cumsum(counts) - counts
    left, right = _level_poles(values, [
        _draw_seeds(members[a:a + c], _node_rng(seed, s))
        for a, c, s in zip(starts.tolist(), counts.tolist(), streams)],
        metric, counter)
    node_of = np.repeat(np.arange(counts.size), counts)
    goes_left, own = _level_partition(values, members, node_of, left, right,
                                      metric, counter)
    child = 2 * node_of + ~goes_left
    regroup = np.argsort(child, kind="stable")
    children = np.bincount(child, minlength=2 * counts.size)  # each at least 1
    centers, members, pivots, own = (_interleave(left, right), members[regroup],
                                     pivots.take(regroup, axis=1), own[regroup])
    starts = np.cumsum(children) - children
    # each pole lands on its own side, once
    at = np.flatnonzero(members == np.repeat(centers, children))
    ring, center_pivot, pivots = _ring_step(pivots, starts, own, at)
    return (centers, members, ring, center_pivot, np.maximum.reduceat(own, starts),
            children, pivots)


def build(dataset: Dataset, metric: MetricKind, config: BuildConfig) -> ClusterTree:
    """Cluster the dataset into a binary hierarchy.

    The root center is the sampled point minimizing the summed distance
    to a sqrt(n) sample (an approximate geometric median); child centers
    are the poles of their parent's partition. Identical inputs produce
    identical trees.

    The build goes one depth at a time. A level holds the members of its
    nodes, node after node, each node's in ascending point-index order,
    their pivot rows, and each node's radius, the maximum of its members'
    distances to its center. Every splitting node draws its seeds from
    its own stream; one paired pass evaluates all seed pairs of the level
    and one more all partition distances, which also give the children's
    radii, and the members and their rows regroup stably into the next
    level, left child before right, the rows giving the children's rings
    and center pivots and taking the partition distances in front
    (:func:`_level_split`): no distance is added. The rows are the columns
    of one array, cut at the root, so each ring reduces contiguous memory
    and no nan; rows of eight, nan past the root, made the ``vec-query``
    build 5-7% slower (in process, one core of a 2-core x86 VM). Leaves
    write their members into ``order`` at their offset and their rows into
    the pivot table. The pre-order columns are the levels' columns sorted
    by offset, the shallower node first among equal offsets, and the
    subtree sizes follow from which nodes split.
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
    own = np.zeros(n)
    own[others] = _paired_pass(values, others, np.full(others.size, root), metric,
                               counter)
    # the current level: its members and their pivot rows, then per node
    # member count, center, radius, rings, stream (heap numbering) and
    # offset in ``order``
    members = np.arange(n, dtype=np.int64)
    ring, center_pivot, pivots = _ring_step(np.empty((0, n)), np.array([0]), own,
                                            np.array([root]))
    counts, centers, radius, streams, offsets = (
        np.array([n]), np.array([root]), np.array([own.max()]), [1], np.array([0]))
    order = np.empty(n, dtype=np.int64)
    pivot = np.full((n, _RINGS), math.nan)
    levels, spent = [], [0]  # spent: the comparison count after each depth
    for depth in itertools.count():
        split = (counts > config.min_size) & (radius != 0.0)
        if depth >= config.max_depth:
            split[:] = False
        levels.append((centers, radius, counts, ring, center_pivot, split, offsets,
                       np.full(counts.size, depth)))
        leaf = np.repeat(~split, counts)
        starts = np.cumsum(counts) - counts
        done, at = members[leaf], np.flatnonzero(leaf)
        order[at + np.repeat(offsets - starts, counts)[leaf]] = done
        pivot[done, :len(pivots)] = pivots.take(at, axis=1).T
        if not split.any():
            break

        inside = np.repeat(split, counts)
        streams = [s for s, f in zip(streams, split.tolist()) if f]
        centers, members, ring, center_pivot, radius, counts, pivots = _level_split(
            values, members[inside], counts[split], streams, config.seed, metric,
            counter, pivots.take(np.flatnonzero(inside), axis=1))
        streams = [t for s in streams for t in (2 * s, 2 * s + 1)]
        offsets = _interleave(offsets[split], offsets[split] + counts[0::2])
        spent.append(counter.count)
    spent.append(counter.count)

    # pre-order: a node's slice of ``order`` starts at its offset, and a
    # node shares its offset only with its leftmost descendants
    *columns, internal, offset, depth = map(np.concatenate, zip(*levels))
    pre = np.lexsort((depth, offset))
    center, radius, cardinality, ring, center_pivot = (column[pre] for column in columns)
    tree = ClusterTree(
        center=center, radius=radius, cardinality=cardinality,
        size=_subtree_sizes(internal[pre]), order=order, metric=metric, config=config,
        dataset_hash=dataset.content_hash(), build_comparisons=counter.count,
        build_comparisons_by_depth=np.diff(spent).tolist())
    tree.pivot, tree.ring, tree.center_pivot = pivot, ring, center_pivot
    return tree


def _truncated(tree: ClusterTree, depth: int) -> ClusterTree:
    """The tree cut at ``depth``, each new leaf's slice of ``order`` sorted
    as the build leaves it. Every node draws from its own stream, so for
    ``depth >= 1`` this is byte for byte the tree a build with ``max_depth
    = depth`` makes; depth 0 is the root as one leaf. The build's
    comparison counts are not carried over.

    A cut computes no distance, so it knows no pivot or ring (all nan);
    ``_spokes`` works them out, as the build of that depth makes them.
    """
    depths = tree.depths()
    keep = depths <= depth
    internal = ((tree.size > 1) & (depths < depth))[keep]
    cardinality = tree.cardinality[keep]
    leaf_card = cardinality[~internal]
    leaf_of = np.repeat(np.arange(leaf_card.size), leaf_card)
    return ClusterTree(
        center=tree.center[keep], radius=tree.radius[keep], cardinality=cardinality,
        size=_subtree_sizes(internal), order=tree.order[np.lexsort((tree.order, leaf_of))],
        metric=tree.metric, dataset_hash=tree.dataset_hash,
        # a config holds no depth 0
        config=dataclasses.replace(tree.config, max_depth=max(depth, 1)))


def metric_entropy(tree: ClusterTree) -> int:
    """Number of leaf clusters."""
    return int(np.count_nonzero(tree.size == 1))


def _levels(tree: ClusterTree, values: np.ndarray):
    """Yield ``(nodes, members, distances)`` for every depth from the root:
    its nodes in pre-order, their members node after node, and each
    member's distance to its node's center, the build's distances.

    A depth's members are the depth above's less its leaves': pre-order
    slices of ``order``. Each depth is one paired pass of at most ``n``
    pairs, the member as the row and the center as the query, as the build
    pairs them; a center is at 0 and not compared. The distances belong to
    no query and are not counted."""
    depth = tree.depths()
    by_depth = np.argsort(depth, kind="stable")
    edges = np.cumsum(np.bincount(depth)).tolist()
    members = tree.order
    for a, b in zip([0, *edges], edges):
        nodes = by_depth[a:b]
        card = tree.cardinality[nodes]
        centers = np.repeat(tree.center[nodes], card)
        rest = np.flatnonzero(members != centers)
        dists = np.zeros(members.size)
        dists[rest] = _paired_pass(values, members[rest], centers[rest], tree.metric,
                                   None)
        yield nodes, members, dists
        members = members[np.repeat(tree.size[nodes] > 1, card)]


def _node_stats(tree: ClusterTree, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius and local fractal dimension of every node in pre-order, from
    :func:`_levels`; the radii are the build's."""
    radius, lfd = np.empty(tree.size.size), np.empty(tree.size.size)
    for nodes, _, dists in _levels(tree, values):
        radius[nodes], lfd[nodes] = _level_stats(dists, tree.cardinality[nodes])
    return radius, lfd


def _spokes(tree: ClusterTree, values: np.ndarray) -> np.ndarray:
    """Work out all of the tree's pivots, rings and center pivots (see
    :class:`ClusterTree`) from ``values`` and store them on it; return
    every node's radius as its members' distances give it.

    Depth by depth over :func:`_levels`, the members' pivot rows take the
    build's step (:func:`_ring_step`): they give the depth's rings, each
    node's center's row gives its center pivots, and the rows shift one
    column right, the members' distances to their node's center going in
    front. A leaf's members' rows are then their pivots, and the rest go
    on to the next depth. The values are the build's, bit for bit."""
    tree.pivot = np.full((tree.order.size, _RINGS), math.nan)
    radius, tree.ring = np.empty(tree.size.size), np.empty((tree.size.size, _RINGS, 2))
    tree.center_pivot = np.empty((tree.size.size, _RINGS))
    pivots = np.empty((0, tree.order.size))
    for nodes, members, dists in _levels(tree, values):
        card = tree.cardinality[nodes]
        starts = np.cumsum(card) - card
        radius[nodes] = np.maximum.reduceat(dists, starts)
        center_at = np.flatnonzero(members == np.repeat(tree.center[nodes], card))
        tree.ring[nodes], tree.center_pivot[nodes], pivots = _ring_step(
            pivots, starts, dists, center_at)
        leaf = np.repeat(tree.size[nodes] == 1, card)
        at, rest = np.flatnonzero(leaf), np.flatnonzero(~leaf)
        tree.pivot[members[at], :len(pivots)] = pivots.take(at, axis=1).T
        pivots = pivots.take(rest, axis=1)
    return radius


def _check_exact_cover(tree: ClusterTree, dataset: Dataset) -> None:
    if dataset.n != tree.order.size:
        raise DimensionError(f"tree covers {tree.order.size} points, "
                             f"dataset holds {dataset.n}")


def lfd_depth_profile(tree: ClusterTree, dataset: Dataset) -> list[tuple[int, int, float]]:
    """Mean local fractal dimension per (depth, decile).

    A node's local fractal dimension is log2 of its member count over the
    count within half its radius of its center, 0 for a singleton or a
    zero radius. It is computed here from the tree and ``dataset``, so it
    is exact on a grown tree too, at one distance per member of every
    node: 285,345 pairs, about 70 ms on the seed-1 ``vec-query`` index,
    a quarter of its build (best of 10, one core of a 2-core x86 VM).

    Clusters at each depth are ranked by fractal dimension and split
    into ten rank buckets; empty buckets are omitted. Rows are sorted by
    depth then decile, and decile means are nondecreasing within a
    depth by construction.
    """
    _check_exact_cover(tree, dataset)
    _, lfd = _node_stats(tree, dataset.values)
    depths = tree.depths()
    ranked = np.lexsort((lfd, depths))
    depths, lfds = depths[ranked], lfd[ranked]
    starts = np.flatnonzero(np.diff(depths)) + 1
    rows: list[tuple[int, int, float]] = []
    for depth, group in zip(depths[np.r_[0, starts]].tolist(),
                            np.split(lfds, starts)):
        for decile, bucket in enumerate(np.array_split(group, 10)):
            if bucket.size:
                rows.append((depth, decile, float(bucket.mean())))
    return rows


def insert_point(tree: ClusterTree, point, dataset: Dataset) -> ClusterTree:
    """Add one point to the dataset and thread it into the tree.

    Descends from the root following the nearer child center (ties going
    left), updating cardinality and radius along the path. The point
    joins the end of its leaf's slice of ``order``, however far from the
    leaf's center it lands. A leaf that then holds more than ``2 *
    min_size`` members, lies below ``max_depth`` and has a radius above 0
    splits by the build's level step, on its members in ascending
    point-index order and seeded as the build seeds that node: two child
    rows go in after it, and its slice of ``order`` becomes the left
    child's members followed by the right child's. Should the new point's
    child still outgrow that rule (only a leaf of duplicates can leave one
    so), it splits in turn.

    The insert checks before it writes, and undoes nothing: the dataset
    must hold exactly the points the tree covers (else a
    :class:`DimensionError`), :meth:`Dataset.coerce_point` must take the
    point, and its distance to the root center must be defined (not a
    zero vector under the chord distance). A refused point leaves the
    tree and the dataset as they were; it is appended after the descent.

    Cost: one distance to the root center, then one kernel call per level
    on the two child centers. The point's distance to each node on its
    path widens that node's radius and the rings of the next ``_RINGS``
    nodes on the path against its center; the last ``_RINGS`` of them,
    the leaf's first, are the point's row of the pivot table. The radii
    are widened in one vector operation over the path after the
    descent. The rings nest, so for each node on the path the
    widening goes up from the deepest ring against it and stops at the
    first that already holds the distance, and a nan ring stays nan:
    about one ring read per path node (15.4 for 13-node paths on
    ``vec-churn``). In the benchmark, whose reads between inserts leave
    the insert's code and data out of cache, that loop added 14 us to an
    insert where one vector operation over the path's ``(path, _RINGS)``
    block added 25 us (medians, 2-core x86 VM). A split adds the
    build's cost for one node of ``2 * min_size + 1`` members, about
    ``min_size`` inserts apart. As in the build, :func:`_level_split`
    takes the members' pivot rows to the new leaves' rings (nan where any
    member's entry is not known) and each new leaf's center's row to its
    center pivots, and then puts the partition distances in front of the
    rows, at no distance; the new rows go in after the split leaf's, as
    the node columns' do. The insert's own descent reads no center pivot:
    they decide few of its levels, and the reads cost more than the tests
    they save. Besides that, an
    insert appends to the dataset and to the pivot table (amortized O(1)),
    shifts the tail of ``order`` by one and, on a split, the node columns
    and the ring and center pivot tables by two;
    the dataset hash is left to its first reader (see
    :class:`ClusterTree`). It works out no other pivot or ring.

    Requires exclusive access: no concurrent searches during mutation.
    """
    _check_exact_cover(tree, dataset)
    arr = dataset.coerce_point(point)
    metric, config = tree.metric, tree.config
    values = dataset.values
    center, radius, card, size = tree.center, tree.radius, tree.cardinality, tree.size
    d_node = float(distances_to(values[center[:1]], arr, metric)[0])

    path, d_path = [], []  # the nodes descended through and the point's distances
    node = off = 0
    stream = 1  # the node's seed stream, numbered as the build numbers it
    while size[node] > 1:
        path.append(node)
        d_path.append(d_node)
        left = node + 1
        right = left + int(size[left])
        # ``take`` on Python ints gathers the two rows in under half the time
        # of indexing with an index array
        pair = values.take((center.item(left), center.item(right)), axis=0)
        d_left, d_right = distances_to(pair, arr, metric).tolist()
        if d_left <= d_right:
            node, d_node, stream = left, d_left, 2 * stream
        else:
            node, d_node, stream = right, d_right, 2 * stream + 1
            off += int(card[left])
    path.append(node)
    d_path.append(d_node)
    # index arrays made once cost less than a conversion of the list per use
    nodes, d = np.array(path), np.array(d_path)
    card[nodes] += 1
    radius[nodes] = np.maximum(radius[nodes], d)
    # path node i's ring k is against path node j = i - 1 - k. Rings nest (a
    # node's members are some of its parent's), so going up from the deepest
    # ring against j, once one holds d[j] every shallower one does; a nan
    # ring bounds nothing and stays nan
    ring, item = tree.ring, tree.ring.item
    for j, d_j in enumerate(d_path[:-1]):
        for i in range(min(j + _RINGS, len(path) - 1), j, -1):
            node, k = path[i], i - j - 1
            lo, hi = item(node, k, 0), item(node, k, 1)
            if lo <= d_j <= hi:
                break
            if d_j < lo:
                ring[node, k, 0] = d_j
            elif d_j > hi:
                ring[node, k, 1] = d_j
    new_index = dataset._append(arr)
    values = dataset.values
    end = off + int(card[node])
    tree.order = np.concatenate((tree.order[:end - 1], [new_index],
                                 tree.order[end - 1:]))
    if new_index == len(tree.pivot):
        # no spare room: add an eighth, none of it known. At 64 bytes a
        # point, doubling would hold 1.25 MB of spare rows for a
        # 19,500-point tree after its first insert
        spare = np.full((new_index // 8 + 1, _RINGS), math.nan)
        tree.pivot = np.concatenate((tree.pivot, spare))
    # the point's distances to its leaf's center and its nearest ancestors'
    known = min(len(d_path), _RINGS)
    tree.pivot[new_index, :known] = d[:-known - 1:-1]

    # The build splits above ``min_size``; an insert waits for twice that.
    # A split costs about four plain inserts (0.25 against 0.065 ms, medians
    # on a 2-core x86 VM). At the build's threshold a leaf would split again
    # after a few inserts and lift the slowest inserts; at twice it, each
    # split is spread over about ``min_size`` inserts.
    while (card[node] > 2 * config.min_size and radius[node] > 0.0
           and len(path) <= config.max_depth):
        members = np.sort(tree.order[off:off + int(card[node])])
        (centers, members, child_ring, child_center_pivot, child_radius, counts,
         pivots) = _level_split(values, members, card[node:node + 1], [stream],
                                config.seed, metric, None, tree.pivot[members].T)
        tree.pivot[members] = pivots.T
        tree.order[off:off + members.size] = members
        size[path] += 2
        (tree.center, tree.radius, tree.cardinality, tree.size, tree.ring,
         tree.center_pivot) = (
            np.insert(column, node + 1, added, axis=0) for column, added in
            ((center, centers), (radius, child_radius), (card, counts), (size, [1, 1]),
             (tree.ring, child_ring), (tree.center_pivot, child_center_pivot)))
        center, radius, card, size = tree.center, tree.radius, tree.cardinality, tree.size
        if new_index in members[:counts[0]]:  # on into the new point's child
            node, stream = node + 1, 2 * stream
        else:
            node, stream, off = node + 2, 2 * stream + 1, off + int(counts[0])
        path.append(node)

    # rows of ``values`` are never rewritten, so the view is a snapshot
    tree._grown = dataset, values
    return tree


def tree_to_bytes(tree: ClusterTree) -> bytes:
    """Serialize to the CHESSTREE v3 wire format: header, the columns of
    ``_COLUMNS`` in order, CRC32."""
    header = _TREE_HEADER.pack(TREE_MAGIC, TREE_VERSION, tree.metric.wire_id,
                               tree.config.max_depth, tree.config.min_size,
                               tree.config.seed, tree.dataset_hash,
                               tree.size.size, tree.order.size)
    flags = tree.size > 1
    columns = [(flags if name == "flags" else getattr(tree, name)).astype(wire)
               for name, wire in _COLUMNS]
    body = b"".join([header, *(column.tobytes() for column in columns)])
    return body + _U32.pack(zlib.crc32(body))


def tree_from_bytes(raw: bytes) -> tuple[ClusterTree, int]:
    """Parse a CHESSTREE byte stream; returns the tree and the end offset.

    Checks the checksum and the tree's structure; any fault raises
    :class:`FormatError` naming a byte offset. The returned tree is not
    yet bound to a dataset: callers are responsible for checking
    ``dataset_hash`` (see :func:`deserialize`).

    The stream holds no pivot, ring or center pivot: the tree knows none
    until :func:`_spokes` works them out (:func:`deserialize` does). An
    insert before then learns only the rows it writes, so a split leaf's
    rings and center pivots, from its members' rows, are nan but for
    inserted points: searches stay exact, but test the children those
    rings would prune and the centers those pivots would spare.
    """
    if len(raw) < _TREE_HEADER.size:
        raise FormatError(f"truncated tree header at byte offset {len(raw)}")
    magic, version, metric_id, max_depth, min_size, seed, digest, nodes, points = \
        _TREE_HEADER.unpack_from(raw)
    if magic != TREE_MAGIC:
        raise FormatError("bad tree magic at byte offset 0")
    if version != TREE_VERSION:
        raise FormatError(f"unsupported tree version {version} at byte offset "
                          f"{len(TREE_MAGIC)}")
    at = len(TREE_MAGIC) + 1  # the metric id byte, then the build config
    try:
        metric = MetricKind.from_wire_id(metric_id)
    except ValueError as exc:
        raise FormatError(f"{exc} at byte offset {at}") from None
    try:
        config = BuildConfig(max_depth=max_depth, min_size=min_size, seed=seed)
    except ValueError as exc:  # max_depth or min_size is 0
        field = at + 1 if max_depth == 0 else at + 9
        raise FormatError(f"{exc} at byte offset {field}") from None
    pos = _TREE_HEADER.size
    counts = {name: points if name == "order" else nodes for name, _ in _COLUMNS}
    end = pos + sum(np.dtype(wire).itemsize * counts[name] for name, wire in _COLUMNS)
    if len(raw) < end + _U32.size:
        raise FormatError(f"truncated tree at byte offset {len(raw)}")
    if zlib.crc32(memoryview(raw)[:end]) != _U32.unpack_from(raw, end)[0]:
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


def _read_tree_file(path) -> ClusterTree:
    """Parse a CHESSTREE file, refusing bytes after the stream."""
    raw = Path(path).read_bytes()
    try:
        tree, end = tree_from_bytes(raw)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if end != len(raw):
        raise FormatError(f"{path}: trailing bytes after the tree at byte offset {end}")
    return tree


def deserialize(path, dataset: Dataset) -> ClusterTree:
    """Load a CHESSTREE file, refusing trailing bytes and other datasets' trees,
    and work out all its pivots, rings and center pivots from ``dataset``
    (see :func:`_spokes`); the stream holds none of them.

    The same pass verifies every stored radius: one below the greatest of
    its members' distances, by more than the rounding slack a search
    allows a vector distance, would make a search drop hits, so it is a
    :class:`FormatError` naming the node and its radius entry's byte
    offset. The pass costs one distance per member of every node: 285,345
    pairs and about 95 ms on the benchmark's seed-1 ``vec-query`` index, a
    third of its build, of which the rings and pivot table take about 30
    ms (best of 10, one core of a 2-core x86 VM).
    """
    tree = _read_tree_file(path)
    if tree.dataset_hash != dataset.content_hash():
        raise FormatError(
            f"{path}: tree was built over a different dataset "
            f"(hash {tree.dataset_hash.hex()[:16]}..., "
            f"dataset {dataset.content_hash().hex()[:16]}...)")
    if not dataset.compatible_with(tree.metric):
        raise FormatError(f"{path}: metric {tree.metric.value} does not apply "
                          f"to {dataset.kind.value} data")
    radius = _spokes(tree, dataset.values)
    short = np.flatnonzero(tree.radius * _rounding_slack(tree.metric, dataset.dim) < radius)
    if short.size:
        k = int(short[0])
        # the radius column follows the header, the flags and the centers
        at = _TREE_HEADER.size + 9 * tree.size.size + 8 * k
        raise FormatError(f"{path}: radius of node {k} is {tree.radius.item(k)!r}, below "
                          f"its members' greatest distance {radius.item(k)!r}, at byte "
                          f"offset {at}")
    return tree
