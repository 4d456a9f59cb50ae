"""A stateful differential test of the whole index.

Hypothesis drives one tiny index through random sequences of builds,
inserts, range and k-NN searches, depth cuts, tree byte round trips and
archive round trips, under all four metrics. Coordinates are small
integers and strings are short, so exact ties, duplicates and collinear
triples are the rule. After every step the tree must parse back from its
bytes and hold exactly the radii that a fresh pass over the dataset
computes. Each entry of its pivot table and each of its rings must be
nan (not known) or bit for bit what that pass computes, after a split
too, whose children take all their rings from their members' pivots.
Entries past the root are nan, and none other is after a build or a
pass that works them all out, however many inserts follow; a leaf's
known ring makes its members' pivots against that ancestor known, as
searches rely on, and known rings nest, as inserts rely on. Every
search must answer as the linear scan and leave the tree as it found
it.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from chess_search import (BuildConfig, Dataset, DatasetKind, MetricKind, Quantizer,
                          build, compress_tree, decompress, insert_point, knn_search,
                          naive_search, rho_search)
from chess_search.metrics import distances_to
from chess_search.tree import (_node_stats, _spokes, _truncated, tree_from_bytes,
                               tree_to_bytes)

from conftest import checked_spokes

LETTERS = b"ACGT-"


def _point(kind: DatasetKind, dim: int, metric: MetricKind):
    """A point strategy: integer coordinates 0-4 (never all zero under
    chord, where the zero vector has no direction), or a string of
    ``dim`` letters."""
    if kind is DatasetKind.ALIGNED_STRINGS:
        return st.lists(st.sampled_from(LETTERS), min_size=dim, max_size=dim).map(bytes)
    coords = st.lists(st.integers(0, 4), min_size=dim, max_size=dim)
    if metric is MetricKind.CHORD:
        coords = coords.filter(any)
    return coords.map(lambda c: np.array(c, dtype=np.float64))


def _as_row(kind: DatasetKind, point) -> np.ndarray:
    if kind is DatasetKind.ALIGNED_STRINGS:
        return np.frombuffer(point, dtype=np.uint8)
    return point


class IndexMachine(RuleBasedStateMachine):
    """One index, its dataset and the point strategy of its kind."""

    @initialize(data=st.data(), metric=st.sampled_from(list(MetricKind)),
                dim=st.integers(1, 6), max_depth=st.integers(1, 8),
                min_size=st.integers(1, 4), seed=st.integers(0, 2 ** 64 - 1))
    def build_index(self, data, metric, dim, max_depth, min_size, seed):
        self.metric = metric
        self.kind = (DatasetKind.DENSE_VECTORS if metric.for_vectors
                     else DatasetKind.ALIGNED_STRINGS)
        if self.kind is DatasetKind.DENSE_VECTORS:
            dim = min(dim, 3)
        self.points = _point(self.kind, dim, metric)
        rows = data.draw(st.lists(self.points, min_size=1, max_size=12))
        self.dataset = Dataset(self.kind, np.vstack([_as_row(self.kind, p) for p in rows]))
        self.config = BuildConfig(max_depth, min_size, seed)
        self.tree = build(self.dataset, metric, self.config)
        self.known = True  # whether the tree knows every pivot and ring

    def _bounds(self) -> tuple[bytes, ...]:
        return tuple(b.tobytes() for b in (self.tree.pivot, self.tree.ring,
                                           self.tree.center_pivot))

    def _query(self, data):
        """A stored point or a fresh one."""
        if data.draw(st.booleans()):
            return self.dataset.values[data.draw(st.integers(0, self.dataset.n - 1))].copy()
        return _as_row(self.kind, data.draw(self.points))

    @rule(data=st.data(), duplicate=st.booleans())
    def insert(self, data, duplicate):
        if duplicate:
            point = self.dataset.values[data.draw(st.integers(0, self.dataset.n - 1))].copy()
        else:
            point = _as_row(self.kind, data.draw(self.points))
        insert_point(self.tree, point, self.dataset)
        # a split's children take their eight rings from their members'
        # pivots: the invariant holds each to a fresh pass, bit for bit

    @rule(data=st.data(), how=st.sampled_from(["zero", "stored distance", "containment"]))
    def range_search(self, data, how):
        q = self._query(data)
        if how == "zero":
            r = 0.0
        elif how == "stored distance":  # a point on the ball's boundary
            r = float(distances_to(self.dataset.values, q, self.metric)[
                data.draw(st.integers(0, self.dataset.n - 1))])
        else:  # a ball that just holds one node's cluster
            node = data.draw(st.integers(0, self.tree.size.size - 1))
            c = self.tree.center[node]
            r = float(distances_to(self.dataset.values[c:c + 1], q, self.metric)[0]
                      + self.tree.radius[node])
        bounds = self._bounds()
        got = rho_search(self.tree, q, r, self.dataset)
        assert self._bounds() == bounds  # searches write nothing
        assert got.hits == naive_search(self.dataset, q, r, self.metric).hits
        assert got.comparisons <= self.dataset.n + self.tree.size.size
        # the walk k-NN makes, which tests a depth's centers in one kernel
        # call, tests the centers the plain walk tests and finds its hits
        known: dict[int, float] = {}
        batched = rho_search(self.tree, self.dataset.coerce_point(q), r, self.dataset,
                             _known=known)
        assert batched.hits == got.hits
        scanned = round(got.fraction_searched * self.dataset.n)
        assert len(known) == got.comparisons - scanned

    @rule(data=st.data())
    def knn(self, data):
        q = self._query(data)
        n = self.dataset.n
        far = float(distances_to(self.dataset.values, q, self.metric).max())
        everything = naive_search(self.dataset, q, far, self.metric).hits
        bounds = self._bounds()
        for k in range(1, n + 1):
            got = knn_search(self.tree, q, k, self.dataset)
            assert self._bounds() == bounds
            assert got.hits == everything[:k]  # ties to the lower index
            assert got.comparisons <= n + self.tree.size.size

    @rule(depth=st.integers(0, 8))
    def truncate(self, depth):
        self.tree = _truncated(self.tree, depth)
        self.known = False
        assert all(np.isnan(b).all() for b in (self.tree.pivot, self.tree.ring,
                                               self.tree.center_pivot))

    @rule()
    def work_out_spokes(self):
        # the pass gives back the radii the build gives
        radius = _spokes(self.tree, self.dataset.values)
        assert radius.tobytes() == self.tree.radius.tobytes()
        self.known = True

    @rule(reverse=st.booleans())
    def byte_round_trip(self, reverse):
        tree = self.tree
        if reverse:  # a stream may hold a leaf's members in any order
            _, offsets = tree.leaf_offsets()
            order = np.concatenate([tree.order[a:b][::-1]
                                    for a, b in zip(offsets, offsets[1:])])
            tree = dataclasses.replace(tree, order=order)
        raw = tree_to_bytes(tree)
        self.tree, end = tree_from_bytes(raw)
        self.known = False
        assert end == len(raw) and tree_to_bytes(self.tree) == raw
        assert all(np.isnan(b).all() for b in (self.tree.pivot, self.tree.ring,
                                               self.tree.center_pivot))

    @precondition(lambda self: self.dataset.n >= 2)
    @rule(data=st.data())
    def archive_round_trip(self, data):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "index.chess"
            compress_tree(self.tree, self.dataset, Quantizer(), path)
            decoded = decompress(path)
        if self.kind is DatasetKind.ALIGNED_STRINGS:
            assert decoded == self.dataset
            return
        # dense values come back on the quantization grid: search them
        tree = build(decoded, self.metric, self.config)
        q = decoded.values[data.draw(st.integers(0, decoded.n - 1))]
        r = float(distances_to(decoded.values, q, self.metric)[
            data.draw(st.integers(0, decoded.n - 1))])
        assert rho_search(tree, q, r, decoded).hits == \
            naive_search(decoded, q, r, self.metric).hits

    @invariant()
    def tree_matches_a_fresh_pass(self):
        tree, values = self.tree, self.dataset.values
        tree_from_bytes(tree_to_bytes(tree))  # runs the structure check
        radius, _ = _node_stats(tree, values)
        assert radius.tobytes() == tree.radius.tobytes()
        # each nan or as a fresh pass makes it; none nan while the tree
        # knows them all (inserts keep that so) but past the root
        checked_spokes(tree, self.dataset, known=self.known)


IndexMachine.TestCase.settings = settings(max_examples=300, stateful_step_count=12,
                                          deadline=None)
TestIndexMachine = IndexMachine.TestCase
