"""Shared corpora and oracles for the test suite.

The acceptance corpora are pinned by seed so every run sees identical
data: a one-dimensional manifold with skewed density for the dense
criteria, a noisier variant with wide angular spread for the chord
runs, and a mutation-generated aligned-string corpus.
"""

from __future__ import annotations

import numpy as np
import pytest

from chess_search import Dataset, DatasetKind, synth_manifold
from chess_search.metrics import distances_to
from chess_search.tree import _RINGS

# corpus (a): dense 1-D manifold; rows beyond CORPUS_A_N feed the
# live-insertion criterion (same manifold, fresh points and queries)
CORPUS_A_N = 10_000
CORPUS_A_INSERTS = 100
CORPUS_A_FRESH_QUERIES = 20
CORPUS_A_SEED = 20250808

CHORD_CORPUS_SEED = 31337
STRINGS_SEED = 4242
HOLDOUT_SEED = 99

ALPHABET = np.frombuffer(b"ACGT-", dtype=np.uint8)


def synth_aligned_strings(n: int, length: int, n_ancestors: int,
                          sub_rate: float, seed: int) -> Dataset:
    """Unique aligned strings mutated from a handful of random ancestors."""
    rng = np.random.default_rng(seed)
    ancestors = ALPHABET[rng.integers(0, 5, size=(n_ancestors, length))]
    seen: set[bytes] = set()
    rows = []
    while len(rows) < n:
        row = ancestors[rng.integers(0, n_ancestors)].copy()
        k = int(rng.binomial(length, sub_rate))
        if k:
            positions = rng.choice(length, size=k, replace=False)
            row[positions] = ALPHABET[rng.integers(0, 5, size=k)]
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return Dataset(DatasetKind.ALIGNED_STRINGS, np.vstack(rows))


def shifted_strings(n: int, length: int, seed: int) -> Dataset:
    """Unique aligned strings, each one random base string with one segment
    rotated by a place: at most 2 Levenshtein edits from the base but up
    to the segment's length in substitutions."""
    rng = np.random.default_rng(seed)
    base = ALPHABET[rng.integers(0, 4, size=length)]
    seen: set[bytes] = set()
    rows = []
    while len(rows) < n:
        a, b = np.sort(rng.choice(length + 1, size=2, replace=False))
        row = base.copy()
        row[a:b] = np.roll(base[a:b], int(rng.choice([-1, 1])))
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            rows.append(row)
    return Dataset(DatasetKind.ALIGNED_STRINGS, np.vstack(rows))


def brute_force_knn(values: np.ndarray, q: np.ndarray, k: int,
                    dists: np.ndarray) -> list[int]:
    """The k nearest row indices, distance ties broken by lower index."""
    order = np.lexsort((np.arange(len(values)), dists))
    return [int(i) for i in order[:k]]


def node_members(tree, node: int) -> np.ndarray:
    """Point indices of one node's cluster: its slice of ``tree.order``,
    which starts after the members of the leaves before it."""
    off = int(tree.cardinality[:node][tree.size[:node] == 1].sum())
    return tree.order[off:off + int(tree.cardinality[node])]


def descent_leaves(tree, ds: Dataset) -> np.ndarray:
    """The leaf each stored point's descent ends at, by point index: from
    the root on into the child whose center is nearer, the left one on a
    tie. A point's distances to all centers come from one kernel call,
    the centers as rows and the point as the query, as a descent pairs
    them."""
    size, leaves = tree.size, np.empty(ds.n, dtype=np.int64)
    for p in range(ds.n):
        d = distances_to(ds.values[tree.center], ds.values[p], tree.metric)
        node = 0
        while size[node] > 1:
            left = node + 1
            right = left + size[left]
            node = left if d[left] <= d[right] else right
        leaves[p] = node
    return leaves


def ancestors(tree) -> list[list[int]]:
    """Every node's ancestors, nearest first, by node."""
    parent = {}
    for p in np.flatnonzero(tree.size > 1).tolist():
        left = p + 1
        parent[left] = parent[left + int(tree.size[left])] = p
    chains = [[]]
    for node in range(1, tree.size.size):  # a parent comes before its children
        chains.append([parent[node], *chains[parent[node]]])
    return chains


def reference_bounds(tree, ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every point's pivots, shape ``(points, _RINGS)``: column ``k`` its
    distance to the center of its leaf's ``k``-th nearest ancestor-or-self,
    nan past the root; every node's rings, shape ``(nodes, _RINGS, 2)``:
    ring ``k`` the least and greatest of its members' distances to the
    center of its ``(k + 1)``-th nearest ancestor, nan past its ancestors;
    and every node's center pivots, shape ``(nodes, _RINGS)``: column ``k``
    its center's distance to that same center. One kernel call per leaf
    for its pivots and one per node for its rings, each member as a row
    and the center as its query, as the build pairs them; a node's center
    pivots are its center's entries of that call."""
    values, metric = ds.values, tree.metric
    pivot = np.full((tree.order.size, _RINGS), np.nan)
    ring = np.full((tree.size.size, _RINGS, 2), np.nan)
    center_pivot = np.full((tree.size.size, _RINGS), np.nan)

    def paired(members, centers):  # each member against each center
        return distances_to(values[np.tile(members, len(centers))],
                            values[np.repeat(tree.center[centers], members.size)],
                            metric).reshape(len(centers), members.size)

    for node, above in enumerate(ancestors(tree)):
        members = node_members(tree, node)
        if tree.size[node] == 1:
            chain = [node, *above][:_RINGS]
            pivot[members, :len(chain)] = paired(members, chain).T
        above = above[:_RINGS]
        if above:
            d = paired(members, above)
            ring[node, :len(above)] = np.column_stack((d.min(axis=1), d.max(axis=1)))
            center_pivot[node, :len(above)] = d[:, members == tree.center[node]][:, 0]
    return pivot, ring, center_pivot


def checked_bounds(tree, ds: Dataset, *, known: bool = False,
                   want: tuple[np.ndarray, ...] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The tree's pivot table, up to its last point (an insert leaves spare
    rows after it), and its rings, each checked against
    :func:`reference_bounds` (or ``want``, what it gave for this tree), as
    are its center pivots: every entry is nan (not known) or bit for bit
    the reference's, and nan where the reference's is (past the root). A
    leaf's known ring ``k`` holds all its members' pivot column ``k + 1``,
    so each of those is known. Known rings nest: a node's ring against an
    ancestor lies within its parent's. With ``known``, no entry may be nan
    but those past the root: a tree that was built, or whose pivots and
    rings ``_load_pass`` worked out, knows them all, and inserts keep it
    so."""
    pivot, ring = tree.pivot[:tree.order.size], tree.ring
    want_pivot, want_ring, want_center = reference_bounds(tree, ds) if want is None else want
    for have, wanted in ((pivot, want_pivot), (ring, want_ring),
                         (tree.center_pivot, want_center)):
        assert have.shape == wanted.shape
        mask = ~np.isnan(have)
        assert have[mask].tobytes() == wanted[mask].tobytes()
        assert np.isnan(have[np.isnan(wanted)]).all()
        assert not known or np.array_equal(np.isnan(have), np.isnan(wanted))
    for node in np.flatnonzero(tree.size == 1):
        rows = pivot[node_members(tree, node), 1:]
        assert not np.isnan(rows[:, ~np.isnan(ring[node, :-1, 0])]).any()
    # rings nest: a node's ring against an ancestor lies within its
    # parent's, where both are known
    for node, above in enumerate(ancestors(tree)):
        if above:
            inner, outer = ring[node, 1:], ring[above[0], :-1]
            both = ~np.isnan(inner[:, 0]) & ~np.isnan(outer[:, 0])
            assert (inner[both, 0] >= outer[both, 0]).all()
            assert (inner[both, 1] <= outer[both, 1]).all()
    return pivot, ring


@pytest.fixture(scope="session")
def corpus_a_extended() -> Dataset:
    n = CORPUS_A_N + CORPUS_A_INSERTS + CORPUS_A_FRESH_QUERIES
    return synth_manifold(n, 100, 1, 0.0, seed=CORPUS_A_SEED, density_power=5.0)


@pytest.fixture(scope="session")
def corpus_a(corpus_a_extended) -> Dataset:
    return Dataset(DatasetKind.DENSE_VECTORS,
                   corpus_a_extended.values[:CORPUS_A_N].copy())


@pytest.fixture(scope="session")
def corpus_a_chord() -> Dataset:
    return synth_manifold(CORPUS_A_N, 100, 1, 3.0, seed=CHORD_CORPUS_SEED,
                          density_power=1.0)


@pytest.fixture(scope="session")
def corpus_b() -> Dataset:
    return synth_aligned_strings(5_000, 500, 20, 0.005, seed=STRINGS_SEED)
