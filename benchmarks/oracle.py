"""Oracle checks: every answer the benchmark times is compared with a
brute-force answer computed from the public ``distances_to`` kernel.

Each check returns an empty string when the answers agree and a short
description of the first disagreement otherwise.
"""

from __future__ import annotations

import numpy as np

from chess_search import Dataset, DatasetKind, MetricKind, distances_to

_BLOCK_BYTES = 96 * 1024


def _as_arrays(hits) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array([i for i, _ in hits], dtype=np.int64)
    dist = np.array([d for _, d in hits], dtype=np.float64)
    return idx, dist


def _compare(hits, want_idx: np.ndarray, want_dist: np.ndarray) -> str:
    idx, dist = _as_arrays(hits)
    if idx.size != want_idx.size:
        return f"{idx.size} hits, oracle has {want_idx.size}"
    bad = np.flatnonzero((idx != want_idx)
                         | (dist.view(np.uint64) != want_dist.view(np.uint64)))
    if bad.size:
        i = int(bad[0])
        return (f"hit {i} is ({idx[i]}, {dist[i]!r}), oracle has "
                f"({want_idx[i]}, {want_dist[i]!r})")
    return ""


def _scan(dataset: Dataset, q, metric: MetricKind) -> np.ndarray:
    """Distances from q to every stored point, in blocks whose float64
    temporaries stay in cache and below the pinned 128 KiB mmap threshold
    (see run.py); in one call each temporary is mapped and faulted in
    anew, which makes the scan three times slower. ``distances_to``
    computes each row independently of the others in its block, so the
    result is bit-equal to one call over all rows."""
    values = dataset.values
    block = max(1, _BLOCK_BYTES // (8 * dataset.dim))
    return np.concatenate([distances_to(values[i:i + block], q, metric)
                           for i in range(0, len(values), block)])


def check_range(hits, dataset: Dataset, q, r: float, metric: MetricKind) -> str:
    """Hits must be bit-equal to a full scan: every point within ``r``,
    ordered by distance, then by index."""
    dists = _scan(dataset, q, metric)
    idx = np.flatnonzero(dists <= r)
    order = np.lexsort((idx, dists[idx]))
    return _compare(hits, idx[order], dists[idx[order]])


def check_knn(hits, dataset: Dataset, q, k: int, metric: MetricKind) -> str:
    """Hits must be the first ``k`` points of a full scan sorted by
    distance, ties going to the lower index."""
    dists = _scan(dataset, q, metric)
    kth = np.partition(dists, k - 1)[k - 1]
    idx = np.flatnonzero(dists <= kth)  # every point that can make the cut
    order = idx[np.lexsort((idx, dists[idx]))][:k]
    return _compare(hits, order, dists[order])


def check_archive(original: Dataset, decoded: Dataset, quantum: float) -> str:
    """Dense values must lie within half a quantum of the original;
    strings must decode exactly."""
    if decoded.values.shape != original.values.shape:
        return f"decoded shape {decoded.values.shape}, original {original.values.shape}"
    if original.kind is DatasetKind.ALIGNED_STRINGS:
        ok = np.array_equal(decoded.values, original.values)
        return "" if ok else "decoded strings differ from the original"
    # half a quantum, plus the rounding of the final multiply by the quantum
    slack = 0.5 * quantum + 2 * np.spacing(np.abs(original.values))
    err = np.abs(decoded.values - original.values)
    bad = np.flatnonzero(err > slack)
    if bad.size:
        return (f"value {int(bad[0])} is off by {err.flat[bad[0]]!r}, "
                f"more than half the quantum {quantum!r}")
    return ""


def check_identical(first: Dataset, second: Dataset) -> str:
    """A second archive round trip must reproduce the first bit for bit."""
    same = (first.values.shape == second.values.shape
            and first.values.tobytes() == second.values.tobytes())
    return "" if same else "second round trip changed the values"
