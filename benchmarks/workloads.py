"""The benchmark's workloads: corpora and seeded operation plans.

A workload turns ``(seed, seconds)`` into a :class:`Corpus` and a list
of :class:`Op` records. Both are pure functions of their arguments, so
two runs with the same seed execute the same operations in the same
order and report the same exact counts. Operation counts grow linearly
with ``seconds`` at fixed per-workload rates, chosen so that the timed
operations of a run take about ``seconds`` on a 2-core x86 host; they
never depend on how fast the code under test is, so two commits do the
same work.

Each operation type is spread evenly over the whole run rather than
run in one block, so that every timing metric samples the same mix of
the host's fast and slow stretches.

Every workload exercises every operation type (range, k-NN, insert,
archive), because every end-to-end metric is reported on every
workload. What differs is the corpus, the distance and the mix, chosen
so that each workload's cost lands in a different layer; see README.md.

The seed varies the inputs in ways that keep the cost distribution the
same from seed to seed: queries are stratified over the data, radii over
their range, and every query is used equally often.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chess_search import BuildConfig, Dataset, MetricKind, synth_manifold

#: k of every k-NN query.
K = 10
#: Fewest samples of one operation type: enough for a median with ten
#: samples beyond it.
MIN_OPS = 20
#: Fewest timing-only archive round trips in a run.
MIN_REPEATS = 3
#: Longest run the command line accepts; pools of fresh points are sized
#: for it.
MAX_SECONDS = 60


@dataclass(frozen=True)
class Op:
    """One operation of the closed loop.

    ``point`` is the query or the point to insert. A read with ``stored``
    set queries the point stored at that index of the index it reads.
    ``check`` says whether the oracle verifies this operation in an
    untraced run; the traced run verifies every operation. ``build`` and
    ``archive`` operations are timing-only repeats.
    """

    kind: str  # "range", "knn", "insert", "build" or "archive"
    point: np.ndarray | None = None
    stored: int | None = None
    radius: float = 0.0
    check: bool = True


@dataclass(frozen=True)
class Corpus:
    dataset: Dataset
    #: spare rows (queries, points to insert); the library sees them one
    #: at a time, as query or insert arguments
    pool: np.ndarray
    metric: MetricKind
    config: BuildConfig
    #: distance of the tree the archive round trips compress through
    archive_metric: MetricKind


@dataclass(frozen=True)
class Workload:
    corpus: Callable[[int], Corpus]
    plan: Callable[[Corpus, int, int], list[Op]]
    #: radius below which a range query counts as narrow in the trace
    narrow_below: float
    #: compress/decompress round trips per second of the run
    archive_rate: float = 0.2
    #: inserts go to a copy of the index, so that reads see the index as
    #: built; otherwise reads walk the tree the inserts change
    side_inserts: bool = False

    def archive_repeats(self, seconds: int) -> int:
        return max(MIN_REPEATS, round(self.archive_rate * seconds))


def _count(rate: float, seconds: int) -> int:
    return max(MIN_OPS, round(rate * seconds))


def interleave(*streams: list) -> list:
    """Merge the streams so that each is spread evenly over the result:
    item ``i`` of a stream of ``n`` items lands near ``(i + 0.5) / n`` of
    the way through. Ties keep the order of the streams."""
    keyed = [((i + 0.5) / len(stream), s, i, item)
             for s, stream in enumerate(streams)
             for i, item in enumerate(stream)]
    keyed.sort(key=lambda k: k[:3])
    return [item for *_, item in keyed]


def _log_uniform(rng: np.random.Generator, lo: float, hi: float,
                 slices: np.ndarray) -> np.ndarray:
    """Radii log-uniform in [lo, hi], stratified: radius ``i`` falls in
    slice ``slices[i]`` of ``len(slices)`` equal slices of the log range."""
    u = (slices + rng.random(len(slices))) / len(slices)
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def _golden_order(n: int) -> np.ndarray:
    """A permutation of ``range(n)`` that steps by about n/phi, so that
    any run of consecutive entries spreads evenly over ``0..n-1``."""
    stride = max(1, round(n / ((1 + math.sqrt(5)) / 2)))
    while math.gcd(stride, n) != 1:
        stride += 1
    return np.arange(n) * stride % n


def _cycle(rng: np.random.Generator, rows: np.ndarray, n: int) -> np.ndarray:
    """``n`` rows, each row used equally often (within one), in seeded order."""
    order = np.concatenate([rng.permutation(len(rows))
                            for _ in range(-(-n // len(rows)))])
    return rows[order[:n]]


def stratified_hold_out(dataset: Dataset, count: int,
                        seed: int) -> tuple[Dataset, np.ndarray]:
    """Split off ``count`` query rows, one from each of ``count`` equal
    slices of the points ordered along their first principal axis.

    ``hold_out`` draws its queries uniformly at random; on a manifold
    whose density varies a hundredfold, the share of queries that land
    in the dense end then varies from seed to seed, and so does every
    search cost. One query per slice keeps that share fixed; the seed
    still picks which point of each slice is held out.
    """
    rng = np.random.default_rng([seed, 3])
    centered = dataset.values - dataset.values.mean(axis=0)
    axis = np.linalg.svd(centered, full_matrices=False)[2][0]
    order = np.argsort(centered @ axis, kind="stable")
    edges = np.linspace(0, dataset.n, count + 1).astype(np.int64)
    picks = order[edges[:-1] + rng.integers(0, np.diff(edges))]
    keep = np.ones(dataset.n, dtype=bool)
    keep[picks] = False
    return (Dataset(dataset.kind, dataset.values[keep].copy()),
            dataset.values[picks].copy())


# --- vec-query --------------------------------------------------------------
# The ROADMAP baseline corpus: one cheap numpy call per kernel evaluation,
# so per-node Python work (descent, hit assembly, the k-NN radius loop)
# dominates. Reads run on the tree as built; inserts go to a copy.

VQ_HELD_OUT = 500
VQ_RADII = (0.02, 5.0)
VQ_READ_RATE = 12
VQ_INSERT_RATE = 3.2


def _vec_query_corpus(seed: int) -> Corpus:
    base = synth_manifold(20_000, 60, 1, 0.0, seed=7, density_power=4)
    held_in, queries = stratified_hold_out(base, VQ_HELD_OUT, seed)
    return Corpus(held_in, queries, MetricKind.EUCLIDEAN,
                  BuildConfig(50, 10, 0), MetricKind.EUCLIDEAN)


def _vec_query_plan(corpus: Corpus, seed: int, seconds: int) -> list[Op]:
    # The held-out queries come in order along the principal axis, and
    # both query types take every (len(pool) / n)-th of them, so that both
    # meet every stretch of the manifold. Range query i gets radius slice
    # _golden_order(n)[i], so every stretch also meets the whole radius
    # range, and the cost of the mix hardly depends on the seed. The seed
    # picks the order the queries run in.
    rng = np.random.default_rng([seed, 1])
    n = _count(VQ_READ_RATE, seconds)
    queries = corpus.pool[np.arange(n) * len(corpus.pool) // n]
    radii = _log_uniform(rng, *VQ_RADII, _golden_order(n))
    reads: list[Op] = []
    for i, k in zip(rng.permutation(n), rng.permutation(n)):
        reads.append(Op("range", queries[i], radius=float(radii[i])))
        reads.append(Op("knn", queries[k]))
    inserts = _cycle(rng, corpus.pool, _count(VQ_INSERT_RATE, seconds))
    return interleave(reads, [Op("insert", p) for p in inserts])


# --- seq-edit ---------------------------------------------------------------
# Levenshtein over aligned DNA-like strings: one pair costs a Python loop
# over characters, so the distance kernel dominates build and search.

SE_STRINGS = 256
SE_LENGTH = 32
SE_ANCESTORS = 16
SE_RADII = (1, 2, 3)
SE_RANGE_RATE = 6
SE_KNN_RATE = 2
SE_INSERT_RATE = 6
#: share of reads and inserts the oracle checks in an untraced run; a
#: Levenshtein oracle scan costs more than the operation it checks
SE_CHECK_SHARE = 0.1

_ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)


def mutate(rng: np.random.Generator, row: np.ndarray, substitutions: int,
           indel_pairs: int) -> np.ndarray:
    """Apply substitutions, then length-preserving indel pairs.

    An indel pair deletes one character and inserts a random one further
    right, shifting the segment between them by one place: two edits
    that can differ from the original at many positions, so the
    Levenshtein distance falls below the Hamming distance.
    """
    row = row.copy()
    for _ in range(substitutions):
        pos = int(rng.integers(row.size))
        row[pos] = _ACGT[(int(np.flatnonzero(_ACGT == row[pos])[0])
                          + int(rng.integers(1, 4))) % 4]
    for _ in range(indel_pairs):
        i, j = sorted(int(x) for x in rng.choice(row.size, 2, replace=False))
        row[i:j] = row[i + 1:j + 1]
        row[j] = _ACGT[rng.integers(4)]
    return row


def synth_mutants(rng: np.random.Generator, roots: np.ndarray, n: int,
                  exclude: frozenset[bytes] = frozenset()) -> np.ndarray:
    """``n`` unique strings outside ``exclude``, each up to five
    substitutions and two indel pairs away from its ancestor. String ``i``
    descends from ``roots[i % len(roots)]``, so every ancestor has the same
    share of any run of consecutive strings."""
    seen: dict[bytes, np.ndarray] = {}
    while len(seen) < n:
        row = mutate(rng, roots[len(seen) % len(roots)],
                     int(rng.integers(0, 6)), int(rng.integers(0, 3)))
        key = row.tobytes()
        if key not in exclude:
            seen.setdefault(key, row)
    return np.vstack(list(seen.values()))


def _seq_edit_corpus(seed: int) -> Corpus:
    # one fixed index, as for vec-query; the seed draws fresh query and
    # insert mutants of the same ancestors
    rng = np.random.default_rng([7, 2])
    roots = _ACGT[rng.integers(0, 4, size=(SE_ANCESTORS, SE_LENGTH))]
    index = synth_mutants(rng, roots, SE_STRINGS)
    pool = synth_mutants(
        np.random.default_rng([seed, 2]), roots,
        round(MAX_SECONDS * (SE_RANGE_RATE + SE_KNN_RATE + SE_INSERT_RATE)),
        exclude=frozenset(r.tobytes() for r in index))
    return Corpus(Dataset.from_strings(index), pool, MetricKind.LEVENSHTEIN,
                  BuildConfig(8, 10, 0), MetricKind.HAMMING)


def _seq_edit_plan(corpus: Corpus, seed: int, seconds: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])

    def checked() -> bool:
        return bool(rng.random() < SE_CHECK_SHARE)

    n_range = _count(SE_RANGE_RATE, seconds)
    n_knn = _count(SE_KNN_RATE, seconds)
    n_insert = _count(SE_INSERT_RATE, seconds)
    ranges, knns, inserts = np.split(
        corpus.pool[:n_range + n_knn + n_insert], [n_range, n_range + n_knn])
    radii = rng.permutation(np.resize(SE_RADII, n_range))
    return interleave(
        [Op("range", q, radius=float(r), check=checked())
         for q, r in zip(rng.permutation(ranges), radii)],
        [Op("knn", q, check=checked()) for q in rng.permutation(knns)],
        [Op("insert", p, check=checked()) for p in inserts])


# --- vec-churn --------------------------------------------------------------
# Writes beside reads on a 2-D noisy manifold: every insert grows the
# stored values and rehashes them, and each is followed by reads of
# stored points on the tree the inserts keep changing.

VC_BASE = 20_000
VC_RADII = (0.05, 2.0)
VC_INSERT_RATE = 8


def _vec_churn_corpus(seed: int) -> Corpus:
    # one fixed index and pool, as for the other workloads; the seed picks
    # the points to insert and the stored points to query
    pool = 2 * round(MAX_SECONDS * VC_INSERT_RATE)
    points = synth_manifold(VC_BASE + pool, 60, 2, 0.01, seed=7,
                            density_power=2)
    base = Dataset.from_vectors(points.values[:VC_BASE])
    return Corpus(base, points.values[VC_BASE:], MetricKind.EUCLIDEAN,
                  BuildConfig(50, 10, 0), MetricKind.EUCLIDEAN)


def _vec_churn_plan(corpus: Corpus, seed: int, seconds: int) -> list[Op]:
    # Each insert is followed by a range query, a k-NN query and another
    # range query of stored points. The queried points are the same for
    # every seed: evenly spaced indices of the (randomly ordered) index,
    # range query j with radius slice _golden_order(n)[j], as in
    # vec-query. The seed picks the points to insert and the order the
    # queries run in; with random stored points and radii, mean range
    # comparisons spread by 5% between seeds.
    rng = np.random.default_rng([seed, 1])
    inserts = _count(VC_INSERT_RATE, seconds)
    points = corpus.pool[rng.permutation(len(corpus.pool))[:inserts]]
    n, n_range = corpus.dataset.n, 2 * inserts
    radii = _log_uniform(rng, *VC_RADII, _golden_order(n_range))
    ranges = rng.permutation(n_range)
    knns = np.arange(inserts) * n // inserts + n // (2 * inserts)

    def range_op(j: int) -> Op:
        return Op("range", stored=int(j * n // n_range), radius=float(radii[j]))

    ops: list[Op] = []
    for i, k in enumerate(rng.permutation(knns)):
        ops += [Op("insert", points[i]), range_op(ranges[2 * i]),
                Op("knn", stored=int(k)), range_op(ranges[2 * i + 1])]
    return ops


WORKLOADS = {
    "vec-query": Workload(_vec_query_corpus, _vec_query_plan,
                          narrow_below=float(np.sqrt(np.prod(VQ_RADII))),
                          archive_rate=0.5, side_inserts=True),
    "seq-edit": Workload(_seq_edit_corpus, _seq_edit_plan, narrow_below=2.5,
                         archive_rate=4.0, side_inserts=True),
    "vec-churn": Workload(_vec_churn_corpus, _vec_churn_plan,
                          narrow_below=float(np.sqrt(np.prod(VC_RADII))),
                          archive_rate=0.4),
}
