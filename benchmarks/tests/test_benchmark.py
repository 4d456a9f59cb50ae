"""Tests of the benchmark itself: the oracle gate, the tail rule, the
workload generators, and the traced run's reconciliation and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from chess_search import (BuildConfig, Dataset, MetricKind, build, distance,
                          hold_out, rho_search, synth_manifold)

import harness
import oracle
from workloads import (MIN_OPS, WORKLOADS, Corpus, Op, Workload, interleave,
                       synth_mutants)


def _tiny_corpus(seed: int) -> Corpus:
    base = synth_manifold(600, 8, 1, 0.0, seed=seed, density_power=2)
    held_in, queries = hold_out(base, 30, seed)
    return Corpus(held_in, queries, MetricKind.EUCLIDEAN, BuildConfig(20, 5, 0),
                  MetricKind.EUCLIDEAN)


def _tiny_plan(corpus: Corpus, seed: int, seconds: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    q = corpus.pool
    ops = []
    for i in range(MIN_OPS):
        ops.append(Op("range", q[i % len(q)], radius=float(rng.uniform(0.5, 8.0))))
        ops.append(Op("knn", q[(i + 7) % len(q)]))
    ops += [Op("insert", q[i]) for i in range(MIN_OPS)]
    ops += [Op("range", stored=corpus.dataset.n + i, radius=1.0)
            for i in range(MIN_OPS)]
    return ops


TINY = Workload(_tiny_corpus, _tiny_plan, narrow_below=2.0)

#: metrics that count work rather than time it, so repeat exactly
EXACT = ("range_comparisons", "knn_comparisons", "archive_ratio",
         "tree.build_comparisons", "tree.depth", "tree.leaves", "tree.index_bytes",
         "metrics.calls_per_query", "metrics.rows_per_call",
         "search.center_tests_per_query", "search.points_scanned_per_query",
         "search.leaves_per_query", "search.hits_per_query",
         "search.knn_invocations", "search.knn_useful_ratio",
         "compress.bytes_per_value")


@pytest.fixture(scope="module")
def small():
    data = synth_manifold(400, 6, 1, 0.0, seed=3, density_power=2)
    tree = build(data, MetricKind.EUCLIDEAN, BuildConfig(20, 5, 0))
    q = data.point(17).copy()
    return data, tree, q


def test_range_oracle_rejects_wrong_hit_sets(small):
    data, tree, q = small
    hits = rho_search(tree, q, 3.0, data).hits
    assert len(hits) > 2
    assert oracle.check_range(hits, data, q, 3.0, MetricKind.EUCLIDEAN) == ""
    i, d = hits[-1]
    wrong = {
        "missing hit": hits[:-1],
        "extra hit": hits + [(data.n - 1, 3.0)],
        "distance one ulp off": hits[:-1] + [(i, float(np.nextafter(d, np.inf)))],
        "ties out of order": [hits[1], hits[0]] + hits[2:],
    }
    for what, bad in wrong.items():
        assert oracle.check_range(bad, data, q, 3.0, MetricKind.EUCLIDEAN), what


def test_knn_oracle_breaks_ties_toward_lower_index():
    data = Dataset.from_vectors([[0.0], [2.0], [1.0], [1.0], [-1.0]])
    q = np.array([0.0])
    lower = [(0, 0.0), (2, 1.0)]
    higher = [(0, 0.0), (3, 1.0)]
    assert oracle.check_knn(lower, data, q, 2, MetricKind.EUCLIDEAN) == ""
    assert oracle.check_knn(higher, data, q, 2, MetricKind.EUCLIDEAN)


def test_archive_oracle_allows_half_a_quantum_only():
    data = Dataset.from_vectors(np.linspace(0.0, 50.0, 40).reshape(10, 4))
    quantum = 1e-3
    close = Dataset.from_vectors(data.values + 0.49 * quantum)
    far = Dataset.from_vectors(data.values + 0.51 * quantum)
    assert oracle.check_archive(data, close, quantum) == ""
    assert oracle.check_archive(data, far, quantum)
    assert oracle.check_identical(close, close) == ""
    assert oracle.check_identical(close, far)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(999) == 90.0
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(99) == 75.0
    assert harness.tail_percentile(40) == 75.0
    assert harness.tail_percentile(MIN_OPS) == 50.0
    with pytest.raises(ValueError):
        harness.tail_percentile(MIN_OPS - 1)


def test_interleave_spreads_each_stream_evenly():
    merged = interleave(list("abcdefgh"), ["X", "Y"], ["z"])
    assert merged == list("abXcdzefYgh")
    assert interleave([], [1, 2]) == [1, 2]


def test_side_inserts_leave_the_read_index_as_built(tmp_path):
    def plan(corpus, seed, seconds):
        # reads of inserted points would find them only in the copy
        return [op for op in _tiny_plan(corpus, seed, seconds) if op.stored is None]

    side = Workload(_tiny_corpus, plan, narrow_below=2.0, side_inserts=True)
    run = harness.Run(side, seed=1, seconds=1, trace=False, out_dir=tmp_path)
    run.execute()
    assert run.failures == []
    assert run.a.dataset.n == run.pristine.n
    assert run.wa.dataset.n == run.pristine.n + MIN_OPS


def test_mutants_are_unique_and_edit_distance_beats_hamming():
    rng = np.random.default_rng(5)
    roots = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, (4, 24))]
    rows = synth_mutants(rng, roots, 120)
    assert len({r.tobytes() for r in rows}) == 120
    fresh = synth_mutants(rng, roots, 50, frozenset(r.tobytes() for r in rows))
    assert not {r.tobytes() for r in fresh} & {r.tobytes() for r in rows}
    lev = [distance(rows[0], r, MetricKind.LEVENSHTEIN) for r in rows[1:]]
    ham = [distance(rows[0], r, MetricKind.HAMMING) for r in rows[1:]]
    assert all(a <= b for a, b in zip(lev, ham))
    assert any(a < b for a, b in zip(lev, ham))


def test_plans_are_pure_functions_of_the_seed():
    workload = WORKLOADS["vec-churn"]
    corpus = workload.corpus(4)
    first, second = workload.plan(corpus, 4, 2), workload.plan(corpus, 4, 2)
    assert [(o.kind, o.stored, o.radius) for o in first] == \
           [(o.kind, o.stored, o.radius) for o in second]


def test_gate_fails_when_fed_a_wrong_hit_set(tmp_path, monkeypatch):
    def drops_a_hit(tree, q, r, dataset):
        report = rho_search(tree, q, r, dataset)
        report.hits = report.hits[:-1]
        return report

    monkeypatch.setattr(harness, "rho_search", drops_a_hit)
    run = harness.Run(TINY, seed=1, seconds=1, trace=False, out_dir=tmp_path)
    run.execute()
    assert any(f.startswith("range") for f in run.failures)


def test_traced_run_reconciles_and_repeats_exactly(tmp_path):
    results = []
    for _ in range(2):
        run = harness.Run(TINY, seed=2, seconds=1, trace=True, out_dir=tmp_path)
        run.execute()
        assert run.failures == []
        metrics = {**run.end_to_end(), **run.per_layer()}
        results.append({name: metrics[name][0] for name in EXACT})
    assert results[0] == results[1]
