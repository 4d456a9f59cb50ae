import csv
import dataclasses
import io

import numpy as np
import pytest

from chess_search import (BuildConfig, MetricKind, build, hold_out,
                          naive_search, rho_search, rows_to_csv, run_benchmark,
                          synth_manifold)

E = MetricKind.EUCLIDEAN


@pytest.fixture(scope="module")
def bench_dataset():
    return synth_manifold(800, 16, 1, 0.02, seed=201, density_power=3.0)


def test_hold_out_splits_cleanly(bench_dataset):
    held_in, queries = hold_out(bench_dataset, 50, seed=1)
    assert held_in.n == bench_dataset.n - 50
    assert queries.shape == (50, bench_dataset.dim)
    with pytest.raises(ValueError):
        hold_out(bench_dataset, bench_dataset.n, seed=1)


def test_depth_zero_single_leaf_row(bench_dataset):
    rows = run_benchmark(bench_dataset, E, radii=[1.0], depths=[0],
                         num_queries=10, seed=2)
    (row,) = rows
    assert row.fraction_mean == 1.0
    assert row.speedup_mean == 1.0
    assert row.false_pos == 0 and row.false_neg == 0


def test_default_protocol_runs_fifty_queries(bench_dataset):
    rows = run_benchmark(bench_dataset, E, radii=[0.5], depths=[5],
                         num_queries=50, seed=3)
    assert len(rows) == 1
    assert rows[0].comparisons_mean <= bench_dataset.n - 50


def test_speedup_grows_with_depth(bench_dataset):
    # the paper's cluster pruning gains with depth. The spoke and ring
    # bounds are not the paper's: with them a shallow tree's large leaves
    # filter like a pivot table, and here depth 2 reads a speedup of 90.8
    # against depth 12's 48.1. They never add a comparison to a query
    rows = run_benchmark(bench_dataset, E, radii=[0.3], depths=[2, 12],
                         num_queries=25, seed=4, filters=False)
    shallow, deep = rows
    assert deep.speedup_mean > shallow.speedup_mean
    assert deep.false_neg == 0 and shallow.false_neg == 0
    filtered = run_benchmark(bench_dataset, E, radii=[0.3], depths=[2, 12],
                             num_queries=25, seed=4)
    for plain, row in zip(rows, filtered):
        assert row.comparisons_mean <= plain.comparisons_mean
        assert row.speedup_mean >= plain.speedup_mean
        assert row.false_pos == row.false_neg == 0


def test_exactness_zero_for_metric_distances(bench_dataset, corpus_b):
    held_in, queries = hold_out(bench_dataset, 20, seed=5)
    tree = build(held_in, E, BuildConfig(max_depth=20, min_size=8, seed=1))
    for q in queries:
        for r in (0.1, 1.0, 5.0):
            assert rho_search(tree, q, r, held_in).hits == \
                naive_search(held_in, q, r, E).hits

    from chess_search import Dataset, DatasetKind
    small_b = Dataset(DatasetKind.ALIGNED_STRINGS, corpus_b.values[:600].copy())
    held_in_b, queries_b = hold_out(small_b, 20, seed=6)
    tree_b = build(held_in_b, MetricKind.HAMMING,
                   BuildConfig(max_depth=20, min_size=8, seed=1))
    for q in queries_b:
        for r in (0.5, 5.0):
            assert rho_search(tree_b, q, r, held_in_b).hits == \
                naive_search(held_in_b, q, r, MetricKind.HAMMING).hits


def test_rows_roundtrip_csv(bench_dataset):
    rows = run_benchmark(bench_dataset, E, radii=[0.25, 2.5], depths=[3, 9],
                         num_queries=10, seed=7)
    text = rows_to_csv(rows)
    header, *parsed = csv.reader(io.StringIO(text))
    assert ",".join(header) == (
        "depth,radius,metric,comparisons_mean,comparisons_std,"
        "time_mean_s,time_std_s,fraction_mean,fraction_std,"
        "speedup_mean,output_mean,output_std,false_pos,false_neg")
    assert len(parsed) == 4
    for row, cells in zip(rows, parsed):
        assert len(cells) == len(header)
        for name, cell in zip(header, cells):
            value = getattr(row, name)
            if isinstance(value, float):
                assert float(cell).hex() == value.hex()  # every bit, -0.0 too
            else:
                assert cell == str(value)


def test_identical_seeds_reproduce_everything_but_time(bench_dataset):
    kwargs = dict(radii=[0.4, 1.7], depths=[4, 10], num_queries=15, seed=11)
    first = run_benchmark(bench_dataset, E, **kwargs)
    second = run_benchmark(bench_dataset, E, **kwargs)
    timing = {"time_mean_s", "time_std_s"}
    for a, b in zip(first, second):
        for f in dataclasses.fields(a):
            if f.name not in timing:
                assert getattr(a, f.name) == getattr(b, f.name)


def test_pruning_wins_when_fraction_is_low(bench_dataset):
    rows = run_benchmark(bench_dataset, E, radii=[0.2, 1.0], depths=[8, 14],
                         num_queries=20, seed=17)
    n = bench_dataset.n - 20
    for row in rows:
        if row.fraction_mean < 0.5:
            assert row.comparisons_mean < n


def test_bad_parameters_rejected(bench_dataset):
    with pytest.raises(ValueError):
        run_benchmark(bench_dataset, E, radii=[-1.0], depths=[3],
                      num_queries=5, seed=0)
    with pytest.raises(ValueError):
        run_benchmark(bench_dataset, E, radii=[1.0], depths=[3],
                      num_queries=bench_dataset.n, seed=0)
    with pytest.raises(ValueError, match="depths must be nonnegative"):
        run_benchmark(bench_dataset, E, radii=[1.0], depths=[3, -1],
                      num_queries=5, seed=0)
