"""Benchmark harness: held-out queries and per-depth sweeps.

The protocol holds out a seeded random sample of points as queries,
builds one tree on the remainder at the deepest requested depth, cuts it
at each requested depth (depth 0 is the root as one leaf), and runs both
the pruned search and the naive linear scan for every (query, radius)
cell. Each cut works out its pivots and rings, so it searches as the build
of its depth does; with ``filters=False`` it knows none (all nan), and
searches by the paper's cluster pruning alone, testing the center of
every cluster it reaches.
Speedup is reported on the comparison-count basis (naive comparisons
divided by pruned-search comparisons), which is hardware independent;
wall-clock time of each pruned search is reported alongside. Rows
serialize to CSV under a header of :class:`BenchmarkRow`'s field names,
in field order; floats are written in shortest round-trip form, so
``float()`` of a cell gives back every bit of the value. Radii are in
the metric's distance: chord distances are lengths in [0, 2].
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .data import Dataset
from .metrics import MetricKind
from .search import naive_search, rho_search
from .tree import BuildConfig, _load_pass, _truncated, build

__all__ = [
    "BenchmarkRow",
    "run_benchmark",
    "hold_out",
    "rows_to_csv",
]


@dataclass
class BenchmarkRow:
    depth: int
    radius: float
    metric: str
    comparisons_mean: float
    comparisons_std: float
    time_mean_s: float
    time_std_s: float
    fraction_mean: float
    fraction_std: float
    speedup_mean: float
    output_mean: float
    output_std: float
    false_pos: int
    false_neg: int


def hold_out(dataset: Dataset, num_queries: int, seed: int,
             ) -> tuple[Dataset, np.ndarray]:
    """Split off a seeded random query sample; returns (held-in dataset,
    query rows)."""
    if not 0 < num_queries < dataset.n:
        raise ValueError(f"num_queries must be in (0, {dataset.n}), "
                         f"got {num_queries}")
    rng = np.random.default_rng(seed)
    query_idx = rng.choice(dataset.n, size=num_queries, replace=False)
    keep = np.ones(dataset.n, dtype=bool)
    keep[query_idx] = False
    held_in = Dataset(dataset.kind, dataset.values[keep].copy())
    return held_in, dataset.values[query_idx].copy()


def run_benchmark(dataset: Dataset, metric: MetricKind, radii, depths,
                  num_queries: int = 50, seed: int = 0, *,
                  min_size: int = 10, filters: bool = True) -> list[BenchmarkRow]:
    """One row per (depth, radius): comparison counts, wall times,
    fraction searched, speedup, output sizes, and exactness tallies.
    ``filters=False`` searches every cut with no pivot or ring known: every
    reached leaf's center is tested, as the paper's search tests it."""
    radii = [float(r) for r in radii]
    if any(r < 0 for r in radii):
        raise ValueError("radii must be nonnegative")
    depths = [int(d) for d in depths]
    if any(d < 0 for d in depths):
        raise ValueError("depths must be nonnegative")
    held_in, queries = hold_out(dataset, num_queries, seed)

    # the oracle does not depend on tree depth: one scan per (query, radius)
    naive = {r: [naive_search(held_in, q, r, metric) for q in queries]
             for r in radii}

    # a tree built with max_depth d is the depth-d cut of a deeper one
    deepest = build(held_in, metric, BuildConfig(max_depth=max([1, *depths]),
                                                 min_size=min_size, seed=seed))
    rows = []
    for depth in depths:
        tree = _truncated(deepest, depth)
        if filters:
            _load_pass(tree, held_in.values)
        for radius in radii:
            reports, times = [], np.empty(len(queries))
            for i, q in enumerate(queries):
                started = time.perf_counter()
                reports.append(rho_search(tree, q, radius, held_in))
                times[i] = time.perf_counter() - started
            oracle = naive[radius]
            comparisons = np.array([r.comparisons for r in reports], dtype=float)
            fractions = np.array([r.fraction_searched for r in reports])
            outputs = np.array([len(o.hits) for o in oracle], dtype=float)
            speedups = np.array([o.comparisons / r.comparisons
                                 for o, r in zip(oracle, reports)])
            false_pos = false_neg = 0
            for rep, orc in zip(reports, oracle):
                got, want = rep.hit_indices(), orc.hit_indices()
                false_pos += len(got - want)
                false_neg += len(want - got)
            rows.append(BenchmarkRow(
                depth=depth, radius=radius, metric=metric.value,
                comparisons_mean=float(comparisons.mean()),
                comparisons_std=float(comparisons.std()),
                time_mean_s=float(times.mean()), time_std_s=float(times.std()),
                fraction_mean=float(fractions.mean()),
                fraction_std=float(fractions.std()),
                speedup_mean=float(speedups.mean()),
                output_mean=float(outputs.mean()),
                output_std=float(outputs.std()),
                false_pos=false_pos, false_neg=false_neg))
    return rows


def rows_to_csv(rows: list[BenchmarkRow]) -> str:
    """Render rows under a header of the field names; floats use their
    shortest round-trip ``repr``, so parsing them back is lossless."""
    lines = [",".join(f.name for f in fields(BenchmarkRow))]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v)
                       for v in astuple(row)) for row in rows]
    return "\n".join(lines) + "\n"
