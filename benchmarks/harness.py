"""One benchmark run: set-up, then the closed loop of the workload's
operations with the timing-only repeats (builds, archive round trips)
spread evenly through it.

One client drives the library in a closed loop: the next operation
starts only after the previous one returns. Every operation the oracle
is asked to check is compared with a brute-force answer; a failure or
disagreement counts against ``error_rate`` and makes the run incorrect.

Operations are timed by the CPU time of this thread, not by wall time.
Every operation runs on this one thread and waits on nothing but the
CPU, so the two agree, except for the time a shared host hands this
virtual CPU to other guests ("steal"). Steal came and went in phases of
about a minute and made wall times of one operation swing by a factor
of 1.5 to 3, which no number of repeats within a run averages out.
The ratio of wall to CPU time of the timed operations is printed with
each result.

The traced run keeps two identical copies of the index. Each operation
runs first on the untraced copy, which gives the end-to-end timings and
the answer the oracle checks, then on the traced copy, whose answer must
be the same. The spans of the traced copy give the per-layer metrics,
and the two timings give the tracing overhead.

Where the workload keeps inserts beside the reads, inserts go to a copy
of the index made at set-up, so that reads always see the index as
built; otherwise reads and inserts share one index.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import math
import os
import resource
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from chess_search import (BuildConfig, ClusterTree, Dataset, MetricKind,
                          Quantizer, build, compress_tree, decompress,
                          deserialize, insert_point, knn_search, metric_entropy,
                          rho_search, serialize, synth_manifold)
from chess_search.tree import tree_to_bytes

import oracle
from tracing import OpTrace, Tracer
from workloads import K, Op, Workload, interleave

SETUP_REPEATS = 3
WARMUP_READS = 3
#: percentiles tried for ``*_tail_ms``, highest first: p99 from 1,000
#: samples, p90 from 100, and lower ones only for short runs
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)

#: The ROADMAP baseline build, asserted by every traced run.
ANCHOR = {"build_comparisons": 702_905, "leaves": 2_942, "depth": 36}


@dataclasses.dataclass
class State:
    dataset: Dataset
    tree: ClusterTree


def _timed(fn, *args):
    """Run ``fn``; return its result, the CPU time this thread spent in
    it and the wall time it took, both in seconds."""
    wall, cpu = time.perf_counter(), time.thread_time()
    out = fn(*args)
    return out, time.thread_time() - cpu, time.perf_counter() - wall


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    raise ValueError(f"{samples} samples are too few for a tail percentile")


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: int,
                 trace: bool, out_dir: Path) -> None:
        self.workload = workload
        self.seconds = seconds
        self.corpus = workload.corpus(seed)
        self.ops = workload.plan(self.corpus, seed, seconds)
        self.tracer = Tracer() if trace else None
        self.archive_path = out_dir / f"archive-{os.getpid()}.bin"
        self.attempted = 0
        self.failures: list[str] = []
        # untraced timings (s) and traced timings (s), per operation type
        self.times: dict[str, list[float]] = defaultdict(list)
        self.wall_seconds = 0.0
        self.traced_times: dict[str, list[float]] = defaultdict(list)
        self.comparisons: dict[str, list[int]] = defaultdict(list)
        # (op trace, facts from the library's report) per traced operation
        self.traces: list[tuple[OpTrace, dict]] = []
        self.archive_bytes = 0
        self.index_bytes = 0
        self.values_count = 0
        self.raw_bytes = 0
        self.built: dict[str, int] = {}

    # -- bookkeeping -------------------------------------------------------

    def _fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")

    def _attempt(self, what: str, fn, *args) -> None:
        """Run one operation; an exception counts as a failure and the
        run goes on."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception:  # noqa: BLE001 - one failed operation must not end the run
            traceback.print_exc()
            self._fail(what, "raised")

    def _measured(self, kind: str, fn, *args):
        """Run one untraced operation and record its time."""
        out, seconds, wall = _timed(fn, *args)
        self.times[kind].append(seconds)
        self.wall_seconds += wall
        return out

    def _traced(self, kind: str, fn, *args):
        with self.tracer.operation(kind) as summary:
            out, seconds, _ = _timed(fn, *args)
        self.traced_times[kind].append(seconds)
        return out, summary

    # -- phases ------------------------------------------------------------

    def schedule(self) -> list[Op]:
        """The workload's operations with the timing-only repeats (builds
        and archive round trips) spread evenly among them. Spread out, a
        slow stretch of a shared host lands in one sample, not in all of
        them."""
        return interleave(
            self.ops, [Op("build")] * (SETUP_REPEATS - 1),
            [Op("archive")] * self.workload.archive_repeats(self.seconds))

    def execute(self) -> None:
        self._setup()
        if self.tracer:
            self._anchor()
        self._warm_up()
        try:
            for i, op in enumerate(self.schedule()):
                self._attempt(f"{op.kind} #{i}", self._operation, op)
            self._attempt("serialize", self._serialize_round_trip)
            if self.tracer:
                self._attempt("traced archive", self._traced_archive)
        finally:
            self.archive_path.unlink(missing_ok=True)
        if self.tracer and any(tree_to_bytes(u.tree) != tree_to_bytes(t.tree)
                               for u, t in ((self.a, self.b), (self.wa, self.wb))):
            self._fail("trace", "traced and untraced trees differ")

    def _check_build(self, what: str, tree, n: int) -> None:
        depth = tree.depth
        bound = 3 * (depth + 1) * n + n
        if tree.build_comparisons > bound:
            self._fail(what, f"{tree.build_comparisons} comparisons exceed "
                             f"3(depth+1)n + n = {bound}")

    def _setup(self) -> None:
        c = self.corpus
        # inserts grow the corpus in place; later builds use this copy
        self.pristine = copy.deepcopy(c.dataset)
        self.attempted += 1
        tree = self._measured("build", build, c.dataset, c.metric, c.config)
        self._check_build("build", tree, c.dataset.n)
        self.reference = tree_to_bytes(tree)
        self.a = State(c.dataset, tree)
        self.built = {"build_comparisons": tree.build_comparisons,
                      "depth": tree.depth, "leaves": metric_entropy(tree)}
        if self.tracer:
            dataset_b = copy.deepcopy(c.dataset)
            tree_b, summary = self._traced("build", build, dataset_b, c.metric,
                                           c.config)
            self.b = State(dataset_b, tree_b)
            self.traces.append((summary, {}))
            self._reconcile_build("traced build", summary, tree_b)
            if tree_to_bytes(tree_b) != self.reference:
                self._fail("traced build", "differs from the untraced build")
        # the indexes inserts go to
        side = self.workload.side_inserts
        self.wa = copy.deepcopy(self.a) if side else self.a
        if self.tracer:
            self.wb = copy.deepcopy(self.b) if side else self.b

    def _rebuild(self) -> None:
        c = self.corpus
        tree = self._measured("build", build, self.pristine, c.metric, c.config)
        self._check_build("build", tree, self.pristine.n)
        if tree_to_bytes(tree) != self.reference:
            self._fail("build", "differs from the first build")

    def _reconcile_build(self, what: str, summary: OpTrace, tree) -> None:
        rows = summary.layer("kernel").count
        if rows != tree.build_comparisons:
            self._fail(what, f"kernel rows {rows} != build comparisons "
                             f"{tree.build_comparisons}")

    def _anchor(self) -> None:
        """Rebuild the ROADMAP corpus under the tracer and hold it to the
        ROADMAP table: this ties the generator and build to those numbers."""
        self.attempted += 1
        data = synth_manifold(20_000, 60, 1, 0.0, seed=7, density_power=4)
        with self.tracer.operation("anchor") as summary:
            tree = build(data, MetricKind.EUCLIDEAN, BuildConfig(50, 10, 0))
        self._reconcile_build("anchor", summary, tree)
        got = {"build_comparisons": tree.build_comparisons,
               "leaves": metric_entropy(tree), "depth": tree.depth}
        if got != ANCHOR:
            self._fail("anchor", f"ROADMAP corpus built to {got}, expected {ANCHOR}")

    def _warm_up(self) -> None:
        tree, data = self.a.tree, self.a.dataset
        for q in self.corpus.pool[:WARMUP_READS]:
            rho_search(tree, q, self.workload.narrow_below, data)
            knn_search(tree, q, K, data)

    def _operation(self, op: Op) -> None:
        if op.kind == "insert":
            self._insert(op)
        elif op.kind == "build":
            self._rebuild()
        elif op.kind == "archive":
            self._archive_round_trip()
        else:
            self._read(op)

    def _read(self, op: Op) -> None:
        def call(state: State, q):
            if op.kind == "range":
                return rho_search(state.tree, q, op.radius, state.dataset)
            return knn_search(state.tree, q, K, state.dataset)

        data = self.a.dataset
        q = data.point(op.stored).copy() if op.stored is not None else op.point
        report = self._measured(op.kind, call, self.a, q)
        self.comparisons[op.kind].append(report.comparisons)
        if self.tracer:
            traced, summary = self._traced(op.kind, call, self.b, q)
            if traced.hits != report.hits or traced.comparisons != report.comparisons:
                self._fail(op.kind, "traced answer differs from the untraced one")
            self._reconcile_read(op, summary, report, data.n)
        if op.check or self.tracer:
            m = self.corpus.metric
            why = (oracle.check_range(report.hits, data, q, op.radius, m)
                   if op.kind == "range" else
                   oracle.check_knn(report.hits, data, q, K, m))
            if why:
                self._fail(op.kind, why)

    def _reconcile_read(self, op: Op, summary: OpTrace, report, n: int) -> None:
        kernel = summary.layer("kernel")
        facts = {"comparisons": report.comparisons, "hits": len(report.hits)}
        if kernel.count != report.comparisons:
            self._fail(op.kind, f"kernel rows {kernel.count} != comparisons "
                                f"{report.comparisons}")
        if op.kind == "range":
            center_tests = kernel.calls - report.leaves_visited
            scanned = round(report.fraction_searched * n)
            if center_tests + scanned != report.comparisons:
                self._fail("range", f"center tests {center_tests} + points "
                                    f"scanned {scanned} != comparisons "
                                    f"{report.comparisons}")
            facts.update(radius=op.radius, leaves=report.leaves_visited,
                         center_tests=center_tests, scanned=scanned)
        else:
            rho = summary.layer("search.rho_search")
            if rho.calls != report.invocations:
                self._fail("knn", f"{rho.calls} traced range searches != "
                                  f"{report.invocations} invocations")
            facts.update(fallback=report.used_fallback)
        self.traces.append((summary, facts))

    def _insert(self, op: Op) -> None:
        data = self.wa.dataset
        index = data.n
        self._measured("insert", insert_point, self.wa.tree, op.point, data)
        if self.tracer:
            _, summary = self._traced("insert", insert_point, self.wb.tree,
                                      op.point, self.wb.dataset)
            self.traces.append((summary, {}))
        if data.n != index + 1 or not np.array_equal(data.point(index), op.point):
            self._fail("insert", "the point was not appended")
        elif op.check or self.tracer:
            # the new point must be reachable through the tree
            probe = rho_search(self.wa.tree, op.point, 0.0, data)
            why = oracle.check_range(probe.hits, data, op.point, 0.0,
                                     self.corpus.metric)
            if why or index not in probe.hit_indices():
                self._fail("insert", why or f"point {index} not found")
        # The search's recursive closures form reference cycles that hold
        # the value array this insert replaced; free it now, untimed, so
        # peak memory does not depend on when the collector next runs.
        gc.collect()

    def _archive_tree(self, state: State):
        c = self.corpus
        if c.archive_metric is c.metric:
            return state.tree
        # a string archive stores each member as substitutions against its
        # leaf center, so it needs leaves whose Hamming radius bounds them
        return build(state.dataset, c.archive_metric, c.config)

    def _serialize_round_trip(self) -> None:
        tree, path = self._archive_tree(self.a), self.archive_path
        serialize(tree, path)
        back = deserialize(path, self.a.dataset)
        self.index_bytes = path.stat().st_size
        if tree_to_bytes(back) != tree_to_bytes(tree):
            self._fail("serialize", "round trip changed the tree")

    def _archive_round_trip(self) -> None:
        data, path = self.a.dataset, self.archive_path
        tree = self._archive_tree(self.a)
        quantizer = Quantizer()
        self._measured("compress", compress_tree, tree, data, quantizer, path, 1)
        self.archive_bytes = path.stat().st_size
        self.raw_bytes = data.values.nbytes
        self.values_count = data.values.size
        decoded = self._measured("decompress", decompress, path)
        why = oracle.check_archive(data, decoded, quantizer.quantum)
        if not why and len(self.times["compress"]) == 1:
            # decoded values sit on the grid, so a second trip is the identity
            again = dataclasses.replace(tree, dataset_hash=decoded.content_hash())
            compress_tree(again, decoded, quantizer, path, 1)
            why = oracle.check_identical(decoded, decompress(path))
        if why:
            self._fail("archive", why)

    def _traced_archive(self) -> None:
        tree, path = self._archive_tree(self.b), self.archive_path
        _, summary = self._traced("compress", compress_tree, tree, self.b.dataset,
                                  Quantizer(), path, 1)
        self.traces.append((summary, {}))
        decoded, summary = self._traced("decompress", decompress, path)
        self.traces.append((summary, {}))
        why = oracle.check_archive(self.b.dataset, decoded, Quantizer().quantum)
        if why:
            self._fail("traced archive", why)

    # -- metrics -----------------------------------------------------------

    def wall_over_cpu(self) -> float:
        """Wall time over CPU time of the untraced timed operations: 1
        when the host gave this run its CPU whenever it asked."""
        return self.wall_seconds / sum(map(sum, self.times.values()))

    def end_to_end(self) -> dict[str, tuple[float, str, str]]:
        """name -> (value, unit, note) for every end-to-end metric."""
        out: dict[str, tuple[float, str, str]] = {}
        t = self.times
        out["setup_s"] = (statistics.median(t["build"]), "s",
                          f"median of {len(t['build'])} builds")
        for kind in ("range", "knn", "insert"):
            ms = np.array(t[kind]) * 1e3
            p = tail_percentile(ms.size)
            out[f"{kind}_p50_ms"] = (float(np.percentile(ms, 50)), "ms",
                                     f"{ms.size} samples")
            out[f"{kind}_tail_ms"] = (float(np.percentile(ms, p)), "ms",
                                      f"p{p:g} of {ms.size} samples")
            if kind == "range":
                out["range_qps"] = (ms.size / (ms.sum() / 1e3), "1/s",
                                    "queries per busy second")
            if kind != "insert":
                out[f"{kind}_comparisons"] = (
                    float(np.mean(self.comparisons[kind])), "count",
                    "mean distance evaluations per query")
        # The mean, not the median: on a shared host a round trip runs
        # either at the fast or at a slow speed, and with about as many of
        # each the median of a few jumps between the two from run to run,
        # while the mean moves only with their mix.
        for kind in ("compress", "decompress"):
            out[f"{kind}_s"] = (statistics.fmean(t[kind]), "s",
                                f"mean of {len(t[kind])} round trips")
        out["archive_ratio"] = (self.archive_bytes / self.raw_bytes, "ratio",
                                f"{self.archive_bytes} archive bytes per "
                                f"{self.raw_bytes} raw bytes")
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
            "peak resident memory of this process")
        return out

    def per_layer(self) -> dict[str, tuple[float, str, str]]:
        """name -> (value, unit, note) for every per-layer metric."""
        by_kind: dict[str, list[tuple[OpTrace, dict]]] = defaultdict(list)
        for summary, facts in self.traces:
            by_kind[summary.kind].append((summary, facts))
        ranges, knns = by_kind["range"], by_kind["knn"]
        inserts, builds = by_kind["insert"], by_kind["build"]
        out: dict[str, tuple[float, str, str]] = {}

        def total(items, name, attr="total_ns"):
            return sum(getattr(s.layer(name), attr) for s, _ in items)

        def mean(values):
            values = list(values)
            return float(np.mean(values)) if values else math.nan

        kernel_calls = total(ranges, "kernel", "calls")
        out["metrics.calls_per_query"] = (kernel_calls / len(ranges), "count",
                                          "kernel calls per range query")
        out["metrics.rows_per_call"] = (total(ranges, "kernel", "count")
                                        / kernel_calls, "count",
                                        "rows per kernel call in range queries")
        rows = sum(s.layer("kernel").count for s, _ in self.traces)
        out["metrics.us_per_row"] = (
            sum(s.layer("kernel").total_ns for s, _ in self.traces) / rows / 1e3,
            "us", "kernel time per distance evaluation, all operations")
        for kind in ("build", "range", "knn", "insert"):
            items = by_kind[kind]
            out[f"metrics.kernel_share.{kind}"] = (
                total(items, "kernel") / sum(s.duration_ns for s, _ in items),
                "share", f"kernel time / {kind} time")

        out["tree.build_comparisons"] = (self.built["build_comparisons"], "count", "")
        out["tree.depth"] = (self.built["depth"], "count", "")
        out["tree.leaves"] = (self.built["leaves"], "count", "")
        out["tree.poles_s"] = (total(builds, "tree.select_poles", "self_ns") / 1e9,
                               "s", "select_poles self time in one build")
        out["tree.build_kernel_s"] = (total(builds, "kernel") / 1e9, "s",
                                      "kernel time in one build")
        out["tree.insert_descent_ms"] = (mean(
            (s.duration_ns - s.layer("data.append_point").total_ns
             - s.layer("data.content_hash").total_ns) / 1e6 for s, _ in inserts),
            "ms", "insert time outside append_point and content_hash")
        archive = by_kind["compress"] + by_kind["decompress"]
        for name, label in (("tree.to_bytes", "to_bytes"),
                            ("tree.from_bytes", "from_bytes")):
            calls = total(archive, name, "calls")
            out[f"tree.{label}_ms"] = (total(archive, name) / calls / 1e6, "ms",
                                       f"per {label} call in the archive phase")
        out["tree.index_bytes"] = (self.index_bytes, "bytes",
                                   "serialized tree of the archive")

        scanned = sum(f["scanned"] for _, f in ranges)
        hits = sum(f["hits"] for _, f in ranges)
        out["search.center_tests_per_query"] = (
            mean(f["center_tests"] for _, f in ranges), "count", "")
        out["search.points_scanned_per_query"] = (scanned / len(ranges), "count", "")
        out["search.leaves_per_query"] = (mean(f["leaves"] for _, f in ranges),
                                          "count", "")
        out["search.hits_per_query"] = (hits / len(ranges), "count", "")
        out["search.useful_scan_ratio"] = (hits / scanned, "ratio",
                                           "hits per point scanned")
        narrow = self.workload.narrow_below
        for suffix, keep in (("", lambda r: True), (".narrow", lambda r: r < narrow),
                             (".wide", lambda r: r >= narrow)):
            out[f"search.overhead_ms_per_query{suffix}"] = (mean(
                (s.duration_ns - s.layer("kernel").total_ns) / 1e6
                for s, f in ranges if keep(f["radius"])), "ms",
                "range time outside the kernel"
                + (f", radius {'<' if suffix == '.narrow' else '>='} {narrow:g}"
                   if suffix else ""))
        inner_hits = total(knns, "search.rho_search", "count")
        out["search.knn_invocations"] = (
            total(knns, "search.rho_search", "calls") / len(knns), "count",
            "range searches per k-NN query")
        out["search.knn_fallback_rate"] = (mean(f["fallback"] for _, f in knns),
                                           "share", "k-NN queries that fell back "
                                           "to a full scan")
        out["search.knn_useful_ratio"] = (K * len(knns) / inner_hits, "ratio",
                                          "k / hits of the inner range searches")

        out["data.append_ms"] = (total(inserts, "data.append_point") / len(inserts)
                                 / 1e6, "ms", "per insert")
        out["data.hash_ms"] = (total(inserts, "data.content_hash") / len(inserts)
                               / 1e6, "ms", "per insert")
        for name, kind in (("encode", "compress"), ("decode", "decompress")):
            items = by_kind[kind]
            calls = total(items, f"compress.{name}_leaf", "calls")
            out[f"compress.{name}_ms_per_leaf"] = (
                total(items, f"compress.{name}_leaf") / calls / 1e6, "ms", "")
        out["compress.bytes_per_value"] = (self.archive_bytes / self.values_count,
                                           "bytes", "archive bytes per stored value")

        for kind in ("build", "range", "knn", "insert", "compress", "decompress"):
            out[f"trace.overhead.{kind}"] = (
                statistics.median(self.traced_times[kind])
                / statistics.median(self.times[kind]) - 1.0, "share",
                "traced median / untraced median - 1")
        return out

    def write_trace(self, path: Path) -> None:
        self.tracer.write(path)
