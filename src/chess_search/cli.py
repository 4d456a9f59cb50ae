"""Command-line front end.

Subcommands: build, search, knn, bench, compress, decompress, info,
synth. Machine-readable CSV goes to standard output (or ``--out``);
human-readable summaries go to standard error. Exit codes: 0 on
success, 1 on data or runtime errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .bench import rows_to_csv, run_benchmark
from .compress import Quantizer, compress_tree, decompress
from .data import (VEC_MAGIC, Dataset, DatasetKind, load_dense, load_sequences,
                   save_dense, synth_manifold)
from .errors import ChessError
from .metrics import MetricKind
from .search import knn_search, naive_search, rho_search
from .tree import (BuildConfig, _read_tree_file, build, deserialize,
                   lfd_depth_profile, metric_entropy, serialize)


class UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if value < 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return value


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def _float_list(text: str) -> list[float]:
    return _nonempty([float(part) for part in text.split(",") if part])


def _int_list(text: str) -> list[int]:
    return _nonempty([int(part) for part in text.split(",") if part])


def _eprint(*parts) -> None:
    print(*parts, file=sys.stderr)


def _load_any(path) -> Dataset:
    """Load a dataset file, sniffing CHESSVEC magic vs sequence text."""
    with open(path, "rb") as fh:
        head = fh.read(len(VEC_MAGIC))
    return load_dense(path) if head == VEC_MAGIC else load_sequences(path)


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _read_tree_with_dataset(args) -> tuple:
    dataset = _load_any(args.input)
    tree = deserialize(args.tree, dataset)
    queries = _load_any(args.queries)
    if queries.kind is not dataset.kind:
        raise UsageError("query file kind does not match the dataset")
    return tree, dataset, queries.values


def _hits_csv(per_query_hits) -> str:
    lines = ["query_id,point_index,distance"]
    for qid, hits in enumerate(per_query_hits):
        for index, dist in hits:
            lines.append(f"{qid},{index},{dist!r}")
    return "\n".join(lines) + "\n"


def cmd_build(args) -> int:
    dataset = _load_any(args.input)
    metric = MetricKind.from_name(args.metric)
    config = BuildConfig(max_depth=args.max_depth, min_size=args.min_size,
                         seed=args.seed)
    tree = build(dataset, metric, config)
    serialize(tree, args.out)
    _eprint(f"n={dataset.n} depth={tree.depth} leaves={metric_entropy(tree)} "
            f"mean_leaf_radius={tree.mean_leaf_radius()!r} "
            f"median_leaf_radius={tree.median_leaf_radius()!r} "
            f"build_comparisons={tree.build_comparisons}")
    return 0


def cmd_search(args) -> int:
    tree, dataset, queries = _read_tree_with_dataset(args)
    results = []
    comparisons = []
    fractions = []
    for q in queries:
        report = (naive_search(dataset, q, args.radius, tree.metric)
                  if args.naive else rho_search(tree, q, args.radius, dataset))
        results.append(report.hits)
        comparisons.append(report.comparisons)
        fractions.append(report.fraction_searched)
    _emit(_hits_csv(results), args.out)
    _eprint(f"queries={len(results)} radius={args.radius!r} "
            f"comparisons_mean={float(np.mean(comparisons))!r} "
            f"fraction_searched_mean={float(np.mean(fractions))!r}")
    return 0


def cmd_knn(args) -> int:
    tree, dataset, queries = _read_tree_with_dataset(args)
    results = []
    comparisons = []
    for q in queries:
        report = knn_search(tree, q, args.k, dataset)
        results.append(report.hits)
        comparisons.append(report.comparisons)
    _emit(_hits_csv(results), args.out)
    _eprint(f"queries={len(results)} k={args.k} "
            f"comparisons_mean={float(np.mean(comparisons))!r}")
    return 0


def cmd_bench(args) -> int:
    dataset = _load_any(args.input)
    metric = MetricKind.from_name(args.metric)
    rows = run_benchmark(dataset, metric, args.radii, args.depths,
                         num_queries=args.queries, seed=args.seed,
                         min_size=args.min_size)
    _emit(rows_to_csv(rows), args.out)
    return 0


def cmd_compress(args) -> int:
    dataset = _load_any(args.input)
    tree = deserialize(args.tree, dataset)
    compress_tree(tree, dataset, Quantizer(args.quantum), args.out)
    raw = Path(args.input).stat().st_size
    archived = Path(args.out).stat().st_size
    _eprint(f"n={dataset.n} raw_bytes={raw} archive_bytes={archived} "
            f"ratio={archived / raw!r}")
    return 0


def cmd_decompress(args) -> int:
    dataset = decompress(args.input)
    if dataset.kind is DatasetKind.DENSE_VECTORS:
        save_dense(dataset, args.out)
    else:
        Path(args.out).write_bytes(dataset.to_canonical_bytes())
    _eprint(f"n={dataset.n} dim={dataset.dim} kind={dataset.kind.value}")
    return 0


def cmd_info(args) -> int:
    if args.lfd_profile and not args.input:
        raise UsageError("--lfd-profile needs --input, the dataset of the tree")
    for flag, given in (("--input", args.input), ("--out", args.out)):
        if given and not args.lfd_profile:
            raise UsageError(f"{flag} is used only with --lfd-profile")
    dataset = _load_any(args.input) if args.input else None
    tree = deserialize(args.tree, dataset) if dataset else _read_tree_file(args.tree)
    _eprint(f"metric={tree.metric.value} n={tree.cardinality[0]} "
            f"depth={tree.depth} leaves={metric_entropy(tree)} "
            f"mean_leaf_radius={tree.mean_leaf_radius()!r} "
            f"median_leaf_radius={tree.median_leaf_radius()!r} "
            f"max_depth={tree.config.max_depth} min_size={tree.config.min_size} "
            f"seed={tree.config.seed}")
    if args.lfd_profile:
        lines = ["depth,decile,mean_lfd"]
        lines += [f"{d},{dec},{lfd!r}" for d, dec, lfd in lfd_depth_profile(tree, dataset)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_synth(args) -> int:
    dataset = synth_manifold(args.n, args.embed, args.intrinsic, args.noise,
                             args.seed, density_power=args.density_power)
    save_dense(dataset, args.out)
    _eprint(f"n={dataset.n} dim={dataset.dim}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chess",
        description="Hierarchical entropy-scaling metric-space search")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", help="cluster a dataset and write a tree file")
    p.add_argument("--input", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-depth", type=_positive_int, default=50)
    p.add_argument("--min-size", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("search", help="radius search against a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--radius", type=_nonneg_float, required=True,
                   help="in the tree's distance: chord distances are lengths "
                        "in [0, 2]")
    p.add_argument("--naive", action="store_true",
                   help="run the linear-scan oracle instead of the tree")
    p.add_argument("--out")
    p.add_argument("--queries", required=True,
                   help="CHESSVEC or sequence file of query points")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("knn", help="k-nearest-neighbor search against a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--out")
    p.add_argument("--queries", required=True,
                   help="CHESSVEC or sequence file of query points")
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("bench", help="held-out query benchmark, CSV report")
    p.add_argument("--input", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--radii", type=_float_list, required=True,
                   help="comma-separated, in the metric's distance: chord "
                        "distances are lengths in [0, 2]")
    p.add_argument("--depths", type=_int_list, required=True)
    p.add_argument("--queries", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-size", type=_positive_int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compress", help="delta-compress a dataset into an archive")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tree", required=True, help="tree file built over --input")
    p.add_argument("--quantum", type=float, default=Quantizer().quantum)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="rebuild the dataset from an archive")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("info", help="print statistics of a tree file")
    p.add_argument("--tree", required=True)
    p.add_argument("--lfd-profile", action="store_true",
                   help="also emit the per-depth fractal-dimension deciles as "
                        "CSV, computed from the tree and --input")
    p.add_argument("--input", help="the dataset the tree was built over; "
                                   "needed by --lfd-profile")
    p.add_argument("--out", help="where --lfd-profile writes its CSV")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("synth", help="generate a synthetic manifold dataset")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--embed", type=_positive_int, required=True)
    p.add_argument("--intrinsic", type=_positive_int, required=True)
    p.add_argument("--noise", type=_nonneg_float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density-power", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        _eprint(f"usage error: {exc}")
        return 2
    except (ChessError, ValueError, OSError) as exc:
        _eprint(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
