"""Clustered hierarchical entropy-scaling search.

An in-memory metric-space index built by divisive binary clustering.
Range queries prune subtrees with the triangle inequality, which keeps
results exactly equal to a linear scan under metric distances while
typically comparing against a small fraction of the data when the data
occupy a low-dimensional manifold. The same hierarchy drives exact k-NN
search, cluster-geometry diagnostics (radii, fractal-dimension
profiles), quantized delta compression, and live insertion.
"""

from .bench import BenchmarkRow, hold_out, rows_to_csv, run_benchmark
from .compress import DEFAULT_QUANTUM, Quantizer, compress_tree, decompress
from .data import (Dataset, DatasetKind, load_dense, load_sequences, save_dense,
                   synth_manifold)
from .errors import ChessError, DegenerateInputError, DimensionError, FormatError
from .metrics import ComparisonCounter, MetricKind, distance, distances_to
from .search import KnnReport, SearchReport, knn_search, naive_search, rho_search
from .tree import (BuildConfig, ClusterTree, build, deserialize, insert_point,
                   lfd_depth_profile, metric_entropy, serialize)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRow", "hold_out", "rows_to_csv", "run_benchmark",
    "DEFAULT_QUANTUM", "Quantizer", "compress_tree", "decompress",
    "Dataset", "DatasetKind", "load_dense", "load_sequences", "save_dense",
    "synth_manifold",
    "ChessError", "DegenerateInputError", "DimensionError", "FormatError",
    "ComparisonCounter", "MetricKind", "distance", "distances_to",
    "KnnReport", "SearchReport", "knn_search", "naive_search", "rho_search",
    "BuildConfig", "ClusterTree", "build", "deserialize", "insert_point",
    "lfd_depth_profile", "metric_entropy", "serialize",
]
