"""In-memory span recorder for the traced run.

The traced run wraps public library functions by rebinding their names
in the modules that look them up, for the duration of one operation
only, so untraced operations run the library exactly as shipped. No
library source changes. Each span records its name, start and end, the
span that caused it, the operation it belongs to, and a count: rows for
the distance kernel, hits for a range search made from k-NN.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import chess_search.compress as compress_mod
import chess_search.search as search_mod
import chess_search.tree as tree_mod
from chess_search import Dataset


def _rows(args, result) -> int:
    return len(args[0])


def _hits(args, result) -> int:
    return len(result.hits)


def _none(args, result) -> int:
    return 0


#: (owner, attribute, span name, what the span counts)
TARGETS = (
    (search_mod, "distances_to", "kernel", _rows),
    (tree_mod, "distances_to", "kernel", _rows),
    (tree_mod, "select_poles", "tree.select_poles", _none),
    (search_mod, "rho_search", "search.rho_search", _hits),
    (Dataset, "append_point", "data.append_point", _none),
    (Dataset, "content_hash", "data.content_hash", _none),
    (compress_mod, "encode_leaf", "compress.encode_leaf", _none),
    (compress_mod, "decode_leaf", "compress.decode_leaf", _none),
    (compress_mod, "tree_to_bytes", "tree.to_bytes", _none),
    (compress_mod, "tree_from_bytes", "tree.from_bytes", _none),
    (tree_mod, "tree_to_bytes", "tree.to_bytes", _none),
    (tree_mod, "tree_from_bytes", "tree.from_bytes", _none),
)


@dataclass
class Layer:
    """Totals of one span name within one operation."""

    calls: int = 0
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class OpTrace:
    """The spans of one operation, summed per span name."""

    kind: str
    duration_ns: int = 0
    layers: dict[str, Layer] = field(default_factory=dict)

    def layer(self, name: str) -> Layer:
        return self.layers.get(name, Layer())


class Tracer:
    """Records spans in flat typed arrays, one entry per span: parent span,
    operation, name code, start and end (ns) and count. A span's id is its
    position; a top-level span has parent -1."""

    FIELDS = ("parent", "op", "start_ns", "end_ns", "count")

    def __init__(self) -> None:
        self.names: list[str] = []
        self.columns = {f: array("q") for f in self.FIELDS}
        self.name_codes = array("h")
        self._stack: list[int] = []
        self._op = -1
        # (owner, attribute, original, wrapper)
        self._targets = [(owner, attr, getattr(owner, attr),
                          self._wrap(getattr(owner, attr), name, count))
                         for owner, attr, name, count in TARGETS]

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, code: int) -> int:
        c = self.columns
        sid = len(c["start_ns"])
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["op"].append(self._op)
        c["end_ns"].append(0)
        c["count"].append(0)
        self.name_codes.append(code)
        self._stack.append(sid)
        c["start_ns"].append(perf_counter_ns())
        return sid

    def _close(self, sid: int, count: int) -> None:
        self.columns["end_ns"][sid] = perf_counter_ns()
        self.columns["count"][sid] = count
        self._stack.pop()

    def _wrap(self, fn, name: str, count):
        code = self._code(name)

        def traced(*args, **kwargs):
            sid = self._open(code)
            n = -1
            try:
                result = fn(*args, **kwargs)
                n = count(args, result)
                return result
            finally:
                self._close(sid, n)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self, kind: str):
        """Trace one operation: install the wrappers, open its root span,
        and on exit restore the library and sum the spans per name into
        the yielded :class:`OpTrace`."""
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        self._op += 1
        first = self._open(self._code("op." + kind))
        summary = OpTrace(kind)
        try:
            yield summary
        finally:
            self._close(first, 0)
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)
            self._summarize(first, summary)

    def _column(self, name: str, first: int) -> np.ndarray:
        return np.frombuffer(self.columns[name], dtype=np.int64)[first:].copy()

    def _summarize(self, first: int, summary: OpTrace) -> None:
        parent = self._column("parent", first)
        duration = self._column("end_ns", first) - self._column("start_ns", first)
        count = self._column("count", first)
        codes = np.frombuffer(self.name_codes, dtype=np.int16)[first:]
        child = np.zeros_like(duration)
        np.add.at(child, parent[1:] - first, duration[1:])
        own = duration - child
        summary.duration_ns = int(duration[0])
        for code in np.unique(codes[1:]):
            rows = np.flatnonzero(codes[1:] == code) + 1
            summary.layers[self.names[code]] = Layer(
                calls=int(rows.size), count=int(count[rows].sum()),
                total_ns=int(duration[rows].sum()), self_ns=int(own[rows].sum()))

    def write(self, path: Path) -> None:
        """Write every span to a compressed ``.npz``: one array per field,
        ``name`` as a code into ``names``."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name_codes, dtype=np.int16),
            **{f: np.frombuffer(col, dtype=np.int64)
               for f, col in self.columns.items()})
