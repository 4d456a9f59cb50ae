"""Quantized delta compression of leaf clusters.

Every leaf stores its center and its members as differences on an
integer grid: a dense value's grid index is its nearest multiple of the
quantum, a string character's is its byte code. A leaf's center row is
differenced from the previous leaf's center (the first from zero), its
members' rows from its center. One pass serves both kinds, on a batch of
consecutive leaves at a time (about ``2 ** 13`` values; a larger leaf is
a batch of its own): grid indices, differences, zigzag, then one block
per batch through :func:`encode_leaf`. A block stores its values in the
fewest whole bytes its largest zigzag value needs, 1 to 8, as byte
planes: every value's low byte, then every value's next byte, and so on,
in one deflate stream (RFC 1951).

An archive is the magic ``CHESSARC``, a header (version, quantum,
dimension, the tree's CHESSTREE stream deflated), then the blocks in
pre-order of their leaves; header and blocks are framed by a length
prefix and a CRC32. Block kind flag 0 is dense, 2 is strings; flag 1,
the retired edit-list string codec, is refused. Decoding takes each
block's run of leaves from the block; :func:`decode_leaf` checks it
against the tree, which also fixes the block's value count, so the body
must be exactly that many values of the block's width. Then the pass is
reversed. Dense values land on the grid, so a first roundtrip is lossy
by at most half a quantum per coordinate and every later one is the
identity; strings decode bit-exactly.

The default quantum is the measurement resolution of magnitude-12.2
photometry, ``10 ** (-12.2 / 2.5)``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, DatasetKind
from .errors import FormatError
from .metrics import _ALPHABET_CODES, _coordinate_bound, _first_unbounded
from .tree import ClusterTree, tree_from_bytes, tree_to_bytes

__all__ = ["DEFAULT_QUANTUM", "Quantizer", "compress_tree", "decompress"]

DEFAULT_QUANTUM = 10.0 ** (-12.2 / 2.5)
_MAX_QUANTUM = 2.0 ** 960  # times any int64 grid index, still finite

ARC_MAGIC = b"CHESSARC"
ARC_VERSION = 2
#: version, quantum, dimension; the deflated tree stream follows
_ARC_HEADER = struct.Struct("<BdQ")
#: kind flag, first leaf, leaf count, bytes per value
_BLOCK_HEADER = struct.Struct("<BQQB")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

#: block kind flags
_KINDS = {0: DatasetKind.DENSE_VECTORS, 2: DatasetKind.ALIGNED_STRINGS}
_FLAGS = {kind: flag for flag, kind in _KINDS.items()}

#: values per batch of the encoder, a run of whole leaves and one block.
#: This bounds the codec's scratch memory: the 64 KiB temporaries of a
#: 2**13-value batch come from the heap and are reused batch after batch,
#: where 2**16 values (512 KiB each) would be mapped fresh by allocators
#: that map large blocks, at one page fault per 4 KiB touched.
_BATCH_VALUES = 1 << 13


@dataclass(frozen=True)
class Quantizer:
    quantum: float = DEFAULT_QUANTUM

    def __post_init__(self) -> None:
        if not 0 < self.quantum < _MAX_QUANTUM:
            raise ValueError(f"quantum must be positive and below 2**960, "
                             f"got {self.quantum}")


def quantize(values: np.ndarray, quantum: float) -> np.ndarray:
    """Nearest grid index of every value, rounding halves away from zero;
    ``index * quantum`` is the value on the grid. An index of 2**62 or
    more in magnitude (above about 6e13 at the default quantum) is a
    ValueError, so that the difference of two indices fits in int64, and
    so is a grid value beyond the coordinate bound of a dataset whose
    points are the rows of ``values``, which its archive could not
    restore."""
    Quantizer(quantum)  # checks the quantum
    if not np.isfinite(values).all():
        raise ValueError("cannot quantize non-finite values")
    grid = np.floor(np.abs(values) / quantum + 0.5)
    top = float(grid.max()) if grid.size else 0.0
    bound = _coordinate_bound(values.shape[-1])
    if top >= 2.0 ** 62 or top * quantum > bound:
        worst = float(np.abs(values).max())
        why = ("its grid index reaches 2**62" if top >= 2.0 ** 62
               else f"its grid value is beyond the coordinate bound +-{bound:.6g}")
        raise ValueError(f"cannot quantize magnitude {worst:.6g} at quantum "
                         f"{quantum!r}: {why}")
    return (np.sign(values) * grid).astype(np.int64)


def _zigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).view(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    return (v >> np.uint64(1)).astype(np.int64) ^ -(v & np.uint64(1)).astype(np.int64)


def _deflate(body: bytes, level: int) -> bytes:
    return zlib.compress(body, level, wbits=-15)


def _inflate(body: bytes, at: int) -> bytes:
    """The inflated ``body``, whose deflate data starts at byte ``at``."""
    try:
        return zlib.decompress(body, wbits=-15)
    except zlib.error as exc:
        raise FormatError(f"corrupt deflate stream at byte offset {at}: {exc}") from None


def _frame(payload: bytes) -> bytes:
    return _U64.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload))


def _unframe(raw: bytes, pos: int, what: str, header: struct.Struct):
    """The payload of the frame at ``pos``, a ``header`` or longer, and the end."""
    if len(raw) - pos < _U64.size:
        raise FormatError(f"truncated {what} length at byte offset {pos}")
    (length,) = _U64.unpack_from(raw, pos)
    pos += _U64.size
    if len(raw) - pos < length + _U32.size:
        raise FormatError(f"truncated {what} at byte offset {pos}")
    if length < header.size:
        raise FormatError(f"{what} shorter than its header at byte offset {pos}")
    payload = raw[pos:pos + length]
    if zlib.crc32(payload) != _U32.unpack_from(raw, pos + length)[0]:
        raise FormatError(f"{what} checksum mismatch at byte offset {pos}")
    return payload, pos + length + _U32.size


def encode_leaf(kind: DatasetKind, first: int, leaves: int, rows: np.ndarray) -> bytes:
    """The block of ``leaves`` leaves from pre-order leaf ``first`` on,
    whose int64 delta rows are ``rows``: kind flag, first leaf, leaf count
    and value width, then the zigzag values as little-endian byte planes
    of that width, deflated."""
    values = _zigzag(rows.ravel())
    width = max(1, (int(values.max()).bit_length() + 7) // 8)
    planes = values.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :width].T
    return _frame(_BLOCK_HEADER.pack(_FLAGS[kind], first, leaves, width)
                  + _deflate(planes.tobytes(), 6))


def decode_leaf(raw: bytes, pos: int, kind: DatasetKind, offsets: np.ndarray,
                leaf: int, dim: int) -> tuple[int, np.ndarray, int]:
    """The leaf count of the block at ``pos``, its delta rows and the offset
    after the block, which must be of ``kind`` and start at pre-order leaf
    ``leaf`` of the leaves whose slices end at ``offsets``."""
    payload, end = _unframe(raw, pos, "block", _BLOCK_HEADER)
    flag, first, count, width = _BLOCK_HEADER.unpack_from(payload)
    block_kind, at, leaves = _KINDS.get(flag), pos + _U64.size, offsets.size - 1
    if block_kind is None:
        raise FormatError(f"unknown block kind {flag} at byte offset {at}")
    if block_kind is not kind:
        raise FormatError(f"{block_kind.value} block in a {kind.value} "
                          f"archive at byte offset {at}")
    if first != leaf or not 0 < count <= leaves - leaf:
        raise FormatError(f"the block at byte offset {pos} holds {count} "
                          f"leaves from leaf {first}, where leaf {leaf} of "
                          f"{leaves} is next")
    if not 1 <= width <= 8:
        raise FormatError(f"value width {width} out of range at byte offset "
                          f"{at + _BLOCK_HEADER.size - 1}")
    body = _inflate(payload[_BLOCK_HEADER.size:], at + _BLOCK_HEADER.size)
    rows = int(offsets[leaf + count] - offsets[leaf]) + count
    if len(body) != rows * dim * width:
        if len(body) % (rows * width) == 0:  # whole rows of another dimension
            raise FormatError(f"dimension {dim} does not fit the block at byte "
                              f"offset {pos}")
        raise FormatError(f"block body of {len(body)} bytes is not {rows * dim} "
                          f"values of {width} bytes at byte offset {pos}")
    values = np.zeros((rows * dim, 8), dtype=np.uint8)
    values[:, :width] = np.frombuffer(body, np.uint8).reshape(width, -1).T
    return count, _unzigzag(values.view("<u8")).reshape(rows, dim), end


def _batches(offsets: np.ndarray, dim: int) -> list[tuple[int, int]]:
    """Runs ``[a, b)`` of consecutive leaves holding about ``_BATCH_VALUES``
    values each, given the leaf slice offsets; a leaf larger than that is
    a run of its own."""
    bounds = [0]
    while bounds[-1] < offsets.size - 1:
        a = bounds[-1]
        b = np.searchsorted(offsets, offsets[a] + _BATCH_VALUES // dim, side="right") - 1
        bounds.append(max(a + 1, int(b)))
    return list(zip(bounds[:-1], bounds[1:]))


def _runs(offsets: np.ndarray, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each leaf's center row is among the rows of leaves ``[a, b)``
    (before its members' rows), and how many rows in turn are differenced
    from the center before leaf ``a``, then from each leaf's center."""
    heads = offsets[a:b] - offsets[a] + np.arange(b - a)
    return heads, np.diff(heads, prepend=-1, append=offsets[b] - offsets[a] + b - a - 1)


def _leaf_blocks(tree: ClusterTree, dataset: Dataset, quantum: float):
    """The archive's blocks, each batch of leaves coded in one pass."""
    leaves, offsets = tree.leaf_offsets()
    dim, kind = dataset.dim, dataset.kind
    center = np.zeros((1, dim), dtype=np.int64)  # the previous leaf's
    for a, b in _batches(offsets, dim):
        heads, reps = _runs(offsets, a, b)
        points = np.insert(tree.order[offsets[a]:offsets[b]], heads - np.arange(b - a),
                           tree.center[leaves[a:b]])
        values = dataset.values[points]
        grid = (quantize(values, quantum) if kind is DatasetKind.DENSE_VECTORS
                else values.astype(np.int64))
        centers = np.concatenate((center, grid[heads]))
        rows = grid - np.repeat(centers, reps, axis=0)
        center = centers[-1:]
        yield encode_leaf(kind, a, b - a, rows)


def _leaf_members(raw: bytes, pos: int, tree: ClusterTree, kind: DatasetKind,
                  dim: int, quantum: float) -> tuple[np.ndarray, int]:
    """Every point, in original order, from the blocks at ``pos``; and their end."""
    leaves, offsets = tree.leaf_offsets()
    dense = kind is DatasetKind.DENSE_VECTORS
    # no int64 grid index times a quantum below the coordinate bound over
    # 2**63 (about 5e134 / sqrt(dim)) leaves the bound: only a larger
    # quantum needs the decoded values checked
    check_bound = dense and quantum * 2.0 ** 63 > _coordinate_bound(dim)
    out, a = None, 0
    while a < leaves.size:
        start = pos
        count, rows, pos = decode_leaf(raw, pos, kind, offsets, a, dim)
        b, block = a + count, f"the block at byte offset {start}"
        cards = np.diff(offsets[a:b + 1])
        if out is None:
            # sized only now: the block's length check refuses a forged dim
            out = np.empty((tree.order.size, dim), dtype=np.float64 if dense else np.uint8)
            center = np.zeros((1, dim), dtype=np.int64)  # the previous leaf's
        heads, reps = _runs(offsets, a, b)
        centers = np.cumsum(np.concatenate((center, rows[heads])), axis=0)
        refs = np.repeat(centers, reps, axis=0)
        total = rows + refs
        # a wrapped sum differs in sign from both addends; the running sum of
        # centers first wraps in the center row that makes it wrap
        if ((total ^ rows) & (total ^ refs)).min() < 0:
            raise FormatError(f"decoded grid index leaves the int64 range in {block}")
        center = centers[-1:]
        grid = np.delete(total, heads, axis=0)
        if dense:
            grid = grid * quantum
            bad = _first_unbounded(grid) if check_bound else -1
        else:
            codes = np.flatnonzero(~np.isin(grid, _ALPHABET_CODES))
            bad = int(codes[0]) if codes.size else -1
        if bad >= 0:
            leaf = int(np.searchsorted(np.cumsum(cards), bad // dim, side="right"))
            what = (f"value {grid.flat[bad]} is beyond +-{_coordinate_bound(dim):.6g}"
                    if dense else f"code {grid.flat[bad]} is not in A, C, G, T, -")
            raise FormatError(f"decoded {what} in leaf {a + leaf} of {block}")
        out[tree.order[offsets[a]:offsets[b]]] = grid
        a = b
    return out, pos


def compress_tree(tree: ClusterTree, dataset: Dataset, quantizer: Quantizer,
                  path, threads: int = 1) -> None:
    """Write an archive of the dataset in ``tree``'s leaf order. ``threads``
    is ignored: encoding runs Python code that holds the interpreter lock."""
    if tree.dataset_hash != dataset.content_hash():
        raise ValueError("tree was not built over this dataset")
    header = _ARC_HEADER.pack(ARC_VERSION, quantizer.quantum, dataset.dim)
    # level 6 shrinks a tree stream under 5% more than level 1, at 5x the time
    chunks = [ARC_MAGIC, _frame(header + _deflate(tree_to_bytes(tree), 1))]
    chunks.extend(_leaf_blocks(tree, dataset, quantizer.quantum))
    Path(path).write_bytes(b"".join(chunks))


def decompress(path) -> Dataset:
    """Rebuild the dataset from an archive, in original point order."""
    raw = Path(path).read_bytes()
    if raw[:len(ARC_MAGIC)] != ARC_MAGIC:
        raise FormatError("bad archive magic at byte offset 0")
    header, pos = _unframe(raw, len(ARC_MAGIC), "archive header", _ARC_HEADER)
    version, quantum, dim = _ARC_HEADER.unpack_from(header)
    at = len(ARC_MAGIC) + _U64.size  # the version's offset
    if version != ARC_VERSION:
        raise FormatError(f"unsupported archive version {version} at byte offset {at}")
    if dim == 0:
        raise FormatError(f"dimension {dim} out of range at byte offset {at + 9}")
    stream = _inflate(header[_ARC_HEADER.size:], at + _ARC_HEADER.size)
    try:
        tree, end = tree_from_bytes(stream)
    except FormatError as exc:
        raise FormatError(f"{exc} of the header's tree stream, inflated from "
                          f"byte offset {at + _ARC_HEADER.size}") from None
    if end != len(stream):
        raise FormatError(f"trailing bytes in the tree stream at byte offset "
                          f"{at + _ARC_HEADER.size}")
    dense = tree.metric.for_vectors
    if dense and not 0 < quantum < _MAX_QUANTUM:
        raise FormatError(f"quantum {quantum} is out of range at byte offset {at + 1}")
    kind = DatasetKind.DENSE_VECTORS if dense else DatasetKind.ALIGNED_STRINGS
    out, pos = _leaf_members(raw, pos, tree, kind, dim, quantum)
    if pos != len(raw):
        raise FormatError(f"trailing bytes at byte offset {pos}")
    return Dataset(kind, out)
