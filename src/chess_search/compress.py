"""Quantized delta compression of leaf clusters.

Every leaf stores its center and its members as differences on an
integer grid: a dense value's grid index is its nearest multiple of the
quantum, a string character's is its byte code. A leaf's center row is
differenced from the previous leaf's center (the first from zero), its
members' rows from its center. One pass serves both kinds, on a batch of
consecutive leaves at a time (about ``2 ** 13`` values; a larger leaf is
a batch of its own): grid indices, differences, zigzag, LEB128 varints,
then one block per batch through :func:`encode_leaf`: each leaf's byte
length, so that a fault names its leaf, and the varints, in one deflate
stream (RFC 1951).

An archive is the magic ``CHESSARC``, a header (version, quantum,
dimension, the tree's CHESSTREE stream deflated), then the blocks in
pre-order of their leaves; header and blocks are framed by a length
prefix and a CRC32. Block kind flag 0 is dense, 2 is strings; flag 1,
the retired edit-list string codec, is refused. Decoding takes each
block's run of leaves from the block, checks it against the tree in
:func:`decode_leaf` and reverses the pass. Dense values land on the
grid, so a first roundtrip is lossy by at most half a quantum per
coordinate and every later one is the identity; strings decode
bit-exactly.

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
from .metrics import _ALPHABET_CODES
from .tree import ClusterTree, tree_from_bytes, tree_to_bytes

__all__ = ["DEFAULT_QUANTUM", "Quantizer", "compress_tree", "decompress"]

DEFAULT_QUANTUM = 10.0 ** (-12.2 / 2.5)
_MAX_QUANTUM = 2.0 ** 960  # times any int64 grid index, still finite

ARC_MAGIC = b"CHESSARC"
ARC_VERSION = 1
#: version, quantum, dimension; the deflated tree stream follows
_ARC_HEADER = struct.Struct("<BdQ")
#: kind flag, first leaf, leaf count
_BLOCK_HEADER = struct.Struct("<BQQ")
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
    ValueError, so that the difference of two indices fits in int64."""
    Quantizer(quantum)  # checks the quantum
    if not np.isfinite(values).all():
        raise ValueError("cannot quantize non-finite values")
    grid = np.floor(np.abs(values) / quantum + 0.5)
    if grid.size and grid.max() >= 2.0 ** 62:
        worst = float(np.abs(values).max())
        raise ValueError(f"cannot quantize magnitude {worst:.6g} at quantum "
                         f"{quantum!r}: its grid index reaches 2**62")
    return (np.sign(values) * grid).astype(np.int64)


def _zigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).view(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    return (v >> np.uint64(1)).astype(np.int64) ^ -(v & np.uint64(1)).astype(np.int64)


#: 2**7, 2**14, ..., 2**63: a value takes one byte more than the number
#: of these it is at least
_VARINT_LIMITS = np.uint64(1) << np.arange(7, 64, 7, dtype=np.uint64)
_LOW7 = np.uint64(0x7F)
_FLAG = np.uint64(0x80)
_SEVEN = np.uint64(7)
#: bytes of the longest varint a u64 needs; its last byte is 0 or 1
_MAX_VARINT = 10


def _encode_varints(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128 bytes of unsigned values, and the end offset of each value's
    bytes."""
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.searchsorted(_VARINT_LIMITS, values, side="right") + 1
    ends = np.cumsum(lengths)
    out = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    # one pass per byte position: write the next 7 bits of every value
    # that has any left, each with its continuation flag
    at, rest = ends - lengths, values
    while rest.size:
        out[at] = rest & _LOW7 | _FLAG
        more = rest > _LOW7
        at, rest = at[more] + 1, rest[more] >> _SEVEN
    out[ends - 1] &= 0x7F
    return out, ends


def _decode_varints(buf: np.ndarray, ends: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Values of consecutive bodies of LEB128 varints.

    Body ``j`` is ``buf[ends[j - 1]:ends[j]]`` and must hold exactly
    ``counts[j]`` varints of at most 64 bits. Errors name the offset in
    the first faulty body at which a byte-by-byte reader would stop, and
    carry that body's index ``j`` as their ``body`` attribute.
    """
    stops = np.flatnonzero(buf < 0x80)  # the last byte of every varint
    lengths = np.diff(stops, prepend=-1)
    starts = stops - lengths + 1
    # a sound body ends on a terminator and holds its count of them; a
    # varint that spans two bodies leaves the first one unterminated
    closed = np.concatenate(([True], buf < 0x80))[ends]
    faulty = (np.diff(np.searchsorted(stops, ends), prepend=0) != counts) | ~closed
    long = np.flatnonzero(lengths >= _MAX_VARINT)
    long = long[(lengths[long] > _MAX_VARINT) | (buf[stops[long]] > 1)]
    faulty[np.searchsorted(ends, stops[long], side="right")] = True
    if faulty.any():
        j = int(np.argmax(faulty))
        begin = int(ends[j - 1]) if j else 0
        exc = _body_fault(buf[begin:ends[j]].tobytes(), int(counts[j]))
        exc.body = j
        raise exc
    # one pass per byte position: add the next 7 bits of every varint
    # that has them
    values = (buf[starts] & 0x7F).astype(np.uint64)
    for k in range(1, int(lengths.max(initial=0))):
        more = np.flatnonzero(lengths > k)
        values[more] |= ((buf[starts[more] + k] & 0x7F).astype(np.uint64)
                         << np.uint64(7 * k))
    return values


def _body_fault(body: bytes, count: int) -> FormatError:
    """The error a byte-by-byte reader of ``count`` varints meets first in
    a faulty body."""
    pos = 0
    try:
        for _ in range(count):
            _, pos = _read_varint(body, pos)
    except FormatError as exc:
        return exc
    return FormatError(f"trailing bytes in block body at offset {pos}")


def _read_varint(buf: bytes, start: int) -> tuple[int, int]:
    """The varint at ``start`` and the offset after it."""
    value = 0
    for pos in range(start, start + _MAX_VARINT):
        if pos >= len(buf):
            raise FormatError(f"truncated varint at byte offset {pos}")
        byte = buf[pos]
        value |= (byte & 0x7F) << 7 * (pos - start)
        if byte < 0x80:
            if pos - start == _MAX_VARINT - 1 and byte > 1:
                break
            return value, pos + 1
    raise FormatError(f"varint longer than 64 bits at byte offset {start}")


def _deflate(body: bytes, level: int) -> bytes:
    return zlib.compress(body, level, wbits=-15)


def _inflate(body: bytes) -> bytes:
    try:
        return zlib.decompress(body, wbits=-15)
    except zlib.error as exc:
        raise FormatError(f"corrupt deflate stream: {exc}") from None


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


def encode_leaf(kind: DatasetKind, first: int, lengths: np.ndarray, body: bytes) -> bytes:
    """The block of the leaves from pre-order leaf ``first`` on, whose
    varints take ``lengths`` bytes each of ``body``: kind flag, first leaf
    and leaf count, then the lengths as varints and the body, deflated."""
    table, _ = _encode_varints(lengths)
    return _frame(_BLOCK_HEADER.pack(_FLAGS[kind], first, len(lengths))
                  + _deflate(table.tobytes() + body, 6))


def decode_leaf(raw: bytes, pos: int, kind: DatasetKind, leaf: int,
                leaves: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The byte length of each leaf's varints in the block at ``pos``, the
    varints and the offset after the block, which must be of ``kind`` and
    start at pre-order leaf ``leaf`` of ``leaves``."""
    payload, end = _unframe(raw, pos, "block", _BLOCK_HEADER)
    flag, first, count = _BLOCK_HEADER.unpack_from(payload)
    block_kind, at = _KINDS.get(flag), pos + _U64.size
    if block_kind is None:
        raise FormatError(f"unknown block kind {flag} at byte offset {at}")
    if block_kind is not kind:
        raise FormatError(f"{block_kind.value} block in a {kind.value} "
                          f"archive at byte offset {at}")
    if first != leaf or not 0 < count <= leaves - leaf:
        raise FormatError(f"the block at byte offset {pos} holds {count} "
                          f"leaves from leaf {first}, where leaf {leaf} of "
                          f"{leaves} is next")
    body = _inflate(payload[_BLOCK_HEADER.size:])
    lengths, cut = [0] * count, 0
    try:
        for i in range(count):
            lengths[i], cut = _read_varint(body, cut)
    except FormatError as exc:
        raise FormatError(f"{exc} in the leaf lengths of the block at byte "
                          f"offset {pos}") from None
    if sum(lengths) != len(body) - cut:
        raise FormatError(f"leaf lengths do not fit the block at byte offset {pos}")
    return np.array(lengths, dtype=np.int64), np.frombuffer(body, np.uint8, offset=cut), end


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
        buf, ends = _encode_varints(_zigzag(rows.ravel()))
        leaf_ends = ends[np.append(heads[1:], len(rows)) * dim - 1]
        yield encode_leaf(kind, a, np.diff(leaf_ends, prepend=0), buf.tobytes())


def _leaf_members(raw: bytes, pos: int, tree: ClusterTree, kind: DatasetKind,
                  dim: int, quantum: float) -> tuple[np.ndarray, int]:
    """Every point, in original order, from the blocks at ``pos``; and their end."""
    leaves, offsets = tree.leaf_offsets()
    dense = kind is DatasetKind.DENSE_VECTORS
    out, a = None, 0
    while a < leaves.size:
        start = pos
        lengths, body, pos = decode_leaf(raw, pos, kind, a, leaves.size)
        b, block = a + lengths.size, f"the block at byte offset {start}"
        cards = np.diff(offsets[a:b + 1])
        if out is None:
            # each varint takes a byte: bound a forged dim before it sizes arrays
            if (int(cards.sum()) + b - a) * dim > body.size:
                raise FormatError(f"dimension {dim} does not fit {block}")
            out = np.empty((tree.order.size, dim), dtype=np.float64 if dense else np.uint8)
            center = np.zeros((1, dim), dtype=np.int64)  # the previous leaf's
        try:
            values = _decode_varints(body, np.cumsum(lengths), (cards + 1) * dim)
        except FormatError as exc:
            raise FormatError(f"{exc} in leaf {a + exc.body} of {block}") from None
        rows = _unzigzag(values).reshape(-1, dim)
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
        if not dense:
            bad = np.flatnonzero(~np.isin(grid, _ALPHABET_CODES))
            if bad.size:
                leaf = int(np.searchsorted(np.cumsum(cards), bad[0] // dim, side="right"))
                raise FormatError(f"decoded code {grid.flat[bad[0]]} is not in "
                                  f"A, C, G, T, - in leaf {a + leaf} of {block}")
        out[tree.order[offsets[a]:offsets[b]]] = grid * quantum if dense else grid
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
    stream = _inflate(header[_ARC_HEADER.size:])
    tree, end = tree_from_bytes(stream)
    if end != len(stream):
        raise FormatError(f"trailing bytes in the tree stream at byte offset "
                          f"{at + _ARC_HEADER.size}")
    dense = tree.metric.for_vectors
    if dense and not 0 < quantum < _MAX_QUANTUM:
        raise FormatError(f"quantum {quantum} is out of range at byte offset {at + 1}")
    kind = DatasetKind.DENSE_VECTORS if dense else DatasetKind.ALIGNED_STRINGS
    out, pos = _leaf_members(raw, pos, tree, kind, dim, quantum)
    if pos != len(raw):
        raise FormatError(f"trailing bytes at offset {pos}")
    return Dataset(kind, out)
