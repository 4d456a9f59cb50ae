"""Quantized delta compression of leaf clusters.

Every leaf stores its members as differences from the leaf center on an
integer grid: a dense value's grid index is its nearest multiple of the
quantum, a string character's is its byte code. One pass serves both
kinds. It runs on a batch of consecutive leaves at a time, about
``2 ** 13`` values (a larger leaf is a batch of its own): grid indices
of the batch's slice of the tree's ``order``, differences from the
leaf centers' indices, zigzag, LEB128 varints, then a cut of the bytes
at leaf boundaries. Each leaf's body goes through :func:`encode_leaf`
on its own, which deflates it (RFC 1951) and frames the block: length
prefix, kind flag, center, member count, body, CRC32. Batching
therefore changes how the bytes are computed, not what they are.

Decoding checks each block's framing against the tree's leaf in
:func:`decode_leaf`, inflates the bodies and reverses the pass; the
kind chooses only how grid indices turn back into values. Dense values
land on the quantization grid, so a first roundtrip is lossy by at most
half a quantum per coordinate and every later one is the identity.
Strings decode bit-exactly; a code outside ``A C G T -`` is a
:class:`FormatError`.

An archive is the tree's CHESSTREE stream, the quantum and the leaf
centers verbatim under one CRC32, then one delta block per leaf in
pre-order. Every byte is covered by a checksum. Block kind flag 0 is
dense, 2 is strings; flag 1, the retired per-member edit-list string
codec, is refused as an unknown kind.

The default quantum is the measurement resolution of magnitude-12.2
photometry, ``10 ** (-12.2 / 2.5)``.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (VEC_MAGIC, VEC_VERSION, Dataset, DatasetKind, _dense_bytes,
                   _VEC_HEADER)
from .errors import FormatError
from .metrics import _ALPHABET_CODES
from .tree import ClusterTree, tree_from_bytes, tree_to_bytes

__all__ = [
    "DEFAULT_QUANTUM",
    "Quantizer",
    "compress_tree",
    "decompress",
]

DEFAULT_QUANTUM = 10.0 ** (-12.2 / 2.5)

_BLOCK_HEADER = struct.Struct("<BQQ")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_STR_SECTION = struct.Struct("<QQ")

#: block kind flags
_KINDS = {0: DatasetKind.DENSE_VECTORS, 2: DatasetKind.ALIGNED_STRINGS}
_FLAGS = {kind: flag for flag, kind in _KINDS.items()}

#: values per batch of the codec; a batch is a run of whole leaves.
#: This bounds the codec's scratch memory: the 64 KiB temporaries of a
#: 2**13-value batch come from the heap and are reused batch after batch,
#: where 2**16 values (512 KiB each) would be mapped fresh by allocators
#: that map large blocks, at one page fault per 4 KiB touched.
_BATCH_VALUES = 1 << 13


@dataclass(frozen=True)
class Quantizer:
    quantum: float = DEFAULT_QUANTUM

    def __post_init__(self) -> None:
        if not (self.quantum > 0 and math.isfinite(self.quantum)):
            raise ValueError(f"quantum must be positive and finite, "
                             f"got {self.quantum}")


def quantize(values: np.ndarray, quantum: float) -> np.ndarray:
    """Nearest grid index of every value, rounding halves away from zero;
    ``index * quantum`` is the value on the grid. An index beyond the
    int64 range (a magnitude above about 1.2e14 at the default quantum)
    is a ValueError."""
    if not (quantum > 0 and math.isfinite(quantum)):
        raise ValueError(f"quantum must be positive and finite, got {quantum}")
    if not np.isfinite(values).all():
        raise ValueError("cannot quantize non-finite values")
    grid = np.floor(np.abs(values) / quantum + 0.5)
    if grid.size and grid.max() >= 2.0 ** 63:
        worst = float(np.abs(values).max())
        raise ValueError(f"cannot quantize magnitude {worst:.6g} at quantum "
                         f"{quantum!r}: its grid index exceeds the int64 range")
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


def _decode_varints(buf: np.ndarray, ends: np.ndarray,
                    counts: np.ndarray) -> np.ndarray:
    """Values of consecutive bodies of LEB128 varints.

    Body ``j`` is ``buf[ends[j - 1]:ends[j]]`` and must hold exactly
    ``counts[j]`` varints of at most 64 bits. Errors name the offset in
    the first faulty body at which a byte-by-byte reader would stop.
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
        raise _body_fault(buf[begin:ends[j]].tobytes(), int(counts[j]))
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


def _deflate(body: bytes) -> bytes:
    enc = zlib.compressobj(level=6, wbits=-15)
    return enc.compress(body) + enc.flush()


def _inflate(body: bytes) -> bytes:
    try:
        return zlib.decompress(body, wbits=-15)
    except zlib.error as exc:
        raise FormatError(f"corrupt deflate stream: {exc}") from None


def encode_leaf(kind: DatasetKind, center: int, member_count: int,
                body: bytes) -> bytes:
    """One leaf's block: the kind flag, center and member count, then the
    deflated delta body, all length-prefixed and closed by a CRC32."""
    payload = _BLOCK_HEADER.pack(_FLAGS[kind], int(center),
                                 int(member_count)) + _deflate(body)
    return _U64.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload))


def decode_leaf(raw: bytes, pos: int, kind: DatasetKind, leaf: int, center: int,
                member_count: int) -> tuple[bytes, int]:
    """The inflated delta body of the block at ``pos`` and the offset after
    it. The block must be of the archive's ``kind`` and hold pre-order
    leaf ``leaf`` of the tree, with its center and member count; any
    fault is a :class:`FormatError`."""
    if len(raw) - pos < _U64.size:
        raise FormatError(f"truncated block length at byte offset {pos}")
    (length,) = _U64.unpack_from(raw, pos)
    pos += _U64.size
    if len(raw) - pos < length + _U32.size:
        raise FormatError(f"truncated block at byte offset {pos}")
    if length < _BLOCK_HEADER.size:
        raise FormatError(f"block shorter than its header at byte offset {pos}")
    payload = raw[pos:pos + length]
    (crc,) = _U32.unpack_from(raw, pos + length)
    if zlib.crc32(payload) != crc:
        raise FormatError(f"block checksum mismatch at byte offset {pos}")
    flag, block_center, block_count = _BLOCK_HEADER.unpack_from(payload, 0)
    block_kind = _KINDS.get(flag)
    if block_kind is None:
        raise FormatError(f"unknown block kind {flag} at byte offset {pos}")
    if block_kind is not kind:
        raise FormatError(f"{block_kind.value} block in a {kind.value} "
                          f"archive at byte offset {pos}")
    if block_center != center or block_count != member_count:
        raise FormatError(f"block {leaf} does not match leaf {leaf} of the tree")
    return _inflate(payload[_BLOCK_HEADER.size:]), pos + length + _U32.size


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


def _grid(values: np.ndarray, kind: DatasetKind, quantum: float) -> np.ndarray:
    """Integer grid indices of rows: dense values quantized, string codes
    as they are."""
    if kind is DatasetKind.DENSE_VECTORS:
        return quantize(values, quantum)
    return values.astype(np.int64)


def _leaf_blocks(tree: ClusterTree, dataset: Dataset, quantum: float):
    """The leaves' blocks, each batch of leaves gridded, differenced and
    varint coded in one pass."""
    leaves, offsets = tree.leaf_offsets()
    centers, dim, kind = tree.center[leaves], dataset.dim, dataset.kind
    for a, b in _batches(offsets, dim):
        counts = np.diff(offsets[a:b + 1])
        deltas = _grid(dataset.values[tree.order[offsets[a]:offsets[b]]], kind, quantum)
        deltas -= np.repeat(_grid(dataset.values[centers[a:b]], kind, quantum),
                            counts, axis=0)
        buf, ends = _encode_varints(_zigzag(deltas.ravel()))
        cuts = [0, *ends[np.cumsum(counts) * dim - 1].tolist()]
        raw = buf.tobytes()
        for i in range(b - a):
            yield encode_leaf(kind, centers[a + i], counts[i], raw[cuts[i]:cuts[i + 1]])


def _leaf_members(raw: bytes, pos: int, tree: ClusterTree, kind: DatasetKind,
                  centers: np.ndarray, quantum: float) -> tuple[np.ndarray, int]:
    """Members of every leaf in original point order, from the blocks at
    ``pos``, each batch of leaves varint decoded in one pass; and the
    offset after the last block. A decoded string code outside the
    alphabet is a :class:`FormatError` naming its block's offset."""
    leaves, offsets = tree.leaf_offsets()
    center_index, dim = tree.center[leaves].tolist(), centers.shape[1]
    out = np.empty((tree.order.size, dim), dtype=centers.dtype)
    for a, b in _batches(offsets, dim):
        counts = np.diff(offsets[a:b + 1])
        starts, bodies = [], []
        for i in range(b - a):
            starts.append(pos)
            body, pos = decode_leaf(raw, pos, kind, a + i, center_index[a + i],
                                    int(counts[i]))
            bodies.append(body)
        grid = _unzigzag(_decode_varints(
            np.frombuffer(b"".join(bodies), dtype=np.uint8),
            np.cumsum([len(body) for body in bodies]), counts * dim))
        grid = grid.reshape(-1, dim)
        grid += np.repeat(_grid(centers[a:b], kind, quantum), counts, axis=0)
        if kind is DatasetKind.DENSE_VECTORS:
            out[tree.order[offsets[a]:offsets[b]]] = grid * quantum
            continue
        bad = np.flatnonzero(~np.isin(grid, _ALPHABET_CODES))
        if bad.size:
            leaf = int(np.searchsorted(np.cumsum(counts) * dim, bad[0], side="right"))
            raise FormatError(f"decoded code {grid.flat[bad[0]]} is not in A, C, "
                              f"G, T, - in the block at byte offset {starts[leaf]}")
        out[tree.order[offsets[a]:offsets[b]]] = grid
    return out, pos


def compress_tree(tree: ClusterTree, dataset: Dataset, quantizer: Quantizer,
                  path, threads: int = 1) -> None:
    """Write an archive: the tree, the quantum and the leaf centers
    verbatim under one CRC32, then one delta block per leaf in pre-order.

    ``threads`` is accepted for existing callers and ignored: encoding
    runs Python code that holds the interpreter lock.
    """
    if tree.dataset_hash != dataset.content_hash():
        raise ValueError("tree was not built over this dataset")
    leaves, _ = tree.leaf_offsets()
    center_rows = dataset.values[tree.center[leaves]]
    if dataset.kind is DatasetKind.DENSE_VECTORS:
        center_section = _dense_bytes(center_rows)
    else:
        center_section = _STR_SECTION.pack(*center_rows.shape) + center_rows.tobytes()
    section = _F64.pack(quantizer.quantum) + center_section
    chunks = [tree_to_bytes(tree), section, _U32.pack(zlib.crc32(section))]
    chunks.extend(_leaf_blocks(tree, dataset, quantizer.quantum))
    Path(path).write_bytes(b"".join(chunks))


def decompress(path) -> Dataset:
    """Rebuild the dataset from an archive, in original point order."""
    raw = Path(path).read_bytes()
    tree, start = tree_from_bytes(raw)
    dense = tree.metric.for_vectors
    kind = DatasetKind.DENSE_VECTORS if dense else DatasetKind.ALIGNED_STRINGS
    header, dtype = ((_VEC_HEADER, np.dtype("<f8")) if dense
                     else (_STR_SECTION, np.dtype(np.uint8)))
    pos = start + _F64.size + header.size
    if len(raw) < pos:
        raise FormatError(f"truncated centers header at byte offset {len(raw)}")
    (quantum,) = _F64.unpack_from(raw, start)
    *tag, count, dim = header.unpack_from(raw, start + _F64.size)
    if tag not in ([], [VEC_MAGIC, VEC_VERSION]):
        raise FormatError(f"bad centers section at byte offset {start}")
    end = pos + count * dim * dtype.itemsize
    if len(raw) < end + _U32.size:
        raise FormatError(f"truncated centers section at byte offset {len(raw)}")
    if zlib.crc32(memoryview(raw)[start:end]) != _U32.unpack_from(raw, end)[0]:
        raise FormatError(f"centers section checksum mismatch at byte offset {end}")
    leaves, _ = tree.leaf_offsets()
    if count != leaves.size:
        raise FormatError(f"centers section holds {count} rows for "
                          f"{leaves.size} leaves")
    centers = np.frombuffer(raw, dtype=dtype, count=count * dim,
                            offset=pos).reshape(count, dim)
    if dense:
        if not (quantum > 0 and math.isfinite(quantum)):
            raise FormatError(f"quantum {quantum} is not positive and finite "
                              f"at byte offset {start}")
        # a center must quantize (see ``quantize``); the negated test
        # also catches NaN
        bad = np.flatnonzero(~(np.abs(centers) / quantum < 2.0 ** 63))
        if bad.size:
            what = "non-finite" if not np.isfinite(centers.flat[bad[0]]) \
                else "out-of-range"
            raise FormatError(f"{what} center coordinate at byte offset "
                              f"{pos + int(bad[0]) * dtype.itemsize}")
    out, pos = _leaf_members(raw, end + _U32.size, tree, kind, centers, quantum)
    if pos != len(raw):
        raise FormatError(f"trailing bytes at offset {pos}")
    return Dataset(kind, out)
