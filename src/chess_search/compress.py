"""Quantized delta compression of leaf clusters.

Every leaf stores its members as differences from the leaf center:
dense vectors as per-coordinate integer deltas on a fixed quantization
grid (zigzag + LEB128 varint coded), strings as (position, character)
edit lists whose length is bounded by the leaf radius. Dense decoding
lands every value on the quantization grid, so a first roundtrip is
lossy by at most half a quantum per coordinate and every subsequent
roundtrip is the identity.

The dense codec runs on a batch of consecutive leaves at a time, about
``2 ** 13`` values (a larger leaf is a batch of its own): one quantize,
difference, zigzag and varint pass over the batch's slice of the tree's
``order``, whose bytes are then cut at leaf boundaries; decoding
reverses the pass over a batch's inflated bodies and writes the batch's
rows in one assignment. String members are coded one at a time. Either
way each leaf's body is deflated (RFC 1951) on its own and framed as a
block with its center, member count and a CRC32 (:func:`encode_leaf`,
:func:`decode_leaf`), so batching changes how the bytes are computed,
not what they are.

An archive is the tree's CHESSTREE stream, the quantum and the leaf
centers verbatim under one CRC32, then one delta block per leaf in
pre-order. Every byte is covered by a checksum.

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

from .data import VEC_MAGIC, VEC_VERSION, Dataset, DatasetKind, _VEC_HEADER
from .errors import ChessError, FormatError
from .tree import ClusterTree, tree_from_bytes, tree_to_bytes

__all__ = [
    "DEFAULT_QUANTUM",
    "Quantizer",
    "quantize",
    "LeafDeltaBlock",
    "encode_leaf",
    "decode_leaf",
    "compress_tree",
    "decompress",
]

DEFAULT_QUANTUM = 10.0 ** (-12.2 / 2.5)

_BLOCK_HEADER = struct.Struct("<BQQ")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_STR_SECTION = struct.Struct("<QQ")

_KIND_DENSE = 0
_KIND_STRINGS = 1
_KINDS = {_KIND_DENSE: DatasetKind.DENSE_VECTORS,
          _KIND_STRINGS: DatasetKind.ALIGNED_STRINGS}

#: values per batch of the dense codec; a batch is a run of whole leaves.
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
        raise _body_fault(buf[begin:ends[j]], int(counts[j]))
    # one pass per byte position: add the next 7 bits of every varint
    # that has them
    values = (buf[starts] & 0x7F).astype(np.uint64)
    for k in range(1, int(lengths.max(initial=0))):
        more = np.flatnonzero(lengths > k)
        values[more] |= ((buf[starts[more] + k] & 0x7F).astype(np.uint64)
                         << np.uint64(7 * k))
    return values


def _body_fault(body: np.ndarray, count: int) -> FormatError:
    """The error a byte-by-byte reader of ``count`` varints meets first in
    a faulty body."""
    stops = np.flatnonzero(body < 0x80)
    starts = np.concatenate(([0], stops + 1))
    read = min(count, stops.size)
    lengths = stops[:read] - starts[:read] + 1
    too_long = np.flatnonzero((lengths > _MAX_VARINT)
                              | ((lengths == _MAX_VARINT) & (body[stops[:read]] > 1)))
    if too_long.size:
        return _too_long(int(starts[too_long[0]]))
    if read < count:
        if body.size - starts[read] >= _MAX_VARINT:
            return _too_long(int(starts[read]))
        return FormatError(f"truncated varint at byte offset {body.size}")
    return FormatError(f"trailing bytes in block body at offset {starts[count]}")


def _too_long(offset: int) -> FormatError:
    return FormatError(f"varint longer than 64 bits at byte offset {offset}")


def _write_varint(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


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
    raise _too_long(start)


@dataclass
class LeafDeltaBlock:
    """Compressed members of one leaf, decodable given the center point."""

    kind: DatasetKind
    center_index: int
    member_count: int
    compressed_body: bytes  # raw deflate stream

    def to_bytes(self) -> bytes:
        kind_flag = _KIND_DENSE if self.kind is DatasetKind.DENSE_VECTORS \
            else _KIND_STRINGS
        payload = _BLOCK_HEADER.pack(kind_flag, self.center_index,
                                     self.member_count) + self.compressed_body
        return _U64.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload))

    @classmethod
    def from_bytes(cls, raw: bytes, pos: int,
                   kind: DatasetKind) -> tuple["LeafDeltaBlock", int]:
        """The block at ``pos`` and the offset after it; a block of another
        kind than the archive's ``kind`` is a :class:`FormatError`."""
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
        kind_flag, center_index, member_count = _BLOCK_HEADER.unpack_from(payload, 0)
        block_kind = _KINDS.get(kind_flag)
        if block_kind is None:
            raise FormatError(f"unknown block kind {kind_flag} at byte offset {pos}")
        if block_kind is not kind:
            raise FormatError(f"{block_kind.value} block in a {kind.value} "
                              f"archive at byte offset {pos}")
        block = cls(kind=block_kind, center_index=center_index,
                    member_count=member_count,
                    compressed_body=payload[_BLOCK_HEADER.size:])
        return block, pos + length + _U32.size


def _deflate(body: bytes) -> bytes:
    enc = zlib.compressobj(level=6, wbits=-15)
    return enc.compress(body) + enc.flush()


def _inflate(body: bytes) -> bytes:
    try:
        return zlib.decompress(body, wbits=-15)
    except zlib.error as exc:
        raise FormatError(f"corrupt deflate stream: {exc}") from None


def encode_leaf(kind: DatasetKind, center: int, member_count: int,
                body: bytes) -> LeafDeltaBlock:
    """Deflate one leaf's delta body into its block."""
    return LeafDeltaBlock(kind=kind, center_index=int(center),
                          member_count=int(member_count),
                          compressed_body=_deflate(body))


def decode_leaf(block: LeafDeltaBlock, leaf: int, center: int,
                member_count: int) -> bytes:
    """Check that a block holds pre-order leaf ``leaf`` of the tree, with
    its center and member count, and return the inflated delta body."""
    if block.center_index != center or block.member_count != member_count:
        raise FormatError(f"block {leaf} does not match leaf {leaf} of the tree")
    return _inflate(block.compressed_body)


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


def _strings_body(dataset: Dataset, center: int, members: np.ndarray,
                  radius: float) -> bytes:
    """Edit lists of a leaf's string members against its center, which the
    leaf radius bounds when the tree's distance is Hamming."""
    center_row = dataset.values[center]
    parts = []
    for idx in members.tolist():
        row = dataset.values[idx]
        positions = np.flatnonzero(row != center_row)
        if positions.size > radius:
            raise ChessError(
                f"leaf invariant violated: {positions.size} edits for point "
                f"{idx} exceed leaf radius {radius}")
        parts.append(_write_varint(positions.size))
        for p in positions.tolist():
            parts.append(_U32.pack(p))
            parts.append(row[p].tobytes())
    return b"".join(parts)


def _decode_strings(body: bytes, center_row: np.ndarray, count: int) -> np.ndarray:
    out = np.tile(center_row, (count, 1))
    pos = 0
    for i in range(count):
        edits, pos = _read_varint(body, pos)
        for _ in range(edits):
            if len(body) - pos < _U32.size + 1:
                raise FormatError(f"truncated edit at byte offset {pos}")
            (position,) = _U32.unpack_from(body, pos)
            try:
                out[i, position] = body[pos + _U32.size]
            except IndexError:
                raise FormatError(f"edit position {position} out of range at "
                                  f"byte offset {pos}") from None
            pos += _U32.size + 1
    if pos != len(body):
        raise FormatError(f"trailing bytes in block body at offset {pos}")
    return out


def _dense_blocks(tree: ClusterTree, dataset: Dataset, quantum: float):
    """The leaves' blocks, each batch of leaves quantized, differenced and
    varint coded in one pass."""
    leaves, offsets = tree.leaf_offsets()
    centers, dim = tree.center[leaves], dataset.dim
    for a, b in _batches(offsets, dim):
        counts = np.diff(offsets[a:b + 1])
        deltas = quantize(dataset.values[tree.order[offsets[a]:offsets[b]]], quantum)
        deltas -= np.repeat(quantize(dataset.values[centers[a:b]], quantum),
                            counts, axis=0)
        buf, ends = _encode_varints(_zigzag(deltas.ravel()))
        cuts = [0, *ends[np.cumsum(counts) * dim - 1].tolist()]
        raw = buf.tobytes()
        for i in range(b - a):
            yield encode_leaf(dataset.kind, centers[a + i], counts[i],
                              raw[cuts[i]:cuts[i + 1]])


def _dense_members(raw: bytes, pos: int, tree: ClusterTree, centers: np.ndarray,
                   quantum: float) -> tuple[np.ndarray, int]:
    """Members of every leaf in original point order, from the blocks at
    ``pos``, each batch of leaves varint decoded in one pass; and the
    offset after the last block."""
    leaves, offsets = tree.leaf_offsets()
    center_index, dim = tree.center[leaves].tolist(), centers.shape[1]
    out = np.empty((tree.order.size, dim))
    for a, b in _batches(offsets, dim):
        counts = np.diff(offsets[a:b + 1])
        bodies = []
        for i in range(b - a):
            block, pos = LeafDeltaBlock.from_bytes(raw, pos, DatasetKind.DENSE_VECTORS)
            bodies.append(decode_leaf(block, a + i, center_index[a + i], int(counts[i])))
        deltas = _unzigzag(_decode_varints(
            np.frombuffer(b"".join(bodies), dtype=np.uint8),
            np.cumsum([len(body) for body in bodies]), counts * dim))
        deltas = deltas.reshape(-1, dim)
        deltas += np.repeat(quantize(centers[a:b], quantum), counts, axis=0)
        out[tree.order[offsets[a]:offsets[b]]] = deltas * quantum
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
    centers = tree.center[leaves]
    center_rows = dataset.values[centers]
    if dataset.kind is DatasetKind.DENSE_VECTORS:
        header = _VEC_HEADER.pack(VEC_MAGIC, VEC_VERSION, leaves.size, dataset.dim)
        center_rows = np.ascontiguousarray(center_rows, dtype="<f8")
        blocks = _dense_blocks(tree, dataset, quantizer.quantum)
    else:
        header = _STR_SECTION.pack(leaves.size, dataset.dim)
        _, members = tree.leaf_members()
        blocks = (encode_leaf(dataset.kind, c, m.size, _strings_body(dataset, c, m, r))
                  for c, m, r in zip(centers.tolist(), members,
                                     tree.radius[leaves].tolist()))
    section = _F64.pack(quantizer.quantum) + header + center_rows.tobytes()
    chunks = [tree_to_bytes(tree), section, _U32.pack(zlib.crc32(section))]
    chunks.extend(block.to_bytes() for block in blocks)
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
    leaves, offsets = tree.leaf_offsets()
    if count != leaves.size:
        raise FormatError(f"centers section holds {count} rows for "
                          f"{leaves.size} leaves")
    centers = np.frombuffer(raw, dtype=dtype, count=count * dim,
                            offset=pos).reshape(count, dim)
    blocks = end + _U32.size
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
        out, pos = _dense_members(raw, blocks, tree, centers, quantum)
    else:
        out, pos = np.empty((tree.order.size, dim), dtype=np.uint8), blocks
        for i, c in enumerate(tree.center[leaves].tolist()):
            m = tree.order[offsets[i]:offsets[i + 1]]
            block, pos = LeafDeltaBlock.from_bytes(raw, pos, kind)
            out[m] = _decode_strings(decode_leaf(block, i, c, m.size), centers[i], m.size)
    if pos != len(raw):
        raise FormatError(f"trailing bytes at offset {pos}")
    return Dataset(kind, out)
