"""Quantized delta compression of leaf clusters.

Every leaf stores its members as differences from the leaf center:
dense vectors as per-coordinate integer deltas on a fixed quantization
grid (zigzag + varint coded), strings as (position, character) edit
lists whose length is bounded by the leaf radius. Bodies are
deflate-compressed (RFC 1951) and carried with a CRC32. Dense decoding
lands every value on the quantization grid, so a first roundtrip is
lossy by at most half a quantum per coordinate and every subsequent
roundtrip is the identity.

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


@dataclass(frozen=True)
class Quantizer:
    quantum: float = DEFAULT_QUANTUM

    def __post_init__(self) -> None:
        if not (self.quantum > 0 and math.isfinite(self.quantum)):
            raise ValueError(f"quantum must be positive and finite, "
                             f"got {self.quantum}")


def quantize(values: np.ndarray, quantum: float) -> np.ndarray:
    """Nearest grid index of every value, rounding halves away from zero;
    ``index * quantum`` is the value on the grid."""
    if not (quantum > 0 and math.isfinite(quantum)):
        raise ValueError(f"quantum must be positive and finite, got {quantum}")
    if not np.isfinite(values).all():
        raise ValueError("cannot quantize non-finite values")
    return (np.sign(values) * np.floor(np.abs(values) / quantum + 0.5)).astype(np.int64)


def _zigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).view(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    return (v >> np.uint64(1)).astype(np.int64) ^ -(v & np.uint64(1)).astype(np.int64)


def _encode_varints(values: np.ndarray) -> bytes:
    out = bytearray()
    for v in values.tolist():
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


def _decode_varints(buf: bytes, pos: int, count: int) -> tuple[np.ndarray, int]:
    out = np.empty(count, dtype=np.uint64)
    end = len(buf)
    for i in range(count):
        value = 0
        shift = 0
        while True:
            if pos >= end:
                raise FormatError(f"truncated varint at byte offset {pos}")
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        out[i] = value
    return out, pos


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
    def from_bytes(cls, raw: bytes, pos: int) -> tuple["LeafDeltaBlock", int]:
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
        kind = DatasetKind.DENSE_VECTORS if kind_flag == _KIND_DENSE \
            else DatasetKind.ALIGNED_STRINGS
        block = cls(kind=kind, center_index=center_index,
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


def encode_leaf(center: int, members: np.ndarray, radius: float,
                dataset: Dataset, quantizer: Quantizer) -> LeafDeltaBlock:
    """Encode one leaf's members as differences from the leaf center.

    String members are edit lists, which the leaf radius bounds when the
    tree's distance is Hamming.
    """
    if dataset.kind is DatasetKind.DENSE_VECTORS:
        grid = quantize(dataset.values[members], quantizer.quantum)
        center_grid = quantize(dataset.values[center], quantizer.quantum)
        body = _encode_varints(_zigzag((grid - center_grid).ravel()))
    else:
        center_row = dataset.values[center]
        parts = []
        for idx in members.tolist():
            row = dataset.values[idx]
            positions = np.flatnonzero(row != center_row)
            if positions.size > radius:
                raise ChessError(
                    f"leaf invariant violated: {positions.size} edits for point "
                    f"{idx} exceed leaf radius {radius}")
            parts.append(_encode_varints(np.array([positions.size],
                                                  dtype=np.uint64)))
            for p in positions.tolist():
                parts.append(_U32.pack(p))
                parts.append(row[p].tobytes())
        body = b"".join(parts)
    return LeafDeltaBlock(kind=dataset.kind, center_index=int(center),
                          member_count=int(members.size),
                          compressed_body=_deflate(body))


def decode_leaf(block: LeafDeltaBlock, centers: Dataset,
                quantizer: Quantizer | None = None,
                center_row: int | None = None) -> np.ndarray:
    """Reconstruct the member points of a block.

    ``centers`` is any dataset holding the block's center point, by
    default at ``block.center_index`` (pass ``center_row`` when the
    centers live in a side table, as in archives). Dense members land on
    the quantization grid; strings decode exactly.
    """
    row = centers.values[block.center_index if center_row is None else center_row]
    body = _inflate(block.compressed_body)
    if block.kind is DatasetKind.DENSE_VECTORS:
        if quantizer is None:
            raise ValueError("dense blocks need the quantizer used to encode")
        dim = row.size
        raw, pos = _decode_varints(body, 0, block.member_count * dim)
        if pos != len(body):
            raise FormatError(f"trailing bytes in block body at offset {pos}")
        deltas = _unzigzag(raw).reshape(block.member_count, dim)
        center_grid = quantize(row, quantizer.quantum)
        return (center_grid + deltas) * quantizer.quantum
    out = np.tile(row, (block.member_count, 1))
    pos = 0
    for i in range(block.member_count):
        (count,), pos = _decode_varints(body, pos, 1)
        for _ in range(int(count)):
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


def compress_tree(tree: ClusterTree, dataset: Dataset, quantizer: Quantizer,
                  path, threads: int = 1) -> None:
    """Write an archive: the tree, the quantum and the leaf centers
    verbatim under one CRC32, then one delta block per leaf in pre-order.

    ``threads`` is accepted for existing callers and ignored: encoding
    runs Python code that holds the interpreter lock.
    """
    if tree.dataset_hash != dataset.content_hash():
        raise ValueError("tree was not built over this dataset")
    leaves, members = tree.leaf_members()
    centers = tree.center[leaves]
    center_rows = dataset.values[centers]
    if dataset.kind is DatasetKind.DENSE_VECTORS:
        header = _VEC_HEADER.pack(VEC_MAGIC, VEC_VERSION, leaves.size, dataset.dim)
        center_rows = np.ascontiguousarray(center_rows, dtype="<f8")
    else:
        header = _STR_SECTION.pack(leaves.size, dataset.dim)
    section = _F64.pack(quantizer.quantum) + header + center_rows.tobytes()
    chunks = [tree_to_bytes(tree), section, _U32.pack(zlib.crc32(section))]
    chunks.extend(encode_leaf(c, m, r, dataset, quantizer).to_bytes()
                  for c, m, r in zip(centers.tolist(), members,
                                     tree.radius[leaves].tolist()))
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
    leaves, members = tree.leaf_members()
    if count != leaves.size:
        raise FormatError(f"centers section holds {count} rows for "
                          f"{leaves.size} leaves")
    centers = np.frombuffer(raw, dtype=dtype, count=count * dim, offset=pos)
    centers_ds = Dataset(kind, centers.reshape(count, dim).astype(
        np.float64 if dense else np.uint8))
    quantizer = Quantizer(quantum) if dense else None
    pos = end + _U32.size

    out = np.empty((tree.order.size, dim), dtype=centers_ds.values.dtype)
    for i, (leaf, m) in enumerate(zip(leaves.tolist(), members)):
        block, pos = LeafDeltaBlock.from_bytes(raw, pos)
        if block.center_index != tree.center[leaf] or block.member_count != m.size:
            raise FormatError(f"block {i} does not match leaf {i} of the tree")
        out[m] = decode_leaf(block, centers_ds, quantizer, center_row=i)
    if pos != len(raw):
        raise FormatError(f"trailing bytes at offset {pos}")
    return Dataset(kind, out)
