"""Dataset loading, storage, and synthesis.

Two point kinds are supported: dense nonnegative real vectors, stored
on disk in the CHESSVEC binary format, and equal-length strings over
``A C G T -``, stored as plain text (FASTA headers tolerated).

CHESSVEC layout: magic ``CHESSVEC`` (8 ASCII bytes), version byte 0x02,
point count as u64 little-endian, per-point dimension as u64
little-endian, a CRC32 of those 25 bytes as u32 little-endian, then
``n * dim`` IEEE-754 binary64 little-endian values, row major. Version 1
had no CRC and is refused.
"""

from __future__ import annotations

import enum
import hashlib
import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError
from .metrics import (_IN_ALPHABET, MetricKind, _check_codes, _check_coordinates,
                      _first_unbounded, _illegal, as_codes, as_vector)

__all__ = [
    "Dataset",
    "DatasetKind",
    "load_dense",
    "save_dense",
    "load_sequences",
    "synth_manifold",
]

VEC_MAGIC = b"CHESSVEC"
VEC_VERSION = 2
_VEC_HEADER = struct.Struct("<8sBQQ")
_U32 = struct.Struct("<I")
#: where the values start: after the header and its CRC32
_VEC_START = _VEC_HEADER.size + _U32.size


class DatasetKind(enum.Enum):
    DENSE_VECTORS = "dense"
    ALIGNED_STRINGS = "strings"


@dataclass
class Dataset:
    """An ordered, fixed-shape point collection.

    Dense values must be finite and, in dimension ``dim``, at most
    ``sqrt(max_double / (2 dim)) / 2`` in magnitude (about 6.1e152 at
    dimension 60), so that no Euclidean distance between two points
    overflows; string values must be uint8 codes of ``A C G T -``. The
    constructor and :meth:`coerce_point` refuse any other with a
    :class:`DimensionError` naming the coordinate.

    Immutable under normal use; :meth:`append_point` exists only to
    support live insertion into an already-built tree and must not run
    concurrently with readers. Appends cost amortized O(1): rows go into
    a buffer whose capacity doubles when full, and ``values`` is the
    ``[:n]`` view of it. An append may therefore replace ``values`` with
    a view of a new buffer; a view taken earlier keeps its contents,
    because rows already written are never written again. A fresh or
    copied dataset holds no spare capacity until its first append.

    :meth:`content_hash` is computed on first use and cached until the
    next append.
    """

    kind: DatasetKind
    values: np.ndarray  # (n, dim); float64 for vectors, uint8 for strings
    _hash: bytes | None = field(default=None, init=False, repr=False)
    # the buffer ``values`` views after an append; None until then
    _buffer: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise DimensionError(f"expected a 2-D array, got shape {self.values.shape}")
        n, dim = self.values.shape
        if n < 1 or dim < 1:
            raise DimensionError(f"dataset must have n >= 1 and dim >= 1, got {n}x{dim}")
        if self.kind is DatasetKind.DENSE_VECTORS:
            _check_coordinates(self.values)
        else:
            _check_codes(self.values, "string dataset of uint8 codes")

    def __eq__(self, other: object) -> bool:
        """Same kind and same values; the cached hash and spare buffer
        capacity do not count."""
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.kind is other.kind and np.array_equal(self.values, other.values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def point(self, i: int) -> np.ndarray:
        return self.values[i]

    def compatible_with(self, metric: MetricKind) -> bool:
        return metric.for_vectors == (self.kind is DatasetKind.DENSE_VECTORS)

    def coerce_point(self, p) -> np.ndarray:
        """Validate and convert one external point to this dataset's shape."""
        arr = as_vector(p) if self.kind is DatasetKind.DENSE_VECTORS else as_codes(p)
        if arr.size != self.dim:
            raise DimensionError(
                f"point has dim {arr.size}, dataset has dim {self.dim}")
        if self.kind is DatasetKind.DENSE_VECTORS:
            _check_coordinates(arr)
        return arr

    def __getstate__(self) -> dict:
        # copies and pickles hold the n rows of ``values``, not the buffer
        return {**self.__dict__, "_buffer": None}

    def append_point(self, p) -> int:
        """Check and append one point, returning its index; a refused point
        leaves the dataset as it was. Invalidates the cached hash. A tree
        over this dataset no longer covers it: see :func:`insert_point`."""
        return self._append(self.coerce_point(p))

    def _append(self, arr: np.ndarray) -> int:
        """Append a point :meth:`coerce_point` returned; returns its index."""
        n = self.n
        if self._buffer is None or n == len(self._buffer):
            self._buffer = np.empty((2 * n, self.dim), dtype=self.values.dtype)
            self._buffer[:n] = self.values
        self._buffer[n] = arr
        self.values = self._buffer[:n + 1]
        self._hash = None
        return n

    def content_hash(self) -> bytes:
        """SHA-256 of the canonical serialized bytes of this dataset.

        For dense data this is the hash of the exact CHESSVEC stream; for
        strings, of the upper-case LF-terminated line serialization. A
        dataset saved by this package therefore hashes to the same value
        as its file.
        """
        if self._hash is None:
            self._hash = hashlib.sha256(self.to_canonical_bytes()).digest()
        return self._hash

    def to_canonical_bytes(self) -> bytes:
        if self.kind is DatasetKind.DENSE_VECTORS:
            return _dense_bytes(self.values)
        newlines = np.full((self.n, 1), ord("\n"), dtype=np.uint8)
        return np.hstack([self.values, newlines]).tobytes()

    @classmethod
    def from_vectors(cls, array) -> "Dataset":
        arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
        return cls(DatasetKind.DENSE_VECTORS, arr)

    @classmethod
    def from_strings(cls, records) -> "Dataset":
        rows = [as_codes(r) for r in records]
        if not rows:
            raise DimensionError("dataset must contain at least one record")
        dim = rows[0].size
        for i, r in enumerate(rows):
            if r.size != dim:
                raise DimensionError(
                    f"record {i + 1} has length {r.size}, expected {dim}")
        return cls(DatasetKind.ALIGNED_STRINGS, np.vstack(rows))


def _dense_bytes(values: np.ndarray) -> bytes:
    """The CHESSVEC stream of an ``(n, dim)`` array: the bytes of a dense
    dataset's file and of its hash."""
    header = _VEC_HEADER.pack(VEC_MAGIC, VEC_VERSION, *values.shape)
    return b"".join((header, _U32.pack(zlib.crc32(header)),
                     np.ascontiguousarray(values, dtype="<f8").tobytes()))


def save_dense(dataset: Dataset, path) -> None:
    """Write a dense dataset as a CHESSVEC file (exact inverse of load_dense)."""
    if dataset.kind is not DatasetKind.DENSE_VECTORS:
        raise DimensionError("save_dense requires a dense-vector dataset")
    Path(path).write_bytes(_dense_bytes(dataset.values))


def load_dense(path) -> Dataset:
    """Read a CHESSVEC file, verifying magic, version, header CRC, size,
    and that every value is finite and within the dataset's bound."""
    raw = Path(path).read_bytes()
    if len(raw) < _VEC_START:
        raise FormatError(f"{path}: truncated header at byte offset {len(raw)}")
    magic, version, n, dim = _VEC_HEADER.unpack_from(raw, 0)
    if magic != VEC_MAGIC:
        raise FormatError(f"{path}: bad magic at byte offset 0")
    if version != VEC_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 8")
    if zlib.crc32(raw[:_VEC_HEADER.size]) != _U32.unpack_from(raw, _VEC_HEADER.size)[0]:
        raise FormatError(f"{path}: header checksum mismatch at byte offset "
                          f"{_VEC_HEADER.size}")
    if n < 1 or dim < 1:
        raise FormatError(f"{path}: header promises empty dataset at byte offset 9")
    expected = _VEC_START + 8 * n * dim
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload size mismatch (expected {expected} bytes, "
            f"got {len(raw)}) at byte offset {min(len(raw), expected)}")
    values = np.frombuffer(raw, dtype="<f8", offset=_VEC_START).reshape(n, dim)
    try:  # the constructor's scan is the one pass over the values
        return Dataset(DatasetKind.DENSE_VECTORS, values.astype(np.float64, copy=True))
    except DimensionError as exc:
        offset = _VEC_START + 8 * _first_unbounded(values)
        raise FormatError(f"{path}: {exc}, at byte offset {offset}") from None


def load_sequences(path) -> Dataset:
    """Read aligned strings, one per line; FASTA ``>`` headers are skipped.

    Read as bytes: ASCII letters are upper-cased, CRLF endings tolerated,
    and duplicate records dropped keeping the first occurrence. Any other
    byte outside ``A C G T -`` is a :class:`FormatError` at its line and
    byte column.
    """
    records: dict[bytes, None] = {}  # keeps the first occurrence's place
    dim: int | None = None
    for lineno, line in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
        record = line.rstrip(b"\r").upper()
        if not record or record.startswith(b">"):
            continue
        bad = np.flatnonzero(~_IN_ALPHABET[np.frombuffer(record, dtype=np.uint8)])
        if bad.size:
            col = int(bad[0])
            raise FormatError(f"{path}: {_illegal(record[col])} at line {lineno}, "
                              f"column {col + 1}")
        if dim is None:
            dim = len(record)
        elif len(record) != dim:
            raise FormatError(
                f"{path}: line {lineno} has length {len(record)}, expected {dim}")
        records.setdefault(record)
    if not records:
        raise FormatError(f"{path}: no records found")
    values = np.frombuffer(bytearray(b"".join(records)), dtype=np.uint8)
    return Dataset(DatasetKind.ALIGNED_STRINGS, values.reshape(len(records), dim))


def synth_manifold(n: int, embed_dim: int, intrinsic_dim: int, noise: float,
                   seed: int, *, density_power: float = 1.0) -> Dataset:
    """Sample points near a random affine subspace, shifted nonnegative.

    Points are drawn on a random ``intrinsic_dim``-dimensional affine
    subspace of ``embed_dim``-space, perturbed by Gaussian noise of
    scale ``noise``, then shifted so the minimum value is zero. The
    result is deterministic for a given seed.

    ``density_power`` reshapes the sampling density along the subspace:
    1.0 gives uniform coordinates, larger values concentrate mass near
    one end, which produces unbalanced cluster hierarchies like those of
    observational data.
    """
    if not 1 <= intrinsic_dim <= embed_dim:
        raise ValueError(f"need 1 <= intrinsic_dim <= embed_dim, "
                         f"got {intrinsic_dim} and {embed_dim}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if noise < 0 or not math.isfinite(noise):
        raise ValueError(f"noise must be finite and nonnegative, got {noise}")
    if not (density_power > 0 and math.isfinite(density_power)):
        raise ValueError(f"density_power must be finite and positive, "
                         f"got {density_power}")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((embed_dim, intrinsic_dim)))
    coords = rng.random((n, intrinsic_dim)) ** density_power * 100.0
    points = coords @ basis.T
    if noise > 0:
        points = points + noise * rng.standard_normal((n, embed_dim))
    points -= points.min()
    return Dataset.from_vectors(points)

