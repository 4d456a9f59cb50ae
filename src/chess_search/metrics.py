"""Distance functions, their properties, and comparison-count instrumentation.

Four distances are provided. Euclidean and cosine apply to dense real
vectors; Hamming and Levenshtein apply to aligned strings over the
alphabet ``A C G T -``. Euclidean, Hamming, and Levenshtein are true
metrics; cosine distance (1 - cosine similarity) violates the triangle
inequality and therefore cannot guarantee exact pruning.

Levenshtein is computed exactly by Myers' bit-vector DP (Myers 1999, in
Hyyro's 2003 global edit-distance form) over a packed block: every row
of the block is a pattern in its own segment of one Python int, so one
pass over the query's characters yields the distance to every row.

Every distance evaluation that matters for cost accounting goes through
a :class:`ComparisonCounter`. Bulk evaluations of one query against many
stored points, and paired evaluations of a block of queries against a
block of points row by row, use the same per-row arithmetic as
single-pair calls, so a distance computed during a leaf scan or a tree
build is bit-identical to the same pair computed in isolation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError

__all__ = [
    "MetricKind",
    "ComparisonCounter",
    "distance",
    "counted_distance",
    "distances_to",
    "as_vector",
    "as_codes",
]

#: Alphabet accepted for string points (gap character included).
STRING_ALPHABET = b"ACGT-"

_ALPHABET_SET = frozenset(STRING_ALPHABET)
_ALPHABET_CODES = np.frombuffer(STRING_ALPHABET, dtype=np.uint8)
_IN_ALPHABET = np.zeros(256, dtype=bool)
_IN_ALPHABET[_ALPHABET_CODES] = True
_LETTER_INDEX = np.zeros(256, dtype=np.intp)
_LETTER_INDEX[_ALPHABET_CODES] = np.arange(_ALPHABET_CODES.size)
#: Bytes of packed match masks a paired Levenshtein block gathers at once.
_MASK_BYTES = 96 * 1024


class MetricKind(enum.Enum):
    """Identifies a distance function and its structural properties."""

    EUCLIDEAN = "euclidean"
    COSINE = "cosine"
    HAMMING = "hamming"
    LEVENSHTEIN = "levenshtein"

    @property
    def obeys_triangle_inequality(self) -> bool:
        return self is not MetricKind.COSINE

    @property
    def for_vectors(self) -> bool:
        """True when the distance applies to dense vectors, False for strings."""
        return self in (MetricKind.EUCLIDEAN, MetricKind.COSINE)

    @property
    def wire_id(self) -> int:
        """Stable one-byte identifier used by the on-disk tree format."""
        return _WIRE_IDS[self]

    @classmethod
    def from_name(cls, name: str) -> "MetricKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown metric {name!r}; expected one of "
                             f"{', '.join(m.value for m in cls)}") from None

    @classmethod
    def from_wire_id(cls, wire_id: int) -> "MetricKind":
        for kind, value in _WIRE_IDS.items():
            if value == wire_id:
                return kind
        raise ValueError(f"unknown metric id byte {wire_id}")


_WIRE_IDS = {
    MetricKind.EUCLIDEAN: 0,
    MetricKind.COSINE: 1,
    MetricKind.HAMMING: 2,
    MetricKind.LEVENSHTEIN: 3,
}


@dataclass
class ComparisonCounter:
    """Counts distance evaluations within one build or one query.

    Not thread safe; each concurrent operation owns its own counter.
    """

    count: int = 0

    def add(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


def as_vector(p) -> np.ndarray:
    """Coerce a dense point to a 1-D float64 array."""
    try:
        arr = np.asarray(p, dtype=np.float64)
    except (TypeError, ValueError):
        raise DimensionError(
            f"expected a dense numeric vector, got {type(p).__name__}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"expected a 1-D dense vector, got shape {arr.shape}")
    return arr


def as_codes(p) -> np.ndarray:
    """Coerce a string point to a 1-D uint8 array of character codes.

    Accepts ``str``, ``bytes``, or an existing uint8 array. Input letters
    are upper-cased; characters outside ``A C G T -`` are rejected.
    """
    if isinstance(p, str):
        p = p.upper().encode("ascii", errors="replace")
    if isinstance(p, (bytes, bytearray)):
        arr = np.frombuffer(bytes(p), dtype=np.uint8)
    else:
        arr = np.asarray(p)
        if arr.dtype != np.uint8:
            raise DimensionError(f"expected a string point, got dtype {arr.dtype}")
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"expected a 1-D string point, got shape {arr.shape}")
    bad = [c for c in set(arr.tolist()) if c not in _ALPHABET_SET]
    if bad:
        raise DimensionError(
            f"illegal character {chr(bad[0])!r}; alphabet is A, C, G, T, -")
    return arr


def _paired_masks(padded: np.ndarray, q: np.ndarray):
    """Match masks of a paired block, one per query column: bit
    ``k*seg + i`` of mask ``j`` is set when ``padded[k, i] == q[k, j]``.

    Segments are whole bytes wide, so row ``k``'s part of a mask is its
    packed mask for one letter, and a step's mask gathers one per row
    from a table of ``5 * rows`` packed masks. Steps are gathered a few
    at a time, so the bytes held at once stay near ``_MASK_BYTES``.
    """
    rows, seg = padded.shape
    width = seg // 8
    table = np.packbits(padded == _ALPHABET_CODES[:, None, None], axis=2,
                        bitorder="little").reshape(-1, width)
    pick = _LETTER_INDEX[q.T] * rows + np.arange(rows)  # one table row per (step, row)
    step = max(1, rows * width)
    chunk = max(1, _MASK_BYTES // step)
    for a in range(0, len(pick), chunk):
        masks = memoryview(table[pick[a:a + chunk]].tobytes())
        for b in range(0, len(masks), step):
            yield int.from_bytes(masks[b:b + step], "little")


def _levenshtein_block(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Edit distance from q to every row of points, all rows at once; a
    2-D q holds one query per row.

    Myers' bit-vector DP in Hyyro's global form: row ``k`` of the block
    is the pattern held in bits ``k*seg .. k*seg+m-1`` of one Python int,
    and each query character advances every row's DP column with a fixed
    number of big-integer operations. The match mask of a step holds,
    for every row, where its pattern has that row's query character: one
    mask per letter for a single query, one per column for a query block
    (whose segments are rounded up to whole bytes, see
    :func:`_paired_masks`). ``pv``/``mv`` hold the +1/-1 vertical deltas
    of the current column, so the last column's bottom cell is
    ``len(q) + popcount(pv) - popcount(mv)`` per segment.
    """
    rows, m = points.shape
    paired = q.ndim == 2
    seg = 8 * (m // 8 + 1) if paired else m + 1
    # Zero guard bits top each segment: they absorb the carry out of
    # ``(eq & pv) + pv`` and the bit that ``<< 1`` pushes out of the
    # pattern, so neither leaks into the next row; ``full`` clears them.
    low = ((1 << rows * seg) - 1) // ((1 << seg) - 1)
    full = low * ((1 << m) - 1)
    padded = np.zeros((rows, seg), dtype=np.uint8)
    padded[:, :m] = points  # the zero guard columns match no letter
    if paired:
        masks = _paired_masks(padded, q)
    else:
        packed = np.packbits(padded.reshape(-1) == _ALPHABET_CODES[:, None],
                             axis=1, bitorder="little")
        peq = {c: int.from_bytes(mask.tobytes(), "little")
               for c, mask in zip(STRING_ALPHABET, packed)}
        masks = map(peq.__getitem__, q.tolist())
    pv, mv = full, 0
    for eq in masks:
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        # Shifting ``low`` in makes the top DP row 0, 1, 2, ... (global
        # distance) instead of all zeros (the substring-search form).
        ph = (ph << 1) | low
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    nbytes = -(-rows * seg // 8)
    deltas = np.unpackbits(
        np.frombuffer(pv.to_bytes(nbytes, "little") + mv.to_bytes(nbytes, "little"),
                      dtype=np.uint8).reshape(2, nbytes),
        axis=1, count=rows * seg, bitorder="little")
    counts = deltas.reshape(2, rows, seg).sum(axis=2)
    return (q.shape[-1] + counts[0] - counts[1]).astype(np.float64)


def _query_block(q: np.ndarray, points: np.ndarray, for_vectors: bool) -> np.ndarray:
    """Check a paired query block: the shape of ``points``, float64 for
    vectors, codes of ``A C G T -`` for strings."""
    if q.shape != points.shape:
        raise DimensionError(f"query block has shape {q.shape}, "
                             f"points have shape {points.shape}")
    if for_vectors:
        return np.asarray(q, dtype=np.float64)
    if q.dtype != np.uint8:
        raise DimensionError(f"expected a string point block, got dtype {q.dtype}")
    bad = np.flatnonzero(~_IN_ALPHABET[q.reshape(-1)])
    if bad.size:
        raise DimensionError(f"illegal character {chr(q.flat[bad[0]])!r}; "
                             f"alphabet is A, C, G, T, -")
    return q


def distances_to(points: np.ndarray, q, kind: MetricKind,
                 counter: ComparisonCounter | None = None) -> np.ndarray:
    """Distances from a query point to every row of a 2-D point block.

    A 2-D array ``q`` of the same shape as ``points`` is a block of
    queries paired with the rows: row ``k`` of the result is
    ``d(points[k], q[k])``. This is the single arithmetic path for all
    bulk, paired and single-pair evaluations; the result for a given row
    does not depend on which other rows are in the block, nor on whether
    its query came alone or in a block. The counter, when given, is
    charged one comparison per row.
    """
    paired = isinstance(q, np.ndarray) and q.ndim == 2
    if kind.for_vectors:
        if paired:
            q = _query_block(q, points, True)
        else:
            q = as_vector(q)
            if points.ndim != 2 or points.shape[1] != q.size:
                raise DimensionError(
                    f"dimension mismatch: points have dim {points.shape[-1]}, "
                    f"query has dim {q.size}")
        if kind is MetricKind.EUCLIDEAN:
            diff = points - q
            diff *= diff  # in place: one block-sized temporary, not two
            result = np.sqrt(diff.sum(axis=1))
        else:
            if paired:
                qn = np.sqrt((q * q).sum(axis=1))
                degenerate = bool(np.any(qn == 0.0))
            else:
                qn = math.sqrt(float((q * q).sum()))
                degenerate = qn == 0.0
            if degenerate:
                raise DegenerateInputError("cosine distance undefined for the zero vector")
            norms = np.sqrt((points * points).sum(axis=1))
            if np.any(norms == 0.0):
                raise DegenerateInputError("cosine distance undefined for the zero vector")
            result = 1.0 - (points * q).sum(axis=1) / (norms * qn)
    else:
        if paired:
            q = _query_block(q, points, False)
        else:
            q = as_codes(q)
            if points.ndim != 2:
                raise DimensionError("expected a 2-D block of string points")
        if kind is MetricKind.HAMMING:
            if points.shape[1] != q.shape[-1]:
                raise DimensionError(
                    f"Hamming distance requires equal lengths: "
                    f"{points.shape[1]} vs {q.size}")
            result = (points != q).sum(axis=1).astype(np.float64)
        else:
            result = _levenshtein_block(points, q)
    if counter is not None:
        counter.add(len(points))
    return result


def distance(a, b, kind: MetricKind) -> float:
    """Distance between two points under the given kind.

    Nonnegative, symmetric, and zero on identical points. Euclidean is
    the L2 norm of the difference; cosine is one minus the cosine
    similarity; Hamming counts differing positions of equal-length
    strings; Levenshtein is the minimum number of single-character
    edits (lengths may differ).
    """
    if kind.for_vectors:
        a = as_vector(a)
        b = as_vector(b)
        if a.size != b.size:
            raise DimensionError(f"dimension mismatch: {a.size} vs {b.size}")
        return float(distances_to(b[np.newaxis, :], a, kind)[0])
    a = as_codes(a)
    b = as_codes(b)
    if kind is MetricKind.HAMMING and a.size != b.size:
        raise DimensionError(
            f"Hamming distance requires equal lengths: {a.size} vs {b.size}")
    return float(distances_to(b[np.newaxis, :], a, kind)[0])


def counted_distance(a, b, kind: MetricKind, counter: ComparisonCounter) -> float:
    """Same as :func:`distance`, charging exactly one comparison."""
    value = distance(a, b, kind)
    counter.add(1)
    return value
