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
stored points use the same per-row arithmetic as single-pair calls, so a
distance computed during a leaf scan is bit-identical to the same pair
computed in isolation.
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


def _levenshtein_block(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Edit distance from q to every row of points, all rows at once.

    Myers' bit-vector DP in Hyyro's global form: row ``k`` of the block
    is the pattern held in bits ``k*(m+1) .. k*(m+1)+m-1`` of one Python
    int, and each query character advances every row's DP column with a
    fixed number of big-integer operations. ``pv``/``mv`` hold the +1/-1
    vertical deltas of the current column, so the last column's bottom
    cell is ``len(q) + popcount(pv) - popcount(mv)`` per segment.
    """
    rows, m = points.shape
    seg = m + 1
    # One zero guard bit tops each segment: it absorbs the carry out of
    # ``(eq & pv) + pv`` and the bit that ``<< 1`` pushes out of the
    # pattern, so neither leaks into the next row; ``full`` clears it.
    low = ((1 << rows * seg) - 1) // ((1 << seg) - 1)
    full = low * ((1 << m) - 1)
    padded = np.zeros((rows, seg), dtype=np.uint8)
    padded[:, :m] = points  # the zero guard column matches no letter
    packed = np.packbits(padded.reshape(-1) == _ALPHABET_CODES[:, None],
                         axis=1, bitorder="little")
    peq = {c: int.from_bytes(mask.tobytes(), "little")
           for c, mask in zip(STRING_ALPHABET, packed)}
    pv, mv = full, 0
    for c in q.tolist():
        eq = peq[c]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        # Shifting ``low`` in makes the top DP row 0, 1, 2, ... (global
        # distance) instead of all zeros (the substring-search form).
        ph = (ph << 1) | low
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    nbytes = packed.shape[1]
    deltas = np.unpackbits(
        np.frombuffer(pv.to_bytes(nbytes, "little") + mv.to_bytes(nbytes, "little"),
                      dtype=np.uint8).reshape(2, nbytes),
        axis=1, count=rows * seg, bitorder="little")
    counts = deltas.reshape(2, rows, seg).sum(axis=2)
    return (q.size + counts[0] - counts[1]).astype(np.float64)


def distances_to(points: np.ndarray, q, kind: MetricKind,
                 counter: ComparisonCounter | None = None) -> np.ndarray:
    """Distances from a query point to every row of a 2-D point block.

    This is the single arithmetic path for all bulk and single-pair
    evaluations; the result for a given row does not depend on which
    other rows are in the block. The counter, when given, is charged one
    comparison per row.
    """
    if kind.for_vectors:
        q = as_vector(q)
        if points.ndim != 2 or points.shape[1] != q.size:
            raise DimensionError(
                f"dimension mismatch: points have dim {points.shape[-1]}, "
                f"query has dim {q.size}")
        if kind is MetricKind.EUCLIDEAN:
            diff = points - q
            result = np.sqrt((diff * diff).sum(axis=1))
        else:
            qn = math.sqrt(float((q * q).sum()))
            if qn == 0.0:
                raise DegenerateInputError("cosine distance undefined for the zero vector")
            norms = np.sqrt((points * points).sum(axis=1))
            if np.any(norms == 0.0):
                raise DegenerateInputError("cosine distance undefined for the zero vector")
            result = 1.0 - (points * q).sum(axis=1) / (norms * qn)
    else:
        q = as_codes(q)
        if points.ndim != 2:
            raise DimensionError("expected a 2-D block of string points")
        if kind is MetricKind.HAMMING:
            if points.shape[1] != q.size:
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
