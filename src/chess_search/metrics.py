"""Distance functions, their properties, and comparison-count instrumentation.

Four distances are provided, all of them metrics. Euclidean (the L2
norm of the difference) and chord apply to dense real vectors; Hamming
(differing positions of equal-length strings) and Levenshtein (the
fewest single-character edits; lengths may differ) to aligned strings
over the alphabet ``A C G T -``. Chord is the Euclidean distance of
the vectors scaled to unit length, ``sqrt(2 - 2 cos)``, a length in [0,
2]. Levenshtein is computed exactly by Myers' bit-vector DP over a
packed block of rows.

Each distance is one :class:`MetricKind` record. :func:`distances_to`
checks a query, calls the record's kernel and charges a
:class:`ComparisonCounter`, through which every distance evaluation that
matters for cost accounting goes. Its queries come as rows: a paired
block stays as it is, and a single query (a leaf scan, a center test) is
one 1-D row that numpy broadcasts over the points, which costs nothing,
where reshaping it to ``(1, dim)`` would add work to each of the
hundreds of such calls a search makes.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError

__all__ = [
    "MetricKind",
    "ComparisonCounter",
    "distance",
    "distances_to",
    "as_vector",
    "as_codes",
]

#: Alphabet accepted for string points (gap character included).
STRING_ALPHABET = b"ACGT-"

_ALPHABET_CODES = np.frombuffer(STRING_ALPHABET, dtype=np.uint8)
_IN_ALPHABET = np.zeros(256, dtype=bool)
_IN_ALPHABET[_ALPHABET_CODES] = True
_LETTER_INDEX = np.zeros(256, dtype=np.intp)
_LETTER_INDEX[_ALPHABET_CODES] = np.arange(_ALPHABET_CODES.size)
#: Bytes of packed match masks a paired Levenshtein block gathers at once.
_MASK_BYTES = 96 * 1024
#: Largest shared-query Levenshtein block, in bits, whose match masks
#: come from ``bytes.translate`` and ``int(..., 2)``, a cost that grows
#: with the bits; larger blocks pay one ``np.packbits`` of about 5 us.
#: Timed alone (thread CPU time, best of 25, 2-core x86 VM) on rows of
#: 32 and 130: translate led up to 132 bits and trailed from 198 on.
_TRANSLATE_BITS = 160
#: Most rows a Levenshtein block reads out with ``int.bit_count`` per
#: row; larger blocks unpack their bits with numpy, about 6 us a call.
#: Timed the same way: per-row counts led up to 16 rows of 32 or 130
#: and trailed at 24 rows of 130 and 32 rows of 32.
_BIT_COUNT_ROWS = 16
#: Per letter, the table that ``bytes.translate`` uses to write a block's
#: codes as the binary digits of that letter's match mask.
_DIGITS = {c: bytes(b"01"[i == c] for i in range(256)) for c in STRING_ALPHABET}


@dataclass
class ComparisonCounter:
    """Counts distance evaluations within one build or one query.

    Not thread safe; each concurrent operation owns its own counter.
    """

    count: int = 0

    def add(self, n: int = 1) -> None:
        self.count += n


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


def _coordinate_bound(dim: int) -> float:
    """The largest coordinate magnitude a dense point of dimension ``dim``
    may have. Two such points differ by at most twice it in each
    coordinate, so their squared Euclidean distance is at most ``dim * (2
    * bound) ** 2``, half the largest double: the kernel squares raw
    differences, and its sum cannot overflow however it rounds."""
    return math.sqrt(sys.float_info.max / 2 / dim) / 2


def _first_unbounded(values: np.ndarray, bound: float | None = None) -> int:
    """Flat index of the first coordinate of ``values`` (one point, or rows
    of points) that is not finite or lies beyond ``bound`` (by default
    ``_coordinate_bound``), or -1. When there is none it costs two
    reductions, which make no temporary array."""
    if bound is None:
        bound = _coordinate_bound(values.shape[-1])
    # the ufuncs' own reductions skip the wrappers of ``ndarray.max`` and
    # ``min``, which cost more than a point's whole check; Python floats
    # compare NaN as False, and silently
    if (float(np.maximum.reduce(values, axis=None)) <= bound
            and float(np.minimum.reduce(values, axis=None)) >= -bound):
        return -1
    with np.errstate(invalid="ignore"):
        return int(np.flatnonzero(~(np.abs(values) <= bound))[0])


def _where(values: np.ndarray, i: int) -> str:
    """Names flat index ``i`` of one point or of rows of points."""
    if values.ndim < 2:
        return f"index {i}"
    return f"row {i // values.shape[1]}, index {i % values.shape[1]}"


def _check_coordinates(values: np.ndarray, bound: float | None = None) -> None:
    """Raise :class:`DimensionError` at the first coordinate of ``values``
    that :func:`_first_unbounded` finds beyond ``bound``."""
    dim = values.shape[-1]
    if bound is None:
        bound = _coordinate_bound(dim)
    i = _first_unbounded(values, bound)
    if i < 0:
        return
    v = float(values.flat[i])
    where = _where(values, i)
    if not math.isfinite(v):
        raise DimensionError(f"dense values must be finite: {v} at {where}")
    raise DimensionError(f"coordinate {v} at {where} is beyond +-{bound:.6g}, where "
                         f"Euclidean distances in dimension {dim} can overflow")


def _illegal(code: int) -> str:
    """Names a code outside the alphabet: ASCII as itself, another byte in hex."""
    return f"illegal character {chr(code)!r}" if code < 0x80 else f"illegal byte 0x{code:02x}"


def _check_codes(arr: np.ndarray, what: str) -> None:
    """Raise unless ``arr`` holds uint8 codes of ``A C G T -``, naming the
    first other code and its place; ``what`` names ``arr`` in the error."""
    if arr.dtype != np.uint8:
        raise DimensionError(f"expected a {what}, got dtype {arr.dtype}")
    if arr.tobytes().translate(None, STRING_ALPHABET):
        i = int(np.flatnonzero(~_IN_ALPHABET[arr.reshape(-1)])[0])
        raise DimensionError(f"{_illegal(int(arr.flat[i]))} at {_where(arr, i)}; "
                             f"alphabet is A, C, G, T, -")


def as_codes(p) -> np.ndarray:
    """Coerce a string point to a 1-D uint8 array of character codes.

    Accepts ``str``, ``bytes``, or an existing uint8 array. A ``str`` is
    upper-cased as UTF-8 bytes; codes outside ``A C G T -`` are refused.
    """
    if isinstance(p, str):
        p = p.encode(errors="replace").upper()
    if isinstance(p, (bytes, bytearray)):
        p = np.frombuffer(bytes(p), dtype=np.uint8)
    arr = np.asarray(p)
    _check_codes(arr, "string point")
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"expected a 1-D string point, got shape {arr.shape}")
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


def _shared_masks(padded: np.ndarray, q: np.ndarray):
    """Match masks of a block whose rows share the 1-D query ``q``, one
    per query character: bit ``k*seg + i`` of a letter's mask is set when
    ``padded[k, i]`` is that letter.

    A small block writes its codes as the digits of one binary numeral,
    most significant first, and ``bytes.translate`` turns them into each
    used letter's mask for ``int(..., 2)``. Past ``_TRANSLATE_BITS`` bits
    one ``np.packbits`` of all five letters costs less.
    """
    rows, seg = padded.shape
    letters = q.tobytes()
    if rows * seg <= _TRANSLATE_BITS:
        digits = padded[::-1, ::-1].tobytes()
        peq = {c: int(digits.translate(_DIGITS[c]), 2) for c in set(letters)}
    else:
        packed = np.packbits(padded.reshape(-1) == _ALPHABET_CODES[:, None],
                             axis=1, bitorder="little")
        peq = {c: int.from_bytes(mask.tobytes(), "little")
               for c, mask in zip(STRING_ALPHABET, packed)}
    return map(peq.__getitem__, letters)


def _levenshtein_block(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Edit distance from the query rows q to the rows of points, all rows
    at once: a 1-D q is the query of every row (a search), a 2-D q pairs
    one query with each row (a build).

    Myers' bit-vector DP (Myers 1999) in Hyyro's 2003 global edit-distance
    form: row ``k`` of the block is the pattern held in bits ``k*seg ..
    k*seg+m-1`` of one Python int, and each query character advances
    every row's DP column with 17 big-integer operations. The match mask
    of a step holds, for every row, where its pattern has that row's
    query character: one mask per letter for a shared query
    (:func:`_shared_masks`), one per column for paired rows (whose
    segments are rounded up to whole bytes, see :func:`_paired_masks`).
    ``pv``/``mv`` hold the +1/-1 vertical deltas of the current column,
    so the last column's bottom cell is ``len(q) + popcount(pv) -
    popcount(mv)`` per segment.

    Every integer in the loop stays nonnegative: ``~x`` is written
    ``x ^ full``, which spares CPython the sign handling of negative big
    ints and nearly halves the loop on 512 rows. A call costs about 6 us
    besides the loop: one or two 32-long rows take about 25 us, 32 rows
    about 40 us and 512 rows about 235 us (thread CPU time, 2-core x86
    VM, CPython 3.11), so small calls pay mostly for the loop.
    """
    rows, m = points.shape
    shared = q.ndim == 1
    seg = m + 1 if shared else 8 * (m // 8 + 1)
    # Zero guard bits top each segment: they absorb the carry out of
    # ``(eq & pv) + pv`` and the bit that ``<< 1`` pushes out of the
    # pattern, so neither leaks into the next row; ``full`` clears them.
    low = ((1 << rows * seg) - 1) // ((1 << seg) - 1)
    full = low * ((1 << m) - 1)
    padded = np.zeros((rows, seg), dtype=np.uint8)
    padded[:, :m] = points  # the zero guard columns match no letter
    masks = _shared_masks(padded, q) if shared else _paired_masks(padded, q)
    pv, mv = full, 0
    for eq in masks:
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # ``x ^ full`` is ``~x`` on the pattern bits and stays
        # nonnegative. Elsewhere it keeps the bits of ``x``: guard bits
        # that ``& xv`` and ``& full`` clear, or that ``<< 1`` moves onto
        # the next row's ``low`` bit, which is set anyway.
        ph = mv | ((xh | pv) ^ full)
        mh = pv & xh
        # Shifting ``low`` in makes the top DP row 0, 1, 2, ... (global
        # distance) instead of all zeros (the substring-search form).
        ph = (ph << 1) | low
        pv = ((mh << 1) | ((xv | ph) ^ full)) & full
        mv = ph & xv
    n = q.shape[-1]
    if rows <= _BIT_COUNT_ROWS:
        row = (1 << seg) - 1
        return np.array([n + ((pv >> s) & row).bit_count() - ((mv >> s) & row).bit_count()
                         for s in range(0, rows * seg, seg)], dtype=np.float64)
    nbytes = -(-rows * seg // 8)
    deltas = np.unpackbits(
        np.frombuffer(pv.to_bytes(nbytes, "little") + mv.to_bytes(nbytes, "little"),
                      dtype=np.uint8).reshape(2, nbytes),
        axis=1, count=rows * seg, bitorder="little")
    counts = deltas.reshape(2, rows, seg).sum(axis=2)
    return (n + counts[0] - counts[1]).astype(np.float64)


def _euclidean(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    if points.shape[1] != q.shape[-1]:
        raise DimensionError(f"dimension mismatch: points have dim {points.shape[1]}, "
                             f"query has dim {q.shape[-1]}")
    diff = points - q
    diff *= diff  # in place: one block-sized temporary, not two
    # ``np.add.reduce`` skips the per-call cost of ``ndarray.sum``'s wrapper
    return np.sqrt(np.add.reduce(diff, axis=1))


def _chord(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The Euclidean distance of the rows scaled to unit length."""
    if points.shape[1] == q.shape[-1]:  # else ``_euclidean`` refuses them
        tops = [np.abs(x).max(axis=-1, keepdims=True) for x in (points, q)]
        if not (tops[0].all() and tops[1].all()):
            raise DegenerateInputError("chord distance undefined for the zero vector")
        # at a largest magnitude of 1 the squares stay finite
        points, q = (x / top for x, top in zip((points, q), tops))
        points, q = (x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
                     for x in (points, q))
    return _euclidean(points, q)


def _hamming(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    if points.shape[1] != q.shape[-1]:
        raise DimensionError(f"Hamming distance requires equal lengths: "
                             f"{points.shape[1]} vs {q.shape[-1]}")
    return np.add.reduce(points != q, axis=1).astype(np.float64)


class MetricKind(enum.Enum):
    """One distance as a record: its name (``value``), its one-byte
    CHESSTREE ``wire_id`` (Euclidean 0, Hamming 2, Levenshtein 3, chord
    4; id 1, the retired cosine distance 1 - cos, is refused),
    ``for_vectors`` (dense vectors, else strings) and ``kernel(points,
    q)``, the float64 distances from a query that :func:`distances_to`
    checked to each row of a 2-D block."""

    def __new__(cls, value: str, wire_id: int, for_vectors: bool, kernel):
        member = object.__new__(cls)
        member._value_ = value
        member.wire_id, member.for_vectors, member.kernel = wire_id, for_vectors, kernel
        return member

    EUCLIDEAN = "euclidean", 0, True, _euclidean
    CHORD = "chord", 4, True, _chord
    HAMMING = "hamming", 2, False, _hamming
    LEVENSHTEIN = "levenshtein", 3, False, _levenshtein_block

    @classmethod
    def from_name(cls, name: str) -> "MetricKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown metric {name!r}; expected one of "
                             f"{', '.join(m.value for m in cls)}") from None

    @classmethod
    def from_wire_id(cls, wire_id: int) -> "MetricKind":
        for kind in cls:
            if kind.wire_id == wire_id:
                return kind
        raise ValueError(f"unknown metric id byte {wire_id}")


def _rounding_slack(kind: MetricKind, dim: int) -> float:
    """A relative allowance that bounds the rounding of a computed vector
    distance of ``dim`` coordinates: ``4 (dim + 2)`` units of 2**-52 over
    1. The string distances are exact integers and get none (1)."""
    return 1.0 + 4 * (dim + 2) * 2.0 ** -52 if kind.for_vectors else 1.0


def distances_to(points: np.ndarray, q, kind: MetricKind,
                 counter: ComparisonCounter | None = None) -> np.ndarray:
    """Distances from a query point to every row of a 2-D point block.

    The query comes as rows. A 2-D array ``q`` of the same shape as
    ``points`` is a block of queries paired with the rows: row ``k`` of
    the result is ``d(points[k], q[k])``. A single query is one 1-D row
    that broadcasts over them. One kernel per metric serves both, so
    the result for a given row does not depend on which other rows are
    in the block, nor on whether its query came alone or in a block. The
    counter, when given, is charged one comparison per row.
    """
    if points.ndim != 2:
        raise DimensionError(f"expected a 2-D point block, got shape {points.shape}")
    if not (isinstance(q, np.ndarray) and q.ndim == 2):
        q = as_vector(q) if kind.for_vectors else as_codes(q)
    elif q.shape != points.shape:
        raise DimensionError(f"query block has shape {q.shape}, "
                             f"points have shape {points.shape}")
    elif kind.for_vectors:
        q = np.asarray(q, dtype=np.float64)
    else:
        _check_codes(q, "string point block")
    result = kind.kernel(points, q)
    if counter is not None:
        counter.add(len(points))
    return result


def distance(a, b, kind: MetricKind) -> float:
    """Distance between two points under the given kind.

    A Euclidean coordinate beyond the bound a dataset admits is a
    :class:`DimensionError`, where the squares could overflow; chord
    scales its rows first and takes any finite coordinate. A coordinate
    that is not finite is a :class:`DimensionError` under both.
    """
    coerce = as_vector if kind.for_vectors else as_codes
    a, b = coerce(a), coerce(b)
    if kind.for_vectors:
        bound = None if kind is MetricKind.EUCLIDEAN else sys.float_info.max
        _check_coordinates(a, bound)
        _check_coordinates(b, bound)
    return float(distances_to(a[np.newaxis], b, kind)[0])
