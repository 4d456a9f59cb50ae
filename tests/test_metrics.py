import functools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chess_search import (ComparisonCounter, DegenerateInputError,
                          DimensionError, MetricKind, distance)
from chess_search import metrics
from chess_search.metrics import distances_to

E, C, H, L = (MetricKind.EUCLIDEAN, MetricKind.CHORD, MetricKind.HAMMING,
              MetricKind.LEVENSHTEIN)


def test_identity_is_zero():
    x = np.array([1.5, -2.0, 7.25])
    assert distance(x, x, E) == 0.0
    assert distance("ACGT", "ACGT", H) == 0.0
    assert distance("ACGT", "ACGT", L) == 0.0


def test_three_four_five_triangle():
    assert distance((3.0, 4.0), (0.0, 0.0), E) == 5.0


def test_hamming_single_substitution():
    assert distance("ACGT", "ACGA", H) == 1.0


def test_cosine_parallel_vectors():
    # chord is sqrt(2 - 2 cos): 0 for parallel, 2 for opposite vectors
    assert distance((1.0, 0.0), (2.0, 0.0), C) == 0.0
    assert distance((1.0, 0.0), (-3.0, 0.0), C) == 2.0
    assert distance((1.0, 0.0), (0.0, 5.0), C) == np.sqrt(2.0)


def test_chord_of_huge_and_tiny_vectors():
    # squared, 1e200 overflows and 1e-200 underflows: rows are scaled to a
    # largest magnitude of 1 before they are normalized
    assert distance((1e200, 1e200), (1.0, 1.0), C) == 0.0
    assert distance((1e-200, 0.0), (0.0, 1e-300), C) == np.sqrt(2.0)


@pytest.mark.parametrize("kind", [E, C])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vector_distances_refuse_non_finite_coordinates(kind, bad):
    # chord answered nan for either, silently for nan and with a
    # RuntimeWarning for an infinity, where Euclidean raised
    with pytest.raises(DimensionError, match=f"must be finite: {bad} at index 0"):
        distance([bad, 1.0], [1.0, 1.0], kind)
    with pytest.raises(DimensionError, match=f"must be finite: {bad} at index 1"):
        distance([1.0, 1.0], [1.0, bad], kind)


def test_euclidean_distance_refuses_coordinates_whose_squares_overflow():
    # squared, the difference 5e199 overflowed, and distance() returned inf
    with pytest.raises(DimensionError, match="1e\\+200 at index 0 is beyond"):
        distance((1e200, 0.0), (1.5e200, 0.0), E)
    with pytest.raises(DimensionError, match="at index 1 is beyond"):
        distance((0.0, 0.0), (1.0, -1e200), E)
    # at the bound a dataset admits, the farthest pair is still finite
    for dim in (1, 3, 9, 60):
        b = metrics._coordinate_bound(dim)
        got = distance(np.full(dim, b), np.full(dim, -b), E)
        assert np.isclose(got, 2 * b * np.sqrt(dim), rtol=1e-14)


def test_levenshtein_examples():
    assert distance("ACGT", "AGT", L) == 1.0
    assert distance("AAAA", "CCCC", L) == 4.0
    assert distance("A", "ACGT-", L) == 4.0


def test_metric_properties():
    assert E.for_vectors and C.for_vectors
    assert not H.for_vectors and not L.for_vectors
    # id 1, the retired cosine distance, is not reused
    assert [kind.wire_id for kind in (E, H, L, C)] == [0, 2, 3, 4]


@pytest.mark.parametrize("kind", list(MetricKind))
def test_each_metric_is_one_record(kind):
    assert MetricKind.from_wire_id(kind.wire_id) is kind
    assert MetricKind.from_name(kind.value) is kind
    assert MetricKind.from_name(f" {kind.value.upper()} ") is kind
    assert kind.for_vectors == (kind in (E, C))
    assert list(MetricKind) == [E, C, H, L]
    assert [k.wire_id for k in MetricKind] == [0, 4, 2, 3]  # unique, 1 retired
    with pytest.raises(ValueError, match="unknown metric id byte 1"):
        MetricKind.from_wire_id(1)
    # the record's kernel is what ``distances_to`` calls
    points, q = paired_block(kind, 5, 7, seed=11, integral=False)
    assert (distances_to(points, q[0], kind).tobytes()
            == kind.kernel(points, q[0]).tobytes())


def test_counter_increments_by_exactly_one():
    counter = ComparisonCounter()
    distances_to(np.array([[3.0, 4.0]]), (1.0, 2.0), E, counter)
    assert counter.count == 1
    for _ in range(9):
        distances_to(np.array([[3.0, 4.0]]), (1.0, 2.0), E, counter)
    assert counter.count == 10


def test_counted_equals_uncounted_on_random_pairs():
    rng = np.random.default_rng(5)
    counter = ComparisonCounter()
    for _ in range(100):
        a, b = rng.random(8), rng.random(8)
        assert distances_to(b[np.newaxis], a, E, counter)[0] == distance(a, b, E)
    assert counter.count == 100


def test_bulk_kernel_matches_single_pair_bitwise():
    # leaf scans and pruning tests must agree to the last bit
    rng = np.random.default_rng(11)
    points = rng.random((64, 12)) * 50 + 0.5
    q = rng.random(12) * 50 + 0.5
    for kind in (E, C):
        bulk = distances_to(points, q, kind)
        for i in range(64):
            assert bulk[i] == distance(points[i], q, kind)
    alphabet = np.frombuffer(b"ACGT-", dtype=np.uint8)
    # a mostly-A block lets carries run the whole segment; lengths 70 and
    # 130 put segment boundaries inside and across 64-bit words
    for length, probs in ((12, None), (70, None), (130, None),
                          (70, [0.96, 0.01, 0.01, 0.01, 0.01])):
        block = rng.choice(alphabet, (9, length), p=probs)
        q = rng.choice(alphabet, length, p=probs)
        for kind in (H, L):
            bulk = distances_to(block, q, kind)
            for i in range(len(block)):
                assert bulk[i] == distance(block[i], q, kind)


def test_symmetry_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.random(16), rng.random(16)
        assert distance(a, b, E) == distance(b, a, E)
        assert distance(a + 0.1, b + 0.1, C) == distance(b + 0.1, a + 0.1, C)
    strings = ["ACGT-", "AAAAA", "CG-TA", "TTTTT"]
    for a in strings:
        for b in strings:
            assert distance(a, b, H) == distance(b, a, H)
            assert distance(a, b, L) == distance(b, a, L)


def test_triangle_inequality_on_sampled_triples():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b, c = rng.random((3, 10))
        ab, bc, ac = distance(a, b, E), distance(b, c, E), distance(a, c, E)
        assert ac <= (ab + bc) * (1 + 1e-12)
    codes = ["".join(s) for s in rng.choice(list("ACGT-"), size=(30, 12))]
    for _ in range(200):
        a, b, c = rng.choice(codes, 3)
        assert distance(a, c, H) <= distance(a, b, H) + distance(b, c, H)
        assert distance(a, c, L) <= distance(a, b, L) + distance(b, c, L)


def test_chord_obeys_triangle_inequality():
    # cosine distance (1 - cos) broke it on these three: 1 > 2 (1 - 1/sqrt 2)
    a, b, c = (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)
    assert distance(a, c, C) <= distance(a, b, C) + distance(b, c, C)
    rng = np.random.default_rng(19)
    for dim in (2, 3, 10, 60):
        base = rng.normal(size=(200, dim))
        triples = [rng.normal(size=(200, 3, dim)) * 10.0 ** rng.uniform(-3, 3),
                   # near-parallel: small angles, where 1 - cos is quadratic
                   base[:, None] + 1e-6 * rng.normal(size=(200, 3, dim)),
                   # two near-antipodal ends: distances close to 2
                   np.stack((base, rng.normal(size=(200, dim)),
                             -base + 1e-3 * rng.normal(size=(200, dim))), axis=1)]
        for a, b, c in np.concatenate(triples):
            ab, bc, ac = distance(a, b, C), distance(b, c, C), distance(a, c, C)
            assert ac <= (ab + bc) * (1 + 1e-12)
            assert ab <= (ac + bc) * (1 + 1e-12)


def test_distance_bounds_for_strings():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n, m = rng.integers(1, 20, 2)
        a = "".join(rng.choice(list("ACGT-"), n))
        b = "".join(rng.choice(list("ACGT-"), m))
        assert distance(a, b, L) <= max(n, m)
        if n == m:
            assert distance(a, b, H) <= n


def reference_levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def levenshtein_block(rows: list[str], q: str) -> list[float]:
    points = np.frombuffer("".join(rows).encode(), dtype=np.uint8)
    return distances_to(points.reshape(len(rows), -1), q, L).tolist()


def test_levenshtein_matches_reference_dp():
    rng = np.random.default_rng(29)
    for _ in range(150):
        a = "".join(rng.choice(list("ACGT-"), rng.integers(1, 15)))
        b = "".join(rng.choice(list("ACGT-"), rng.integers(1, 15)))
        assert distance(a, b, L) == reference_levenshtein(a, b)
    # whole blocks, rows up to 130 long, queries of equal and other lengths
    for _ in range(60):
        length = int(rng.integers(1, 131))
        rows = ["".join(rng.choice(list("ACGT-"), length))
                for _ in range(int(rng.integers(1, 8)))]
        for q_len in (length, int(rng.integers(1, 131))):
            q = "".join(rng.choice(list("ACGT-"), q_len))
            assert levenshtein_block(rows, q) == [
                reference_levenshtein(row, q) for row in rows]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(
           st.text("ACGT-", min_size=n, max_size=n), min_size=1, max_size=6)),
       st.text("ACGT-", min_size=1, max_size=40))
@example(rows=["A"], q="A")
@example(rows=["A"], q="C")
@example(rows=["A"], q="ACGT-")
@example(rows=["ACGT-"], q="T")
@example(rows=["A" * 64], q="A" * 63 + "C")  # a carry runs the whole pattern
@example(rows=["ACGT" * 8], q="CGTA" * 8)
@example(rows=["-" * 33], q="ACGT" * 17)
def test_levenshtein_block_property(rows, q):
    assert levenshtein_block(rows, q) == [
        reference_levenshtein(row, q) for row in rows]


@functools.cache
def cached_reference(row: bytes, q: bytes) -> int:
    return reference_levenshtein(row.decode(), q.decode())


def crossover_rows(length: int) -> list[int]:
    """Row counts of a block of ``length``-long rows on each side of the
    kernel's two small-block crossovers, and 1, 2 and 512 rows (512 only
    for short rows, where the reference DP stays cheap)."""
    translate = metrics._TRANSLATE_BITS // (length + 1)  # most rows translated
    count = metrics._BIT_COUNT_ROWS
    sizes = {1, 2, translate, translate + 1, count, count + 1}
    if length <= 32:
        sizes.add(512)
    return sorted(sizes - {0})


@pytest.mark.parametrize("length", [1, 8, 32, 130])
def test_block_sizes_match_reference(length):
    rng = np.random.default_rng(length)
    letters = np.frombuffer(b"ACGT-", dtype=np.uint8)
    # a mostly-A block lets carries run the whole segment
    for probs in (None, [0.96, 0.01, 0.01, 0.01, 0.01]):
        # rows come from a pool of 64, so the reference DP runs once a pair
        pool = rng.choice(letters, (64, length), p=probs)
        for rows in crossover_rows(length):
            block = pool[rng.integers(0, 64, rows)]
            for q_len in sorted({max(1, length // 2), length, 2 * length + 3}):
                q = rng.choice(letters, q_len, p=probs)
                want = [cached_reference(row.tobytes(), q.tobytes()) for row in block]
                assert distances_to(block, q, L).tolist() == want


def test_shape_and_kind_errors():
    with pytest.raises(DimensionError):
        distance((1.0, 2.0), (1.0, 2.0, 3.0), E)
    with pytest.raises(DimensionError):
        distance("ACGT", "ACG", H)
    with pytest.raises(DimensionError):
        distance("ACGT", "ACGT", E)
    with pytest.raises(DimensionError):
        distance((1.0, 2.0), (1.0, 2.0), H)
    with pytest.raises(DimensionError):
        distance("ABCD", "ACGT", H)
    # a str is upper-cased as its UTF-8 bytes: the sharp s stays a
    # non-ASCII byte, where ``str.upper`` would make it "SS"
    with pytest.raises(DimensionError, match="illegal byte 0xc3 at index 1"):
        distance("a\u00dfct", "ACGT", L)


def test_cosine_rejects_zero_vector():
    with pytest.raises(DegenerateInputError):
        distance((0.0, 0.0), (1.0, 2.0), C)
    with pytest.raises(DegenerateInputError):
        distance((1.0, 2.0), (0.0, 0.0), C)


def paired_block(kind, rows: int, width: int, seed: int, integral: bool):
    """Points and a query block of the same shape: Gaussian or small-integer
    vectors (integers give ties and repeated rows), or ACGT- strings."""
    rng = np.random.default_rng(seed)
    if kind.for_vectors:
        if integral:
            draw = lambda: rng.integers(-2, 3, (rows, width)).astype(float)
        else:
            scale = 10.0 ** rng.uniform(-3, 3)
            draw = lambda: rng.normal(size=(rows, width)) * scale
        points, queries = draw(), draw()
        if kind is C:  # chord is undefined on zero rows
            points[:, 0] += (points == 0).all(axis=1)
            queries[:, 0] += (queries == 0).all(axis=1)
        return points, queries
    letters = np.frombuffer(b"ACGT-", dtype=np.uint8)
    alphabet = 2 if integral else 5  # a two-letter alphabet gives many ties
    return (letters[rng.integers(0, alphabet, (rows, width))],
            letters[rng.integers(0, alphabet, (rows, width))])


@pytest.mark.parametrize("kind", [E, C, H, L])
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 9), width=st.integers(1, 130),
       seed=st.integers(0, 2**32 - 1), integral=st.booleans())
@example(rows=5, width=130, seed=1, integral=False)
@example(rows=1, width=1, seed=2, integral=True)
@example(rows=16, width=32, seed=3, integral=False)  # 16 and 17 straddle
@example(rows=17, width=130, seed=4, integral=False)  # _BIT_COUNT_ROWS
@example(rows=512, width=32, seed=5, integral=True)
def test_paired_rows_equal_single_queries(kind, rows, width, seed, integral):
    points, queries = paired_block(kind, rows, width, seed, integral)
    counter = ComparisonCounter()
    got = distances_to(points, queries, kind, counter)
    assert counter.count == rows
    want = np.concatenate([distances_to(points[k:k + 1], queries[k], kind)
                           for k in range(rows)])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("kind", [E, C, H, L])
def test_paired_shape_mismatch_is_a_dimension_error(kind):
    points, queries = paired_block(kind, 4, 6, seed=3, integral=False)
    for bad in (queries[:, :-1], queries[:-1], np.vstack((queries, queries))):
        with pytest.raises(DimensionError):
            distances_to(points, bad, kind)


def test_paired_strings_are_checked():
    points, queries = paired_block(L, 3, 8, seed=4, integral=False)
    queries[1, 5] = ord("N")
    with pytest.raises(DimensionError, match="illegal character 'N'"):
        distances_to(points, queries, L)
    for kind in (H, L):
        for bad in (queries.astype(np.int64), queries[0].astype(np.uint16)):
            with pytest.raises(DimensionError, match=f"got dtype {bad.dtype}"):
                distances_to(points, bad, kind)


@pytest.mark.parametrize("kind", [H, L])
@pytest.mark.parametrize("code", [0x00, ord("a"), ord("N")])
@pytest.mark.parametrize("where", [0, -1])
def test_illegal_codes_are_refused_at_either_end(kind, code, where):
    points, queries = paired_block(kind, 3, 8, seed=6, integral=False)
    message = re.escape(f"illegal character {chr(code)!r}")
    query = queries[0].copy()
    query[where] = code
    with pytest.raises(DimensionError, match=message):
        distances_to(points, query, kind)
    queries.flat[where] = code  # the block's first or last position
    with pytest.raises(DimensionError, match=message):
        distances_to(points, queries, kind)


def test_paired_cosine_rejects_zero_rows():
    points, queries = paired_block(C, 4, 3, seed=5, integral=False)
    for block in (points, queries):
        block[2] = 0.0
        with pytest.raises(DegenerateInputError):
            distances_to(points, queries, C)
        block[2] = 1.0
