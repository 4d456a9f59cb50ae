import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chess_search import (ComparisonCounter, DegenerateInputError,
                          DimensionError, MetricKind, counted_distance,
                          distance)
from chess_search.metrics import distances_to

E, C, H, L = (MetricKind.EUCLIDEAN, MetricKind.COSINE, MetricKind.HAMMING,
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
    assert distance((1.0, 0.0), (2.0, 0.0), C) == 0.0


def test_levenshtein_examples():
    assert distance("ACGT", "AGT", L) == 1.0
    assert distance("AAAA", "CCCC", L) == 4.0
    assert distance("A", "ACGT-", L) == 4.0


def test_metric_properties():
    assert E.obeys_triangle_inequality
    assert H.obeys_triangle_inequality
    assert L.obeys_triangle_inequality
    assert not C.obeys_triangle_inequality
    assert E.for_vectors and C.for_vectors
    assert not H.for_vectors and not L.for_vectors


def test_counter_increments_by_exactly_one():
    counter = ComparisonCounter()
    counted_distance((1.0, 2.0), (3.0, 4.0), E, counter)
    assert counter.count == 1
    for _ in range(9):
        counted_distance((1.0, 2.0), (3.0, 4.0), E, counter)
    assert counter.count == 10


def test_counted_equals_uncounted_on_random_pairs():
    rng = np.random.default_rng(5)
    counter = ComparisonCounter()
    for _ in range(100):
        a, b = rng.random(8), rng.random(8)
        assert counted_distance(a, b, E, counter) == distance(a, b, E)
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


def test_cosine_violates_triangle_inequality():
    a, b, c = (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)
    assert distance(a, c, C) > distance(a, b, C) + distance(b, c, C)


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
def test_levenshtein_block_property(rows, q):
    assert levenshtein_block(rows, q) == [
        reference_levenshtein(row, q) for row in rows]


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
        if kind is C:  # cosine is undefined on zero rows
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
    with pytest.raises(DimensionError):
        distances_to(points, queries.astype(np.int64), H)


def test_paired_cosine_rejects_zero_rows():
    points, queries = paired_block(C, 4, 3, seed=5, integral=False)
    for block in (points, queries):
        block[2] = 0.0
        with pytest.raises(DegenerateInputError):
            distances_to(points, queries, C)
        block[2] = 1.0
