import copy
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chess_search import (Dataset, DatasetKind, DimensionError, FormatError,
                          load_dense, load_sequences, save_dense, synth_manifold)
from chess_search.metrics import _coordinate_bound


def test_header_echo(tmp_path):
    path = tmp_path / "d.vec"
    save_dense(Dataset.from_vectors([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), path)
    ds = load_dense(path)
    assert (ds.n, ds.dim) == (2, 3)
    assert ds.kind is DatasetKind.DENSE_VECTORS


def test_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(100):
        n, dim = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        ds = Dataset.from_vectors(rng.standard_normal((n, dim)) * 100)
        p1, p2 = tmp_path / f"a{i}.vec", tmp_path / f"b{i}.vec"
        save_dense(ds, p1)
        loaded = load_dense(p1)
        save_dense(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(ds.values, loaded.values)


def test_single_value_file_size(tmp_path):
    # 25-byte header (magic + version + n + dim), its CRC32 and one value
    path = tmp_path / "one.vec"
    save_dense(Dataset.from_vectors([[7.0]]), path)
    assert path.stat().st_size == 37


def test_truncated_payload_names_offset(tmp_path):
    path = tmp_path / "t.vec"
    save_dense(Dataset.from_vectors([[1.0, 2.0], [3.0, 4.0]]), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="byte offset"):
        load_dense(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.vec"
    path.write_bytes(b"NOTCHESS" + bytes(25))
    with pytest.raises(FormatError, match="magic at byte offset 0"):
        load_dense(path)


def test_non_finite_value_names_offset(tmp_path):
    path = tmp_path / "nan.vec"
    ds = Dataset.from_vectors([[1.0, 2.0], [3.0, 4.0]])
    raw = bytearray(ds.to_canonical_bytes())
    raw[29 + 8 * 2:29 + 8 * 3] = np.float64("nan").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"byte offset {29 + 16}"):
        load_dense(path)


def test_empty_dataset_rejected():
    with pytest.raises(DimensionError):
        Dataset.from_vectors(np.empty((0, 3)))
    with pytest.raises(DimensionError):
        Dataset.from_strings([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructor_rejects_non_finite_dense_values(bad):
    # NaN used to end a build in a bare ZeroDivisionError, and inf in a
    # tree whose root radius its own file format refuses
    values = synth_manifold(20, 3, 1, 0.1, seed=1).values.copy()
    values[7, 1] = bad
    for make in (lambda: Dataset(DatasetKind.DENSE_VECTORS, values),
                 lambda: Dataset.from_vectors(values)):
        with pytest.raises(DimensionError, match="dense values must be finite"):
            make()


def test_coordinates_beyond_the_bound_are_refused(tmp_path):
    # a Euclidean distance between these overflowed to inf, so a search
    # silently missed points; the bound keeps every squared sum finite
    b = _coordinate_bound(2)
    for big in (1e200, -1e200, np.nextafter(b, np.inf)):
        with pytest.raises(DimensionError, match="at row 1, index 0 is beyond"):
            Dataset.from_vectors([[0.0, 1.0], [big, 0.0], [1.5e200, 0.0]])
        with pytest.raises(DimensionError, match="at index 1 is beyond"):
            Dataset.from_vectors([[1.0, 2.0]]).coerce_point([0.0, big])
    ds = Dataset.from_vectors([[b, -b], [-b, b]])
    assert ds.coerce_point([b, b]).tolist() == [b, b]
    # a file holding such a value is a format error at the value's offset
    path = tmp_path / "big.vec"
    raw = bytearray(ds.to_canonical_bytes())
    raw[29 + 8 * 3:29 + 8 * 4] = np.float64(1e200).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"1e\\+200 at row 1, index 1 is beyond .*, "
                                          f"at byte offset {29 + 24}$"):
        load_dense(path)


def test_constructor_takes_no_hash():
    # a planted digest let a tree built over other data search this one
    a = synth_manifold(20, 3, 1, 0.1, seed=1)
    b = synth_manifold(20, 3, 1, 0.1, seed=2)
    with pytest.raises(TypeError):
        Dataset(DatasetKind.DENSE_VECTORS, b.values, a.content_hash())
    assert Dataset(DatasetKind.DENSE_VECTORS, b.values).content_hash() == \
        b.content_hash()


def test_save_dense_rejects_strings(tmp_path):
    ds = Dataset.from_strings(["ACGT"])
    with pytest.raises(DimensionError):
        save_dense(ds, tmp_path / "x.vec")


def test_sequences_duplicates_removed(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("ACGT\nACGT\n")
    assert load_sequences(path).n == 1
    # the first occurrence keeps its place
    path.write_text("ACGT\nAC-T\nACGT\nGGGG\n")
    ds = load_sequences(path)
    assert [row.tobytes() for row in ds.values] == [b"ACGT", b"AC-T", b"GGGG"]


def test_sequences_basic(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("ACGT\nAC-T\n")
    ds = load_sequences(path)
    assert (ds.n, ds.dim) == (2, 4)
    assert ds.values[1].tobytes() == b"AC-T"


def test_sequences_illegal_character_names_column(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("ACGT\nACXT\n")
    with pytest.raises(FormatError, match="line 2, column 3"):
        load_sequences(path)


@pytest.mark.parametrize("raw, where, what", [
    (b"ACGT\n\xff\xfeAC\n", "line 2, column 1", "illegal byte 0xff"),
    ("\ufeffACGT\nACGT\n".encode(), "line 1, column 1", "illegal byte 0xef"),
    # ``str.upper`` would turn the sharp s into "SS"; its bytes stay as they are
    ("ACGT\nA\u00dfC\n".encode(), "line 2, column 2", "illegal byte 0xc3"),
])
def test_sequences_refuse_bytes_outside_the_alphabet(tmp_path, raw, where, what):
    path = tmp_path / "s.txt"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=f"{what} at {where}$"):
        load_sequences(path)


@pytest.mark.parametrize("values, message", [
    (np.frombuffer(b"ACGTACNT", dtype=np.uint8).reshape(2, 4),
     "illegal character 'N' at row 1, index 2"),
    (np.frombuffer(b"ACGTACGT", dtype=np.uint8).reshape(2, 4).astype(np.int64),
     "expected a string dataset of uint8 codes, got dtype int64"),
])
def test_string_datasets_are_checked_when_constructed(values, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        Dataset(DatasetKind.ALIGNED_STRINGS, values)


def test_sequences_unequal_length_names_line(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("ACGT\nACG\n")
    with pytest.raises(FormatError, match="line 2"):
        load_sequences(path)


def test_sequences_fasta_headers_case_and_crlf(tmp_path):
    path = tmp_path / "s.fasta"
    path.write_bytes(b">record one\r\nacgt\r\n>record two\nAC-T\n")
    ds = load_sequences(path)
    assert ds.n == 2
    assert ds.values[0].tobytes() == b"ACGT"


def test_synth_deterministic():
    a = synth_manifold(50, 12, 2, 0.05, seed=9)
    b = synth_manifold(50, 12, 2, 0.05, seed=9)
    assert np.array_equal(a.values, b.values)
    c = synth_manifold(50, 12, 2, 0.05, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_synth_full_dimensional_degenerate_case():
    ds = synth_manifold(200, 5, 5, 0.0, seed=1)
    assert (ds.n, ds.dim) == (200, 5)
    assert ds.values.min() == 0.0
    assert np.linalg.matrix_rank(ds.values - ds.values[0]) == 5


def test_synth_nonnegative_and_finite():
    ds = synth_manifold(300, 20, 3, 0.5, seed=2)
    assert ds.values.min() >= 0.0
    assert np.isfinite(ds.values).all()


def test_synth_parameter_validation():
    with pytest.raises(ValueError):
        synth_manifold(10, 5, 6, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_manifold(10, 5, 0, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_manifold(1, 5, 1, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_manifold(10, 5, 1, -0.1, seed=0)
    for power in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="density_power"):
            synth_manifold(10, 5, 1, 0.0, seed=0, density_power=power)


def test_content_hash_matches_file_bytes(tmp_path):
    import hashlib
    ds = synth_manifold(20, 4, 1, 0.0, seed=3)
    path = tmp_path / "h.vec"
    save_dense(ds, path)
    assert ds.content_hash() == hashlib.sha256(path.read_bytes()).digest()


def test_low_intrinsic_dimension_shows_in_lfd_profile():
    from chess_search import BuildConfig, MetricKind, build, lfd_depth_profile
    ds = synth_manifold(2000, 100, 1, 0.0, seed=21)
    tree = build(ds, MetricKind.EUCLIDEAN, BuildConfig(max_depth=30, seed=4))
    profile = lfd_depth_profile(tree, ds)
    low = sum(1 for _, _, lfd in profile if lfd < 2.0)
    assert low / len(profile) > 0.9


def test_appends_reallocate_values_logarithmically():
    ds = Dataset.from_vectors([[0.0, 0.0]])
    k = 200
    reallocations = 0
    for i in range(1, k + 1):
        before = ds.values
        assert ds.append_point([float(i), 1.0]) == i
        reallocations += not np.shares_memory(ds.values, before)
    assert reallocations <= math.ceil(math.log2(k)) + 1
    expected = np.column_stack([np.arange(k + 1.0), np.r_[0.0, np.ones(k)]])
    assert np.array_equal(ds.values, expected)


def test_values_view_survives_appends():
    ds = Dataset.from_vectors(np.arange(6.0).reshape(3, 2))
    ds.append_point([6.0, 7.0])  # the buffer now has spare rows
    view = ds.values
    snapshot = view.copy()
    for i in range(20):  # fills the buffer, then moves to a larger one
        ds.append_point([float(i), -1.0])
        assert np.array_equal(view, snapshot)
    assert np.array_equal(ds.values[:4], snapshot)


def test_deep_copy_of_grown_dataset_is_independent():
    ds = synth_manifold(30, 4, 1, 0.1, seed=5)
    for i in range(5):
        ds.append_point(np.full(4, float(i)))
    n, values, digest = ds.n, ds.values.copy(), ds.content_hash()
    clone = copy.deepcopy(ds)
    for i in range(40):
        clone.append_point(np.full(4, 100.0 + i))
    assert ds.n == n
    assert np.array_equal(ds.values, values)
    assert ds.content_hash() == digest
    assert np.array_equal(clone.values[:n], values)
    ds.append_point(np.full(4, -1.0))
    assert clone.n == n + 40 and clone.values[n, 0] == 100.0



def test_dataset_equality_compares_kind_and_values():
    ds = synth_manifold(10, 3, 1, 0.1, seed=1)
    assert ds == synth_manifold(10, 3, 1, 0.1, seed=1)
    assert ds != synth_manifold(10, 3, 1, 0.1, seed=2)
    assert ds != Dataset.from_vectors(ds.values[:9])  # another shape
    assert ds != Dataset.from_vectors(ds.values.T)
    assert ds != "not a dataset"
    strings = Dataset.from_strings(["ACGT", "AC-T"])
    assert strings == Dataset.from_strings(["ACGT", "AC-T"])
    assert strings != Dataset(DatasetKind.DENSE_VECTORS,
                              strings.values.astype(np.float64))
    # a cached hash and spare buffer capacity do not count
    ds.content_hash()
    ds.append_point(np.zeros(3))
    clone = copy.deepcopy(ds)
    assert clone._buffer is None and ds._buffer is not None
    assert clone == ds and ds == clone
    clone.append_point(np.ones(3))
    assert clone != ds


CHESSVEC = Dataset.from_vectors(np.arange(12.0).reshape(4, 3) / 7).to_canonical_bytes()
HEADER_BITS = 8 * 29  # the header and its CRC32


def _load_or_equal(tmp_path, raw: bytes) -> None:
    """A CHESSVEC stream loads to the original values if it is the
    original stream, and fails loudly otherwise: the header's CRC32 also
    refuses flips that trade bits between ``n`` and ``dim`` while keeping
    ``n * dim`` (4 x 3 read as 12 x 1)."""
    path = tmp_path / "fuzz.vec"
    path.write_bytes(raw)
    if raw != CHESSVEC:
        with pytest.raises(FormatError):
            load_dense(path)
        return
    assert load_dense(path).values.astype("<f8").tobytes() == CHESSVEC[29:]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, HEADER_BITS - 1), min_size=1, max_size=3, unique=True))
@example([8 * 9 + 3, 8 * 17 + 1])  # n 4 -> 12 and dim 3 -> 1: the same values
def test_chessvec_header_bit_flips_fail_loudly(tmp_path_factory, bits):
    raw = bytearray(CHESSVEC)
    for bit in bits:
        raw[bit // 8] ^= 1 << (bit % 8)
    _load_or_equal(tmp_path_factory.mktemp("flip"), bytes(raw))


def test_chessvec_header_checksum_names_its_offset(tmp_path):
    path = tmp_path / "flip.vec"
    raw = bytearray(CHESSVEC)
    raw[9], raw[17] = 12, 1  # 4 x 3 read as 12 x 1
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="header checksum mismatch at byte offset 25$"):
        load_dense(path)
    _load_or_equal(tmp_path, CHESSVEC)


def test_chessvec_version_1_is_refused(tmp_path):
    # version 1 had no header CRC: its files, and trees built on them,
    # must be written again
    path = tmp_path / "v1.vec"
    v1 = struct.pack("<8sBQQ", b"CHESSVEC", 1, 4, 3) + CHESSVEC[29:]
    path.write_bytes(v1)
    with pytest.raises(FormatError, match="unsupported version 1 at byte offset 8$"):
        load_dense(path)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(CHESSVEC) - 1))
def test_truncated_chessvec_fails_loudly(tmp_path_factory, length):
    path = tmp_path_factory.mktemp("cut") / "cut.vec"
    path.write_bytes(CHESSVEC[:length])
    with pytest.raises(FormatError):
        load_dense(path)
