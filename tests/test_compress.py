import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chess_search import (BuildConfig, ChessError, Dataset, DatasetKind,
                          FormatError, MetricKind, Quantizer, build,
                          compress_tree, decode_leaf, decompress, encode_leaf,
                          naive_search, quantize, save_dense, synth_manifold)
from chess_search.compress import DEFAULT_QUANTUM, LeafDeltaBlock

from conftest import synth_aligned_strings

E = MetricKind.EUCLIDEAN
H = MetricKind.HAMMING


def grid(values: np.ndarray, quantum: float) -> np.ndarray:
    return np.sign(values) * np.floor(np.abs(values) / quantum + 0.5) * quantum


def test_default_quantum_value():
    assert DEFAULT_QUANTUM == 10.0 ** (-12.2 / 2.5)
    assert Quantizer().quantum == DEFAULT_QUANTUM


def test_quantize_examples():
    assert quantize(np.array([0.0]), 0.5).tolist() == [0]
    q = 0.37
    values = np.array([3 * q + q / 4, 0.5 * q, -0.5 * q, -3 * q - q / 4])
    # halves round away from zero
    assert quantize(values, q).tolist() == [3, 1, -1, -3]


def test_quantize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize(np.array([1.0, float("nan")]), 1.0)
    for bad in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            quantize(np.array([1.0]), bad)
    with pytest.raises(ValueError):
        Quantizer(0.0)
    with pytest.raises(ValueError):
        Quantizer(-1e-3)


def test_quantize_roundtrip_error_bound():
    rng = np.random.default_rng(7)
    values = rng.uniform(-1e4, 1e4, size=1_000_000)
    q = DEFAULT_QUANTUM * 50
    grid_vals = quantize(values, q) * q
    assert np.abs(values - grid_vals).max() <= q / 2
    # one element at a time gives the same grid indices as the whole block
    for x, g in zip(values[:200], grid_vals[:200]):
        assert quantize(np.array([x]), q)[0] * q == g


def test_encode_all_members_equal_center_is_tiny():
    ds = Dataset.from_vectors(np.tile([3.0, 4.0, 5.0], (50, 1)))
    tree = build(ds, E, BuildConfig(seed=0))
    block = encode_leaf(tree.center[0], tree.order, tree.radius[0], ds, Quantizer())
    assert block.member_count == 50
    assert len(block.compressed_body) < 40  # deflate of 150 zero varints
    decoded = decode_leaf(block, ds, Quantizer())
    assert np.array_equal(decoded, grid(ds.values, DEFAULT_QUANTUM))


def test_string_edit_list_length_equals_hamming_distance():
    rows = ["ACGTACGT", "ACGAACGT", "ACGTAC--", "ACGTACGT"[::-1]]
    ds = Dataset.from_strings(rows)
    tree = build(ds, H, BuildConfig(min_size=10, seed=0))
    block = encode_leaf(tree.center[0], tree.order, tree.radius[0], ds, Quantizer())
    decoded = decode_leaf(block, ds, Quantizer())
    assert np.array_equal(decoded, ds.values[tree.order])
    # per-member edit counts are the Hamming distances to the center
    body = zlib.decompress(block.compressed_body, wbits=-15)
    center = ds.values[tree.center[0]]
    pos = 0
    for idx in tree.order.tolist():
        count = body[pos]  # single-byte varints here
        expected = int((ds.values[idx] != center).sum())
        assert count == expected
        pos += 1 + 5 * count


def test_edit_bound_violation_is_detected():
    ds = Dataset.from_strings(["AAAA", "CCCC"])
    tree = build(ds, H, BuildConfig(seed=0))
    # lie about the radius: a member sits at Hamming distance 4
    with pytest.raises(ChessError, match="exceed leaf radius"):
        encode_leaf(tree.center[0], tree.order, 1.0, ds, Quantizer())


def test_dense_roundtrip_lands_on_grid_and_is_idempotent(tmp_path):
    ds = synth_manifold(400, 12, 2, 0.3, seed=17)
    tree = build(ds, E, BuildConfig(max_depth=12, min_size=6, seed=1))
    path = tmp_path / "a.chess"
    compress_tree(tree, ds, Quantizer(), path)
    once = decompress(path)
    assert np.array_equal(once.values, grid(ds.values, DEFAULT_QUANTUM))
    tree2 = build(once, E, BuildConfig(max_depth=12, min_size=6, seed=1))
    path2 = tmp_path / "b.chess"
    compress_tree(tree2, once, Quantizer(), path2)
    twice = decompress(path2)
    assert np.array_equal(twice.values, once.values)


def test_strings_roundtrip_bit_exact(tmp_path):
    ds = synth_aligned_strings(600, 80, 6, 0.02, seed=23)
    tree = build(ds, H, BuildConfig(max_depth=20, min_size=8, seed=2))
    path = tmp_path / "s.chess"
    compress_tree(tree, ds, Quantizer(), path)
    back = decompress(path)
    assert back.kind is DatasetKind.ALIGNED_STRINGS
    assert np.array_equal(back.values, ds.values)


def test_duplicate_rich_archive_beats_raw_and_deflate(tmp_path):
    rng = np.random.default_rng(29)
    base = rng.uniform(0, 1000, size=(300, 24))
    copies = (base[None, :, :]
              + rng.normal(0, 25 * DEFAULT_QUANTUM, size=(12, 300, 24)))
    ds = Dataset.from_vectors(copies.reshape(3600, 24))
    tree = build(ds, E, BuildConfig(max_depth=40, min_size=10, seed=3))
    raw_path, arc_path = tmp_path / "raw.vec", tmp_path / "arc.chess"
    save_dense(ds, raw_path)
    compress_tree(tree, ds, Quantizer(), arc_path)
    raw = raw_path.stat().st_size
    archived = arc_path.stat().st_size
    assert archived < raw
    assert archived < len(zlib.compress(raw_path.read_bytes(), 6))


def test_corrupt_block_is_rejected(tmp_path):
    ds = synth_manifold(150, 6, 1, 0.1, seed=31)
    tree = build(ds, E, BuildConfig(max_depth=8, min_size=5, seed=4))
    path = tmp_path / "c.chess"
    compress_tree(tree, ds, Quantizer(), path)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF  # flip a byte inside the final block's payload/crc
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        decompress(path)


def test_compress_requires_matching_dataset(tmp_path):
    ds = synth_manifold(100, 5, 1, 0.1, seed=37)
    other = synth_manifold(100, 5, 1, 0.1, seed=38)
    tree = build(ds, E, BuildConfig(seed=5))
    with pytest.raises(ValueError, match="not built over"):
        compress_tree(tree, other, Quantizer(), tmp_path / "x.chess")


def test_block_wire_roundtrip():
    ds = Dataset.from_vectors(np.arange(12.0).reshape(4, 3))
    tree = build(ds, E, BuildConfig(min_size=10, seed=0))
    block = encode_leaf(tree.center[0], tree.order, tree.radius[0], ds, Quantizer())
    raw = block.to_bytes()
    parsed, end = LeafDeltaBlock.from_bytes(raw, 0)
    assert end == len(raw)
    assert parsed == block


def test_search_agrees_on_decompressed_corpus(tmp_path):
    # pick a radius in a wide gap of the distance distribution so the
    # quantum-sized displacements cannot flip any membership decision
    ds = synth_manifold(500, 10, 1, 0.05, seed=41)
    tree = build(ds, E, BuildConfig(max_depth=15, min_size=6, seed=6))
    path = tmp_path / "g.chess"
    compress_tree(tree, ds, Quantizer(), path)
    back = decompress(path)
    q = ds.values[11]
    dists = np.sort(np.linalg.norm(ds.values - q, axis=1))
    gaps = np.diff(dists)
    safe = DEFAULT_QUANTUM * np.sqrt(ds.dim) * 4
    i = int(np.argmax(gaps > safe))
    radius = float((dists[i] + dists[i + 1]) / 2)
    assert radius >= DEFAULT_QUANTUM * np.sqrt(ds.dim)
    got = naive_search(back, q, radius, E).hit_indices()
    want = naive_search(ds, q, radius, E).hit_indices()
    assert got == want


def test_malformed_blocks_raise_format_error():
    payload = b"abc"  # shorter than a block header, under a valid CRC
    raw = len(payload).to_bytes(8, "little") + payload \
        + zlib.crc32(payload).to_bytes(4, "little")
    with pytest.raises(FormatError, match="shorter than its header"):
        LeafDeltaBlock.from_bytes(raw, 0)
    ds = Dataset.from_strings(["ACGT"])
    # one member with one edit at position 9 of a length-4 string
    body = bytes([1]) + (9).to_bytes(4, "little") + b"A"
    deflate = zlib.compressobj(wbits=-15)
    block = LeafDeltaBlock(DatasetKind.ALIGNED_STRINGS, 0, 1,
                           deflate.compress(body) + deflate.flush())
    with pytest.raises(FormatError, match="edit position 9 out of range"):
        decode_leaf(block, ds)


@pytest.fixture(scope="module")
def fuzz_archives(tmp_path_factory):
    """(archive bytes, decoded values) of a small dense and a small string
    archive."""
    out = []
    for ds, metric in ((synth_manifold(40, 3, 1, 0.1, seed=43), E),
                       (synth_aligned_strings(40, 12, 3, 0.1, seed=44), H)):
        path = tmp_path_factory.mktemp("fuzz") / "a.chess"
        compress_tree(build(ds, metric, BuildConfig(max_depth=5, min_size=4, seed=1)),
                      ds, Quantizer(), path)
        out.append((path.read_bytes(), decompress(path).values))
    return out


def _decodes_or_fails(raw, want, path):
    path.write_bytes(raw)
    try:
        got = decompress(path)
    except FormatError:
        return
    assert np.array_equal(got.values, want)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1), st.lists(st.floats(0, 1, exclude_max=True), min_size=1,
                                   max_size=3, unique=True))
def test_archive_bit_flips_fail_loudly(fuzz_archives, tmp_path_factory, which, where):
    raw, want = fuzz_archives[which]
    flipped = bytearray(raw)
    for bit in sorted({int(w * 8 * len(raw)) for w in where}):
        flipped[bit // 8] ^= 1 << (bit % 8)
    _decodes_or_fails(bytes(flipped), want,
                      tmp_path_factory.getbasetemp() / "flipped.chess")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 1), st.floats(0, 1, exclude_max=True))
def test_truncated_archive_fails_loudly(fuzz_archives, tmp_path_factory, which, where):
    raw, _ = fuzz_archives[which]
    path = tmp_path_factory.getbasetemp() / "truncated.chess"
    path.write_bytes(raw[:int(where * len(raw))])
    with pytest.raises(FormatError):
        decompress(path)
