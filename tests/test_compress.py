import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chess_search import (BuildConfig, ChessError, Dataset, DatasetKind,
                          FormatError, MetricKind, Quantizer, build,
                          compress_tree, decode_leaf, decompress, encode_leaf,
                          naive_search, quantize, save_dense, synth_manifold)
from chess_search import compress
from chess_search.compress import (DEFAULT_QUANTUM, LeafDeltaBlock, _batches,
                                   _decode_strings, _decode_varints,
                                   _dense_blocks, _encode_varints, _read_varint,
                                   _strings_body)
from chess_search.data import _VEC_HEADER
from chess_search.tree import tree_from_bytes, tree_to_bytes

from conftest import synth_aligned_strings

E = MetricKind.EUCLIDEAN
H = MetricKind.HAMMING


def grid(values: np.ndarray, quantum: float) -> np.ndarray:
    return np.sign(values) * np.floor(np.abs(values) / quantum + 0.5) * quantum


def reference_encode_varints(values: np.ndarray) -> bytes:
    """Value-at-a-time LEB128, as the codec wrote before it was batched."""
    out = bytearray()
    for v in values.tolist():
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


def reference_decode_varints(buf: bytes, pos: int,
                             count: int) -> tuple[np.ndarray, int]:
    """Byte-at-a-time LEB128, as the codec read before it was batched."""
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


def decode_bodies(bodies: list[bytes], counts: list[int]) -> np.ndarray:
    buf = np.frombuffer(b"".join(bodies), dtype=np.uint8)
    return _decode_varints(buf, np.cumsum([len(b) for b in bodies], dtype=np.int64),
                           np.array(counts, dtype=np.int64))


def deflate(body: bytes) -> bytes:
    enc = zlib.compressobj(wbits=-15)
    return enc.compress(body) + enc.flush()


def archive_layout(raw: bytes) -> tuple[int, int, int]:
    """Offsets of an archive's centers section, of its first center row
    and of its first leaf block."""
    tree, start = tree_from_bytes(raw)
    header, itemsize = ((_VEC_HEADER, 8) if tree.metric.for_vectors
                        else (struct.Struct("<QQ"), 1))
    *_, count, dim = header.unpack_from(raw, start + 8)
    rows = start + 8 + header.size
    return start, rows, rows + count * dim * itemsize + 4


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


def test_encode_all_members_equal_center_is_tiny(tmp_path):
    ds = Dataset.from_vectors(np.tile([3.0, 4.0, 5.0], (50, 1)))
    tree = build(ds, E, BuildConfig(seed=0))
    [block] = _dense_blocks(tree, ds, DEFAULT_QUANTUM)
    assert block.member_count == 50
    assert len(block.compressed_body) < 40  # deflate of 150 zero varints
    path = tmp_path / "a.chess"
    compress_tree(tree, ds, Quantizer(), path)
    assert np.array_equal(decompress(path).values, grid(ds.values, DEFAULT_QUANTUM))


def test_string_edit_list_length_equals_hamming_distance():
    rows = ["ACGTACGT", "ACGAACGT", "ACGTAC--", "ACGTACGT"[::-1]]
    ds = Dataset.from_strings(rows)
    tree = build(ds, H, BuildConfig(min_size=10, seed=0))
    center, n = int(tree.center[0]), tree.order.size
    body = _strings_body(ds, center, tree.order, tree.radius[0])
    block = encode_leaf(DatasetKind.ALIGNED_STRINGS, center, n, body)
    assert decode_leaf(block, 0, center, n) == body
    decoded = _decode_strings(body, ds.values[center], n)
    assert np.array_equal(decoded, ds.values[tree.order])
    # per-member edit counts are the Hamming distances to the center
    pos = 0
    for idx in tree.order.tolist():
        count = body[pos]  # single-byte varints here
        expected = int((ds.values[idx] != ds.values[center]).sum())
        assert count == expected
        pos += 1 + 5 * count


def test_edit_bound_violation_is_detected():
    ds = Dataset.from_strings(["AAAA", "CCCC"])
    tree = build(ds, H, BuildConfig(seed=0))
    # lie about the radius: a member sits at Hamming distance 4
    with pytest.raises(ChessError, match="exceed leaf radius"):
        _strings_body(ds, tree.center[0], tree.order, 1.0)


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
    body, _ = _encode_varints(np.arange(12, dtype=np.uint64) * 1000)
    block = encode_leaf(DatasetKind.DENSE_VECTORS, 2, 4, body.tobytes())
    raw = block.to_bytes()
    parsed, end = LeafDeltaBlock.from_bytes(raw, 0, DatasetKind.DENSE_VECTORS)
    assert end == len(raw)
    assert parsed == block
    assert decode_leaf(parsed, 0, 2, 4) == body.tobytes()
    for center, count in ((3, 4), (2, 5)):
        with pytest.raises(FormatError, match="block 7 does not match leaf 7"):
            decode_leaf(parsed, 7, center, count)


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
        LeafDeltaBlock.from_bytes(raw, 0, DatasetKind.DENSE_VECTORS)
    ds = Dataset.from_strings(["ACGT"])
    # one member with one edit at position 9 of a length-4 string
    body = bytes([1]) + (9).to_bytes(4, "little") + b"A"
    block = LeafDeltaBlock(DatasetKind.ALIGNED_STRINGS, 0, 1, deflate(body))
    with pytest.raises(FormatError, match="edit position 9 out of range"):
        _decode_strings(decode_leaf(block, 0, 0, 1), ds.values[0], 1)


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


SPECIAL_U64 = [0, 1, 127, 128, 16_383, 16_384, 2**63 - 1, 2**63, 2**64 - 1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(SPECIAL_U64), st.integers(0, 300),
                          st.integers(0, 2**64 - 1)), max_size=40))
@example([])
@example(SPECIAL_U64)
def test_varint_codec_matches_reference(values):
    arr = np.array(values, dtype=np.uint64)
    buf, ends = _encode_varints(arr)
    want = reference_encode_varints(arr)
    assert buf.dtype == np.uint8 and buf.tobytes() == want
    assert ends.tolist() == np.cumsum(
        [len(reference_encode_varints(arr[i:i + 1])) for i in range(arr.size)],
        dtype=np.int64).tolist()
    assert np.array_equal(reference_decode_varints(want, 0, arr.size)[0], arr)
    got = decode_bodies([want], [arr.size])
    assert got.dtype == np.uint64 and np.array_equal(got, arr)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.sampled_from(SPECIAL_U64),
                                   st.integers(0, 2**64 - 1)), max_size=6),
                min_size=1, max_size=5))
def test_varint_bodies_decode_as_one_batch(groups):
    bodies = [reference_encode_varints(np.array(g, dtype=np.uint64)) for g in groups]
    got = decode_bodies(bodies, [len(g) for g in groups])
    assert got.tolist() == [v for g in groups for v in g]


STREAM = np.array([0, 127, 128, 300, 2**63, 2**64 - 1, 5], dtype=np.uint64)


def test_truncated_varints_name_the_reference_offset():
    stream = reference_encode_varints(STREAM)
    head = reference_encode_varints(STREAM[:2])
    for cut in range(len(stream)):
        with pytest.raises(FormatError) as want:
            reference_decode_varints(stream[:cut], 0, STREAM.size)
        assert str(want.value) == f"truncated varint at byte offset {cut}"
        # alone, and as the middle body of a batch: offsets are per body
        for bodies, counts in (([stream[:cut]], [STREAM.size]),
                               ([head, stream[:cut], head], [2, STREAM.size, 2])):
            with pytest.raises(FormatError) as got:
                decode_bodies(bodies, counts)
            assert str(got.value) == str(want.value)


def test_trailing_varint_bytes_name_their_offset():
    stream = reference_encode_varints(STREAM)
    for extra in (b"\x00", b"\x81", b"\x81\x01"):
        with pytest.raises(FormatError, match="trailing bytes in block body at "
                                              f"offset {len(stream)}$"):
            decode_bodies([stream, stream + extra], [STREAM.size, STREAM.size])
    with pytest.raises(FormatError, match="trailing bytes in block body at offset 0$"):
        decode_bodies([b"\x05"], [0])


@pytest.mark.parametrize("varint", [bytes([0xFF] * 10 + [0x01]),  # 11 bytes
                                    bytes([0x80] * 9 + [0x02]),   # a 65th bit
                                    bytes([0x80] * 12),           # unterminated
                                    bytes([0x80] * 15 + [0x00])])
def test_over_long_varint_is_a_format_error(varint):
    head = reference_encode_varints(STREAM)
    with pytest.raises(FormatError, match="varint longer than 64 bits at byte "
                                          f"offset {len(head)}$"):
        decode_bodies([head, head + varint + head], [STREAM.size, 2 * STREAM.size + 1])
    with pytest.raises(FormatError, match="longer than 64 bits at byte offset 3$"):
        _read_varint(b"\x00\x00\x00" + varint, 3)
    # a varint past the member's count is trailing, not over-long
    with pytest.raises(FormatError, match=f"trailing bytes .* offset {len(head)}$"):
        decode_bodies([head + varint], [STREAM.size])


def test_longest_varint_decodes():
    assert reference_encode_varints(STREAM[5:6]) == bytes([0xFF] * 9 + [0x01])
    assert _read_varint(bytes([0xFF] * 9 + [0x01]), 0) == (2**64 - 1, 10)
    assert decode_bodies([bytes([0xFF] * 9 + [0x01])], [1]).tolist() == [2**64 - 1]


def small_archive(tmp_path) -> bytes:
    ds = synth_manifold(150, 6, 1, 0.1, seed=31)
    tree = build(ds, E, BuildConfig(max_depth=8, min_size=5, seed=4))
    path = tmp_path / "c.chess"
    compress_tree(tree, ds, Quantizer(), path)
    return path.read_bytes()


@pytest.mark.parametrize("leaf", [0, 3])
def test_over_long_varint_in_archive_is_a_format_error(tmp_path, leaf):
    raw = small_archive(tmp_path)
    *_, pos = archive_layout(raw)
    for _ in range(leaf):
        _, pos = LeafDeltaBlock.from_bytes(raw, pos, DatasetKind.DENSE_VECTORS)
    block, end = LeafDeltaBlock.from_bytes(raw, pos, DatasetKind.DENSE_VECTORS)
    body = zlib.decompress(block.compressed_body, wbits=-15)
    _, first = reference_decode_varints(body, 0, 1)
    forged = LeafDeltaBlock(block.kind, block.center_index, block.member_count,
                            deflate(body[:first] + bytes([0xFF] * 10 + [0x01])
                                    + body[first:]))
    path = tmp_path / "forged.chess"
    path.write_bytes(raw[:pos] + forged.to_bytes() + raw[end:])  # CRC-valid
    with pytest.raises(FormatError, match="varint longer than 64 bits at byte "
                                          f"offset {first}$"):
        decompress(path)


@pytest.mark.parametrize("which, flag, message", [
    (0, 7, "unknown block kind 7"), (0, 1, "strings block in a dense archive"),
    (1, 0, "dense block in a strings archive")])
def test_block_kind_must_match_the_archive(fuzz_archives, tmp_path, which, flag,
                                           message):
    raw, _ = fuzz_archives[which]
    *_, pos = archive_layout(raw)
    (length,) = struct.unpack_from("<Q", raw, pos)
    kind_at, end = pos + 8, pos + 8 + length
    payload = bytes([flag]) + raw[kind_at + 1:end]
    path = tmp_path / "forged.chess"  # the first block rewritten, CRC-valid
    path.write_bytes(raw[:kind_at] + payload + struct.pack("<I", zlib.crc32(payload))
                     + raw[end + 4:])
    with pytest.raises(FormatError, match=f"{message} at byte offset {kind_at}$"):
        decompress(path)


def test_compress_rejects_values_beyond_the_int64_grid(tmp_path):
    ds = Dataset.from_vectors([[1e15, 1], [2e15, 2], [3e15, 5]])
    tree = build(ds, E, BuildConfig(seed=0))
    with pytest.raises(ValueError, match="magnitude 3e\\+15"):
        compress_tree(tree, ds, Quantizer(), tmp_path / "big.chess")


def rewrite_centers(raw: bytes, offset: int, field: bytes) -> bytes:
    """The archive with ``field`` written at ``offset`` of its centers
    section and that section's CRC fixed."""
    start, _, blocks = archive_layout(raw)
    forged = bytearray(raw)
    forged[offset:offset + len(field)] = field
    forged[blocks - 4:blocks] = struct.pack("<I", zlib.crc32(forged[start:blocks - 4]))
    return bytes(forged)


@pytest.mark.parametrize("quantum", [0.0, -1e-3, float("nan"), float("inf")])
def test_bad_quantum_in_archive_is_a_format_error(tmp_path, quantum):
    raw = small_archive(tmp_path)
    start, _, _ = archive_layout(raw)
    path = tmp_path / "forged.chess"
    path.write_bytes(rewrite_centers(raw, start, struct.pack("<d", quantum)))
    with pytest.raises(FormatError, match=f"at byte offset {start}$"):
        decompress(path)


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_non_finite_center_in_archive_is_a_format_error(tmp_path, value):
    raw = small_archive(tmp_path)
    _, rows, _ = archive_layout(raw)
    offset = rows + 8 * 7  # the second center's second coordinate (dim 6)
    path = tmp_path / "forged.chess"
    path.write_bytes(rewrite_centers(raw, offset, struct.pack("<d", value)))
    with pytest.raises(FormatError, match="non-finite center coordinate at byte "
                                          f"offset {offset}$"):
        decompress(path)


def test_out_of_range_center_in_archive_is_a_format_error(tmp_path):
    raw = small_archive(tmp_path)
    _, rows, _ = archive_layout(raw)
    path = tmp_path / "forged.chess"  # beyond the int64 grid of any quantum
    path.write_bytes(rewrite_centers(raw, rows, struct.pack("<d", 1e300)))
    with pytest.raises(FormatError, match="out-of-range center coordinate at "
                                          f"byte offset {rows}$"):
        decompress(path)


def pinned_corpus(metric: MetricKind):
    """A tree and dataset whose archive is pinned. Dense coordinates are
    multiples of 1/64 drawn as integers, so every distance, and with it
    the tree, is exact on any platform."""
    if metric is E:
        rng = np.random.default_rng(53)
        t = rng.integers(0, 2000, size=(400, 1))
        ds = Dataset.from_vectors((t * rng.integers(-3, 4, size=(1, 12))
                                   + rng.integers(-40, 41, size=(400, 12))) / 64)
        return build(ds, E, BuildConfig(max_depth=12, min_size=6, seed=1)), ds
    ds = synth_aligned_strings(600, 80, 6, 0.02, seed=23)
    return build(ds, H, BuildConfig(max_depth=20, min_size=8, seed=2)), ds


#: SHA-256 of everything an archive holds after its tree stream, as the
#: leaf-at-a-time codec wrote it
PINNED = {
    E: "f3a339beb81946ee749d8e6aa8e217457797e69b476fef242c41df48b101f371",
    H: "b4b869ba7b6332eaaaa5ae5665d05bf80422eca3fa5321558db6cb728abd666f",
}


@pytest.mark.parametrize("metric", [E, H], ids=["dense", "hamming"])
def test_archive_bytes_are_pinned(tmp_path, metric):
    # the tree stream is checked against the tree instead: it carries
    # fractal dimensions from np.log, whose last bit may vary by platform
    tree, ds = pinned_corpus(metric)
    path = tmp_path / "p.chess"
    compress_tree(tree, ds, Quantizer(), path)
    raw = path.read_bytes()
    start, _, _ = archive_layout(raw)
    assert raw[:start] == tree_to_bytes(tree)
    assert hashlib.sha256(raw[start:]).hexdigest() == PINNED[metric]
    back = decompress(path)
    assert np.array_equal(back.values, ds.values if metric is H
                          else grid(ds.values, DEFAULT_QUANTUM))


@pytest.mark.parametrize("batch", [1, 7, 600, 5_000])
def test_archive_bytes_do_not_depend_on_batch_size(tmp_path, monkeypatch, batch):
    tree, ds = pinned_corpus(E)
    path = tmp_path / "p.chess"
    compress_tree(tree, ds, Quantizer(), path)
    want = path.read_bytes()
    monkeypatch.setattr(compress, "_BATCH_VALUES", batch)
    compress_tree(tree, ds, Quantizer(), path)
    assert path.read_bytes() == want
    assert np.array_equal(decompress(path).values, grid(ds.values, DEFAULT_QUANTUM))


def test_batches_are_bounded_by_values(monkeypatch):
    monkeypatch.setattr(compress, "_BATCH_VALUES", 10)
    # leaves of 3, 2, 95, 1, 1 and 2 points with two values each
    offsets = np.array([0, 3, 5, 100, 101, 102, 104])
    assert _batches(offsets, 2) == [(0, 2), (2, 3), (3, 6)]
    assert _batches(offsets, 20) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]


def test_encode_and_decode_leaf_run_once_per_leaf(tmp_path, monkeypatch):
    calls = {"encode_leaf": 0, "decode_leaf": 0}
    for name in calls:
        def counted(*args, _f=getattr(compress, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(compress, name, counted)
    for metric in (E, H):
        tree, ds = pinned_corpus(metric)
        compress_tree(tree, ds, Quantizer(), tmp_path / "p.chess")
        decompress(tmp_path / "p.chess")
        leaves = int((tree.size == 1).sum())
        assert calls == {"encode_leaf": leaves, "decode_leaf": leaves}
        calls.update(encode_leaf=0, decode_leaf=0)
