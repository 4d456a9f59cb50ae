import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chess_search import (BuildConfig, Dataset, DatasetKind,
                          FormatError, MetricKind, Quantizer, build,
                          compress_tree, decompress, naive_search, save_dense,
                          synth_manifold)
from chess_search import compress
from chess_search.compress import (_ARC_HEADER, _BLOCK_HEADER, DEFAULT_QUANTUM,
                                   _batches, _leaf_blocks, _runs, decode_leaf,
                                   encode_leaf, quantize)
from chess_search.metrics import _coordinate_bound
from chess_search.tree import serialize, tree_from_bytes, tree_to_bytes

from conftest import shifted_strings, synth_aligned_strings

E = MetricKind.EUCLIDEAN
H = MetricKind.HAMMING


def grid(values: np.ndarray, quantum: float) -> np.ndarray:
    return np.sign(values) * np.floor(np.abs(values) / quantum + 0.5) * quantum


#: offset of an archive's header: after the magic and the header's length
HEADER = 16


def first_block(raw: bytes) -> int:
    """Offset of an archive's first block: after its header and CRC32."""
    return HEADER + struct.unpack_from("<Q", raw, 8)[0] + 4


def archive_tree(raw: bytes):
    """The tree an archive holds, and its CHESSTREE stream."""
    stream = zlib.decompress(raw[HEADER + _ARC_HEADER.size:first_block(raw) - 4],
                             wbits=-15)
    return tree_from_bytes(stream)[0], stream


def archive_blocks(raw: bytes) -> list[tuple[int, int, int, int, np.ndarray]]:
    """(offset, end, first leaf, leaf count, delta rows) of every block of
    an archive."""
    tree, _ = archive_tree(raw)
    kind = (DatasetKind.DENSE_VECTORS if tree.metric.for_vectors
            else DatasetKind.ALIGNED_STRINGS)
    dim = _ARC_HEADER.unpack_from(raw, HEADER)[2]
    offsets = tree.leaf_offsets()[1]
    out, pos, leaf = [], first_block(raw), 0
    while pos < len(raw):
        count, rows, end = decode_leaf(raw, pos, kind, offsets, leaf, dim)
        out.append((pos, end, leaf, count, rows))
        pos, leaf = end, leaf + count
    return out


def forge_block(raw: bytes, leaf: int, edit) -> tuple[bytes, int]:
    """The archive with ``edit(rows, head)`` applied to the delta rows of
    the block that holds leaf ``leaf``, whose center row is ``rows[head]``,
    and the block re-encoded under a valid CRC; and that block's offset."""
    offsets = archive_tree(raw)[0].leaf_offsets()[1]
    for pos, end, first, count, rows in archive_blocks(raw):
        if first <= leaf < first + count:
            edit(rows, _runs(offsets, first, first + count)[0][leaf - first])
            kind = compress._KINDS[raw[pos + 8]]  # the flag, after the length
            return raw[:pos] + encode_leaf(kind, first, count, rows) + raw[end:], pos
    raise AssertionError(f"no block holds leaf {leaf}")


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
    # 2**960 is the first quantum whose products with int64 grid indices
    # may overflow
    for bad in (0.0, -1e-3, float("nan"), float("inf"), 2.0 ** 960):
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
    [block] = _leaf_blocks(tree, ds, DEFAULT_QUANTUM)
    _, first, leaves, width = _BLOCK_HEADER.unpack_from(block, 8)  # after the length
    assert (first, leaves) == (0, 1)
    compressed_body = len(block) - 8 - _BLOCK_HEADER.size - 4
    # deflate of the byte planes: each holds the center row's 3 bytes and
    # the members' 150 zeros
    assert compressed_body < 40
    path = tmp_path / "a.chess"
    compress_tree(tree, ds, Quantizer(), path)
    assert np.array_equal(decompress(path).values, grid(ds.values, DEFAULT_QUANTUM))


def test_levenshtein_tree_strings_roundtrip_bit_exact(tmp_path):
    # the codec reads no leaf radius: a rotated segment is 2 Levenshtein
    # edits but many substitutions, and an understated Hamming radius
    # changes nothing either
    ds = shifted_strings(120, 40, seed=0)
    tree = build(ds, MetricKind.LEVENSHTEIN, BuildConfig(8, 4, 0))
    path = tmp_path / "l.chess"
    compress_tree(tree, ds, Quantizer(), path)
    assert np.array_equal(decompress(path).values, ds.values)
    tree = build(ds, H, BuildConfig(8, 4, 0))
    tree.radius[tree.size == 1] = 0.0
    compress_tree(tree, ds, Quantizer(), path)
    assert np.array_equal(decompress(path).values, ds.values)


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
    # leaves 2 and 3, of 6 and 5 points, each after its center row
    rows = np.arange(26, dtype=np.int64).reshape(13, 2) * 1000 - 12_000
    offsets = np.array([0, 4, 9, 15, 20])
    raw = encode_leaf(DatasetKind.DENSE_VECTORS, 2, 2, rows)
    assert _BLOCK_HEADER.unpack_from(raw, 8) == (0, 2, 2, 2)
    count, got, end = decode_leaf(raw, 0, DatasetKind.DENSE_VECTORS, offsets, 2, 2)
    assert (count, end) == (2, len(raw))
    assert got.dtype == np.int64 and np.array_equal(got, rows)
    assert encode_leaf(DatasetKind.DENSE_VECTORS, 2, count, got) == raw
    # the block must hold the next leaves of the tree, and no more than it has
    for leaf, leaves in ((7, 9), (2, 3)):
        with pytest.raises(FormatError, match=f"the block at byte offset 0 holds "
                                              f"2 leaves from leaf 2, where leaf "
                                              f"{leaf} of {leaves} is next$"):
            decode_leaf(raw, 0, DatasetKind.DENSE_VECTORS, np.arange(leaves + 1),
                        leaf, 2)


SPECIAL_I64 = [0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63)]


def zigzag_width(values: list[int]) -> int:
    """The bytes of the largest zigzag value, at least one."""
    top = max(2 * v if v >= 0 else -2 * v - 1 for v in values)
    return max(1, -(-top.bit_length() // 8))


# values below 2**bits in magnitude, so that every width from 1 to 8 occurs
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 63).flatmap(lambda bits: st.lists(
    st.one_of(st.sampled_from(SPECIAL_I64), st.integers(-2**bits, 2**bits - 1)),
    min_size=1, max_size=40)))
@example(SPECIAL_I64)
@example([0])
def test_block_roundtrips_int64_rows(values):
    # one leaf: a center row and a member row per further value
    rows = np.array(values, dtype=np.int64).reshape(-1, 1)
    raw = encode_leaf(DatasetKind.DENSE_VECTORS, 0, 1, rows)
    assert raw[8 + _BLOCK_HEADER.size - 1] == zigzag_width(values)
    count, got, end = decode_leaf(raw, 0, DatasetKind.DENSE_VECTORS,
                                  np.array([0, len(values) - 1]), 0, 1)
    assert (count, end) == (1, len(raw))
    assert got.dtype == np.int64 and got.ravel().tolist() == values


#: a block of one leaf of 11 points and dimension 2, after 5 other bytes
ROWS = np.arange(24, dtype=np.int64).reshape(12, 2) * 300
OFFSETS = np.array([0, 11])
AT = 5


def reframe_block(raw: bytes, width: int | None = None, edit=None) -> bytes:
    """The block with ``width`` in its width byte, or ``edit(body)`` as its
    inflated body, under a valid CRC."""
    header = bytearray(raw[8:8 + _BLOCK_HEADER.size])
    if width is not None:
        header[-1] = width
    body = zlib.decompress(raw[8 + _BLOCK_HEADER.size:-4], wbits=-15)
    if edit is not None:
        body = edit(body)
    return compress._frame(bytes(header) + compress._deflate(body, 6))


@pytest.mark.parametrize("width", [0, 9])
def test_width_byte_out_of_range_is_refused(width):
    raw = encode_leaf(DatasetKind.DENSE_VECTORS, 0, 1, ROWS)
    assert raw[8 + _BLOCK_HEADER.size - 1] == 2
    forged = bytes(AT) + reframe_block(raw, width=width)
    with pytest.raises(FormatError, match=f"^value width {width} out of range at "
                                          f"byte offset {AT + 8 + 17}$"):
        decode_leaf(forged, AT, DatasetKind.DENSE_VECTORS, OFFSETS, 0, 2)


# 12 rows of 2 values of 2 bytes make a body of 48 bytes
@pytest.mark.parametrize("edit, size", [(lambda body: body[:-1], 47),
                                        (lambda body: body + b"\0", 49)],
                         ids=["short", "long"])
def test_block_body_must_hold_exactly_its_values(edit, size):
    raw = encode_leaf(DatasetKind.DENSE_VECTORS, 0, 1, ROWS)
    forged = bytes(AT) + reframe_block(raw, edit=edit)
    with pytest.raises(FormatError, match=f"^block body of {size} bytes is not 24 "
                                          f"values of 2 bytes at byte offset {AT}$"):
        decode_leaf(forged, AT, DatasetKind.DENSE_VECTORS, OFFSETS, 0, 2)


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
        decode_leaf(raw, 0, DatasetKind.DENSE_VECTORS, np.array([0, 1]), 0, 1)


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


def small_archive(tmp_path) -> bytes:
    ds = synth_manifold(150, 6, 1, 0.1, seed=31)
    tree = build(ds, E, BuildConfig(max_depth=8, min_size=5, seed=4))
    path = tmp_path / "c.chess"
    compress_tree(tree, ds, Quantizer(), path)
    return path.read_bytes()


@pytest.mark.parametrize("which, flag, message", [
    (0, 7, "unknown block kind 7"), (0, 2, "strings block in a dense archive"),
    (1, 0, "dense block in a strings archive"),
    # flag 1 is the retired edit-list string codec
    (1, 1, "unknown block kind 1")])
def test_block_kind_must_match_the_archive(fuzz_archives, tmp_path, which, flag,
                                           message):
    raw, _ = fuzz_archives[which]
    pos = first_block(raw)
    (length,) = struct.unpack_from("<Q", raw, pos)
    kind_at, end = pos + 8, pos + 8 + length
    payload = bytes([flag]) + raw[kind_at + 1:end]
    path = tmp_path / "forged.chess"  # the first block rewritten, CRC-valid
    path.write_bytes(raw[:kind_at] + payload + struct.pack("<I", zlib.crc32(payload))
                     + raw[end + 4:])
    with pytest.raises(FormatError, match=f"{message} at byte offset {kind_at}$"):
        decompress(path)


@pytest.mark.parametrize("leaf", [0, 3])
def test_out_of_alphabet_string_code_is_a_format_error(fuzz_archives, tmp_path,
                                                       leaf):
    raw, values = fuzz_archives[1]
    tree, _ = archive_tree(raw)
    center = tree.center[np.flatnonzero(tree.size == 1)[leaf]]
    delta = ord("Z") - int(values[center, 0])

    def edit(rows, head):  # the first member's first character becomes a Z
        rows[head + 1, 0] = delta
    forged, pos = forge_block(raw, leaf, edit)
    path = tmp_path / "forged.chess"
    path.write_bytes(forged)  # CRC-valid
    with pytest.raises(FormatError, match=f"decoded code {ord('Z')} .* in leaf "
                                          f"{leaf} of the block at byte offset "
                                          f"{pos}$"):
        decompress(path)


def test_compress_rejects_values_beyond_the_int64_grid(tmp_path):
    ds = Dataset.from_vectors([[1e15, 1], [2e15, 2], [3e15, 5]])
    tree = build(ds, E, BuildConfig(seed=0))
    with pytest.raises(ValueError, match="magnitude 3e\\+15"):
        compress_tree(tree, ds, Quantizer(), tmp_path / "big.chess")


def test_values_near_the_coordinate_bound_roundtrip(tmp_path):
    # a coarse quantum keeps grid indices of values near the bound inside
    # int64; the decompressed dataset passes the bound check again
    b = _coordinate_bound(3)
    values = np.random.default_rng(8).uniform(-b, b, (200, 3))
    ds = Dataset.from_vectors(values)
    tree = build(ds, E, BuildConfig(seed=0))
    quantum = 2.0 ** 460
    compress_tree(tree, ds, Quantizer(quantum), tmp_path / "near.chess")
    restored = decompress(tmp_path / "near.chess")
    assert np.abs(restored.values - ds.values).max() <= quantum / 2
    assert np.array_equal(restored.values, grid(ds.values, quantum))
    # a grid point past the bound could not be restored, so it is refused:
    # at a quantum of b / 1.5, b rounds up to 2 quanta, 4b / 3
    values[7, 1] = b
    ds = Dataset.from_vectors(values)
    tree = build(ds, E, BuildConfig(seed=0))
    with pytest.raises(ValueError, match="beyond the coordinate bound"):
        compress_tree(tree, ds, Quantizer(b / 1.5), tmp_path / "coarse.chess")


def rewrite_header(raw: bytes, offset: int, field: bytes) -> bytes:
    """The archive with ``field`` written at ``offset`` of its header and
    the header's CRC fixed."""
    crc_at = first_block(raw) - 4
    forged = bytearray(raw)
    forged[offset:offset + len(field)] = field
    forged[crc_at:crc_at + 4] = struct.pack("<I", zlib.crc32(forged[HEADER:crc_at]))
    return bytes(forged)


@pytest.mark.parametrize("quantum", [0.0, -1e-3, float("nan"), float("inf"),
                                     2.0 ** 960])
def test_bad_quantum_in_archive_is_a_format_error(tmp_path, quantum):
    raw = small_archive(tmp_path)
    path = tmp_path / "forged.chess"
    path.write_bytes(rewrite_header(raw, HEADER + 1, struct.pack("<d", quantum)))
    with pytest.raises(FormatError, match=f"at byte offset {HEADER + 1}$"):
        decompress(path)


def test_decoded_value_beyond_the_coordinate_bound_is_a_format_error(tmp_path):
    # a forged quantum inside its own range scales the grid past the bound
    raw = small_archive(tmp_path)
    path = tmp_path / "forged.chess"
    path.write_bytes(rewrite_header(raw, HEADER + 1, struct.pack("<d", 2.0 ** 900)))
    with pytest.raises(FormatError, match=f"decoded value .* is beyond .* in leaf "
                                          f"\\d+ of the block at byte offset "
                                          f"{first_block(raw)}$"):
        decompress(path)


@pytest.mark.parametrize("offset, field, message", [
    (HEADER, b"\x01", "unsupported archive version 1"),
    (HEADER + 9, struct.pack("<Q", 0), "dimension 0 out of range")])
def test_bad_header_field_is_a_format_error(tmp_path, offset, field, message):
    raw = small_archive(tmp_path)
    path = tmp_path / "forged.chess"
    path.write_bytes(rewrite_header(raw, offset, field))
    with pytest.raises(FormatError, match=f"^{message} at byte offset {offset}$"):
        decompress(path)


@pytest.mark.parametrize("dim", [2**64 - 1, 2**40])
def test_dimension_beyond_the_first_block_is_a_format_error(tmp_path, dim):
    # refused before it sizes the output: 2**40 columns of every point
    # take more memory than there is
    raw = small_archive(tmp_path)
    path = tmp_path / "forged.chess"
    path.write_bytes(rewrite_header(raw, HEADER + 9, struct.pack("<Q", dim)))
    with pytest.raises(FormatError, match=f"^dimension {dim} does not fit the block "
                                          f"at byte offset {first_block(raw)}$"):
        decompress(path)


@pytest.mark.parametrize("values", [
    # one aligned read: its archive is smaller than its length
    Dataset.from_strings(["".join(np.random.default_rng(3).choice(list("ACGT"), 2000))]),
    Dataset.from_vectors(np.tile(np.tile([1.0, 2.0], 10_000), (20, 1)))],
    ids=["one-long-string", "identical-wide-rows"])
def test_archive_smaller_than_its_dimension_roundtrips(tmp_path, values):
    metric = E if values.kind is DatasetKind.DENSE_VECTORS else H
    tree = build(values, metric, BuildConfig(seed=0))
    path = tmp_path / "a.chess"
    compress_tree(tree, values, Quantizer(), path)
    assert path.stat().st_size < values.dim
    back = decompress(path)
    expected = (grid(values.values, DEFAULT_QUANTUM)
                if metric is E else values.values)
    assert np.array_equal(back.values, expected)


def test_trailing_bytes_in_the_header_tree_stream_are_refused(tmp_path):
    raw = small_archive(tmp_path)
    _, stream = archive_tree(raw)
    header = raw[HEADER:HEADER + _ARC_HEADER.size] + compress._deflate(stream + b"\0", 1)
    path = tmp_path / "forged.chess"  # CRC-valid
    path.write_bytes(raw[:8] + compress._frame(header) + raw[first_block(raw):])
    with pytest.raises(FormatError, match="trailing bytes in the tree stream at "
                                          f"byte offset {HEADER + _ARC_HEADER.size}$"):
        decompress(path)


def test_archive_of_an_old_tree_version_is_refused(tmp_path):
    # the tree stream carries its own version, and its faults name offsets
    # inside the inflated stream
    raw = small_archive(tmp_path)
    _, stream = archive_tree(raw)
    stream = stream[:len(b"CHESSTREE")] + b"\x02" + stream[len(b"CHESSTREE") + 1:]
    header = raw[HEADER:HEADER + _ARC_HEADER.size] + compress._deflate(stream, 1)
    path = tmp_path / "forged.chess"  # CRC-valid
    path.write_bytes(raw[:8] + compress._frame(header) + raw[first_block(raw):])
    with pytest.raises(FormatError, match="^unsupported tree version 2 at byte offset "
                                          "9 of the header's tree stream, inflated "
                                          f"from byte offset {HEADER + _ARC_HEADER.size}$"):
        decompress(path)


def test_archive_of_a_cosine_tree_is_refused(tmp_path):
    # metric id 1 was the retired cosine distance: the tree stream names
    # its metric byte, though the stream's CRC holds
    raw = small_archive(tmp_path)
    _, stream = archive_tree(raw)
    stream = bytearray(stream)
    stream[10] = 1
    stream[-4:] = struct.pack("<I", zlib.crc32(stream[:-4]))
    header = raw[HEADER:HEADER + _ARC_HEADER.size] + compress._deflate(bytes(stream), 1)
    path = tmp_path / "forged.chess"  # CRC-valid
    path.write_bytes(raw[:8] + compress._frame(header) + raw[first_block(raw):])
    with pytest.raises(FormatError, match="^unknown metric id byte 1 at byte offset "
                                          "10 of the header's tree stream, inflated "
                                          f"from byte offset {HEADER + _ARC_HEADER.size}$"):
        decompress(path)


def test_corrupt_deflate_data_names_where_it_starts(tmp_path):
    # three 0xFF bytes open a deflate block of the reserved type 3
    raw = small_archive(tmp_path)
    tree_at = HEADER + _ARC_HEADER.size
    pos = first_block(raw)
    block_at = pos + 8 + _BLOCK_HEADER.size  # after the length and block header
    crc_at = pos + 8 + struct.unpack_from("<Q", raw, pos)[0]
    block = bytearray(raw)
    block[block_at:block_at + 3] = b"\xff" * 3
    block[crc_at:crc_at + 4] = struct.pack("<I", zlib.crc32(block[pos + 8:crc_at]))
    path = tmp_path / "forged.chess"  # CRC-valid
    for forged, at in ((bytes(block), block_at),
                       (rewrite_header(raw, tree_at, b"\xff" * 3), tree_at)):
        path.write_bytes(forged)
        with pytest.raises(FormatError, match=f"^corrupt deflate stream at byte "
                                              f"offset {at}: .*invalid block type"):
            decompress(path)


def test_old_format_archive_is_refused(tmp_path):
    # the format before CHESSARC opened with the tree's CHESSTREE stream
    ds = synth_manifold(150, 6, 1, 0.1, seed=31)
    tree = build(ds, E, BuildConfig(max_depth=8, min_size=5, seed=4))
    path = tmp_path / "old.chess"
    serialize(tree, path)
    for raw in (path.read_bytes(), path.read_bytes() + small_archive(tmp_path)):
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="^bad archive magic at byte offset 0$"):
            decompress(path)


@pytest.mark.parametrize("row", ["center", "member"])
def test_decoded_sum_beyond_int64_is_a_format_error(tmp_path, row):
    raw = small_archive(tmp_path)
    tree, _ = archive_tree(raw)
    ds = synth_manifold(150, 6, 1, 0.1, seed=31)
    leaves = np.flatnonzero(tree.size == 1)
    # the first coordinates of leaf 2's and leaf 3's centers are positive
    # on the grid, so adding 2**63 - 1 to either leaves the int64 range
    assert quantize(ds.values[tree.center[leaves[2:4]], 0], DEFAULT_QUANTUM).min() > 0

    def edit(rows, head):  # leaf 3's center row, or its first member's
        rows[head + (row == "member"), 0] = 2**63 - 1
    forged, pos = forge_block(raw, 3, edit)
    path = tmp_path / "forged.chess"
    path.write_bytes(forged)  # CRC-valid
    with pytest.raises(FormatError, match="decoded grid index leaves the int64 "
                                          f"range in the block at byte offset "
                                          f"{pos}$"):
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


#: SHA-256 of everything an archive holds after its header
PINNED = {
    E: "e2fcf12a75e773e0b36c14c31291edb63a80a5955f19f43ce3d4845fc748838b",
    H: "f1adb065c0e1258da8feec758ce056399180c0245ae22aa8241c0ed84341c2a2",
}


@pytest.mark.parametrize("metric", [E, H], ids=["dense", "hamming"])
def test_archive_bytes_are_pinned(tmp_path, metric):
    # the header's tree stream is checked against the tree instead, so
    # the pins hold across CHESSTREE versions
    tree, ds = pinned_corpus(metric)
    path = tmp_path / "p.chess"
    compress_tree(tree, ds, Quantizer(), path)
    raw = path.read_bytes()
    assert archive_tree(raw)[1] == tree_to_bytes(tree)
    assert hashlib.sha256(raw[first_block(raw):]).hexdigest() == PINNED[metric]
    back = decompress(path)
    assert np.array_equal(back.values, ds.values if metric is H
                          else grid(ds.values, DEFAULT_QUANTUM))


#: SHA-256 of the values each pinned archive decodes to; they must not
#: change when the archive format does
PINNED_VALUES = {
    E: "eecdd40dfb76c8429beb434cf67d98caf1dd384014d332b523c6da74229878f0",
    H: "77663eeac35cb446aabf3033acab4c3687e4b23b7e130570aeb113744b22285c",
}


@pytest.mark.parametrize("metric", [E, H], ids=["dense", "hamming"])
def test_decoded_values_are_pinned(tmp_path, metric):
    tree, ds = pinned_corpus(metric)
    path = tmp_path / "p.chess"
    compress_tree(tree, ds, Quantizer(), path)
    values = decompress(path).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == PINNED_VALUES[metric]


BATCHES = [1, 7, 600, 5_000]


# the dense cases keep their bare batch-size ids
@pytest.mark.parametrize("metric, batch", [(E, b) for b in BATCHES]
                         + [(H, b) for b in BATCHES],
                         ids=[str(b) for b in BATCHES]
                         + [f"hamming-{b}" for b in BATCHES])
def test_archive_bytes_do_not_depend_on_batch_size(tmp_path, monkeypatch, metric,
                                                   batch):
    # the batch size only groups leaves into blocks: the blocks follow
    # _batches, every leaf's delta rows are the same, and the archive
    # decodes to the same values under the default batch size
    tree, ds = pinned_corpus(metric)
    path = tmp_path / "p.chess"
    compress_tree(tree, ds, Quantizer(), path)
    want = np.concatenate([rows for *_, rows in archive_blocks(path.read_bytes())])
    with monkeypatch.context() as patch:
        patch.setattr(compress, "_BATCH_VALUES", batch)
        compress_tree(tree, ds, Quantizer(), path)
        runs = _batches(tree.leaf_offsets()[1], ds.dim)
    blocks = archive_blocks(path.read_bytes())
    assert [(first, count) for _, _, first, count, _ in blocks] == \
        [(a, b - a) for a, b in runs]
    assert np.array_equal(np.concatenate([rows for *_, rows in blocks]), want)
    assert np.array_equal(decompress(path).values, ds.values if metric is H
                          else grid(ds.values, DEFAULT_QUANTUM))


def test_batches_are_bounded_by_values(monkeypatch):
    monkeypatch.setattr(compress, "_BATCH_VALUES", 10)
    # leaves of 3, 2, 95, 1, 1 and 2 points with two values each
    offsets = np.array([0, 3, 5, 100, 101, 102, 104])
    assert _batches(offsets, 2) == [(0, 2), (2, 3), (3, 6)]
    assert _batches(offsets, 20) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]


def test_encode_and_decode_leaf_run_once_per_block(tmp_path, monkeypatch):
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
        blocks = len(_batches(tree.leaf_offsets()[1], ds.dim))
        assert blocks < int((tree.size == 1).sum())
        assert calls == {"encode_leaf": blocks, "decode_leaf": blocks}
        calls.update(encode_leaf=0, decode_leaf=0)
