"""Quantized delta compression of leaf clusters.

Members are stored as integer differences from their leaf center, and
each center as a difference from the previous leaf's: on a quantization
grid for dense data, between character codes for strings.
Redundant data compresses far below the raw representation, and dense
decoding is exact after the first quantization pass.
"""

import os
import tempfile

import numpy as np

from chess_search import (BuildConfig, DEFAULT_QUANTUM, Dataset, MetricKind,
                          Quantizer, build, compress_tree, decompress,
                          save_dense)

rng = np.random.default_rng(42)

# 500 base spectra, 16 noisy observations of each
base = rng.uniform(0, 1000, size=(500, 48))
noisy = base[None, :, :] + rng.normal(0, 40 * DEFAULT_QUANTUM, (16, 500, 48))
dataset = Dataset.from_vectors(noisy.reshape(8_000, 48))
tree = build(dataset, MetricKind.EUCLIDEAN, BuildConfig(seed=0))

workdir = tempfile.mkdtemp()
raw_path = os.path.join(workdir, "raw.vec")
archive_path = os.path.join(workdir, "delta.chess")
save_dense(dataset, raw_path)
compress_tree(tree, dataset, Quantizer(), archive_path)

raw = os.path.getsize(raw_path)
archived = os.path.getsize(archive_path)
print(f"raw CHESSVEC file: {raw:,} bytes")
print(f"delta archive:     {archived:,} bytes ({archived / raw:.1%} of raw)")
print(f"quantum: {DEFAULT_QUANTUM:.4e}")

recovered = decompress(archive_path)
err = np.abs(recovered.values - dataset.values).max()
print(f"\nmax reconstruction error: {err:.3e} "
      f"(guaranteed <= quantum/2 = {DEFAULT_QUANTUM / 2:.3e})")

tree2 = build(recovered, MetricKind.EUCLIDEAN, BuildConfig(seed=0))
second_path = os.path.join(workdir, "second.chess")
compress_tree(tree2, recovered, Quantizer(), second_path)
twice = decompress(second_path)
print(f"second roundtrip is the identity: "
      f"{np.array_equal(twice.values, recovered.values)}")

# strings roundtrip losslessly: members become character-code
# differences from the center, mostly zero for near-duplicate reads
base = rng.choice(list("ACGT"), size=120)
reads = set()
while len(reads) < 400:
    read = base.copy()
    sites = rng.integers(0, base.size, size=3)
    read[sites] = rng.choice(list("ACGT-"), size=sites.size)
    reads.add("".join(read))
strings = Dataset.from_strings(sorted(reads))
stree = build(strings, MetricKind.HAMMING, BuildConfig(seed=0))
spath = os.path.join(workdir, "strings.chess")
compress_tree(stree, strings, Quantizer(), spath)
text = len(strings.to_canonical_bytes())  # one line per read
sarchived = os.path.getsize(spath)
print(f"\n{strings.n} reads of length {strings.dim}: {text:,} bytes of text, "
      f"{sarchived:,} bytes of archive ({sarchived / text:.1%} of the text)")
print(f"string roundtrip bit-exact: "
      f"{np.array_equal(decompress(spath).values, strings.values)}")
