import numpy as np
import pytest

from chess_search import Dataset, load_dense, save_dense, synth_manifold
from chess_search.cli import main

from conftest import synth_aligned_strings


@pytest.fixture()
def dense_file(tmp_path):
    path = tmp_path / "data.vec"
    save_dense(synth_manifold(300, 8, 1, 0.05, seed=77, density_power=2.0), path)
    return path


@pytest.fixture()
def fasta_file(tmp_path):
    ds = synth_aligned_strings(120, 40, 4, 0.03, seed=55)
    path = tmp_path / "seqs.txt"
    path.write_bytes(ds.to_canonical_bytes())
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.vec", tmp_path / "b.vec"
    args = ["synth", "--n", "500", "--embed", "20", "--intrinsic", "1",
            "--noise", "0.1", "--seed", "7"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    ds = load_dense(a)
    assert (ds.n, ds.dim) == (500, 20)


def test_build_summary_matches_info(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "t.tree"
    code, _, err_build = run(capsys, "build", "--input", str(dense_file),
                             "--metric", "euclidean", "--out", str(tree_path),
                             "--max-depth", "12", "--seed", "3")
    assert code == 0
    code, _, err_info = run(capsys, "info", "--tree", str(tree_path))
    assert code == 0
    build_fields = dict(kv.split("=") for kv in err_build.split())
    info_fields = dict(kv.split("=") for kv in err_info.split())
    assert build_fields["leaves"] == info_fields["leaves"]
    assert build_fields["n"] == info_fields["n"]
    assert info_fields["metric"] == "euclidean"


def test_info_lfd_profile_csv(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "t.tree"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    code, out, _ = run(capsys, "info", "--tree", str(tree_path), "--lfd-profile")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "depth,decile,mean_lfd"
    assert lines[1].startswith("0,")


def test_max_depth_zero_is_usage_error(dense_file, tmp_path, capsys):
    code, _, _ = run(capsys, "build", "--input", str(dense_file),
                     "--metric", "euclidean", "--out", str(tmp_path / "t"),
                     "--max-depth", "0")
    assert code == 2


def test_unknown_metric_is_runtime_error(dense_file, tmp_path, capsys):
    code, _, err = run(capsys, "build", "--input", str(dense_file),
                       "--metric", "manhattan", "--out", str(tmp_path / "t"))
    assert code == 1
    assert "unknown metric" in err


def test_search_zero_radius_finds_the_query_itself(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "t.tree"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    ds = load_dense(dense_file)
    qfile = tmp_path / "q.vec"
    save_dense(Dataset.from_vectors(ds.values[[5]]), qfile)
    code, out, _ = run(capsys, "search", "--tree", str(tree_path),
                       "--input", str(dense_file), "--queries", str(qfile),
                       "--radius", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "query_id,point_index,distance"
    assert "0,5,0.0" in lines[1:]


@pytest.mark.parametrize("radius", ["nan", "inf", "-1"])
def test_non_finite_radius_is_usage_error(dense_file, tmp_path, capsys, radius):
    tree_path = tmp_path / "t.tree"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    # the linear scan used to answer nan with an empty hit list
    for naive in ([], ["--naive"]):
        code, out, err = run(capsys, "search", "--tree", str(tree_path),
                             "--input", str(dense_file), "--holdout", "5",
                             "--radius", radius, *naive)
        assert code == 2
        assert out == ""
        assert "must be finite and nonnegative" in err
    code, _, err = run(capsys, "synth", "--n", "50", "--embed", "3", "--intrinsic",
                       "1", "--noise", radius, "--out", str(tmp_path / "s.vec"))
    assert code == 2
    assert "must be finite and nonnegative" in err


def test_naive_flag_output_is_byte_identical(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "t.tree"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    ds = load_dense(dense_file)
    qfile = tmp_path / "q.vec"
    save_dense(Dataset.from_vectors(ds.values[:6] + 0.01), qfile)
    base = ["search", "--tree", str(tree_path), "--input", str(dense_file),
            "--queries", str(qfile), "--radius", "2.5"]
    code1, out_tree, _ = run(capsys, *base)
    code2, out_naive, _ = run(capsys, *base, "--naive")
    assert code1 == code2 == 0
    assert out_tree == out_naive
    assert len(out_tree.strip().split("\n")) > 1


def test_search_with_holdout_queries(dense_file, tmp_path, capsys):
    # tree must be built over the post-holdout remainder for hashes to match
    from chess_search import BuildConfig, MetricKind, build, hold_out, serialize
    ds = load_dense(dense_file)
    held_in, _ = hold_out(ds, 10, seed=4)
    tree_path = tmp_path / "t.tree"
    serialize(build(held_in, MetricKind.EUCLIDEAN, BuildConfig(seed=1)),
              tree_path)
    code, out, _ = run(capsys, "search", "--tree", str(tree_path),
                       "--input", str(dense_file), "--holdout", "10",
                       "--seed", "4", "--radius", "1.0")
    assert code == 0
    assert out.startswith("query_id,point_index,distance")


def test_dataset_hash_mismatch_exits_one(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "t.tree"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    other = tmp_path / "other.vec"
    save_dense(synth_manifold(300, 8, 1, 0.05, seed=78), other)
    qfile = tmp_path / "q.vec"
    save_dense(synth_manifold(2, 8, 1, 0.0, seed=1), qfile)
    code, _, err = run(capsys, "search", "--tree", str(tree_path),
                       "--input", str(other), "--queries", str(qfile),
                       "--radius", "1.0")
    assert code == 1
    assert "different dataset" in err


def test_missing_query_source_is_usage_error(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "t.tree"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    code, _, err = run(capsys, "search", "--tree", str(tree_path),
                       "--input", str(dense_file), "--radius", "1.0")
    assert code == 2
    assert "usage error" in err


def test_knn_one_row_per_query(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "t.tree"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    ds = load_dense(dense_file)
    qfile = tmp_path / "q.vec"
    save_dense(Dataset.from_vectors(ds.values[:4] + 0.02), qfile)
    code, out, _ = run(capsys, "knn", "--tree", str(tree_path),
                       "--input", str(dense_file), "--queries", str(qfile),
                       "--k", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2", "3"]


def test_bench_csv_deterministic(dense_file, capsys):
    args = ["bench", "--input", str(dense_file), "--metric", "euclidean",
            "--radii", "0.5,2.0", "--depths", "3,8", "--queries", "10",
            "--seed", "5"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0

    def strip_times(text):
        rows = [ln.split(",") for ln in text.strip().split("\n")]
        for row in rows[1:]:
            row[5] = row[6] = "~"
        return rows

    assert strip_times(out1) == strip_times(out2)


def test_compress_decompress_sequences_diff_identical(fasta_file, tmp_path,
                                                      capsys):
    archive = tmp_path / "seqs.chess"
    out_file = tmp_path / "restored.txt"
    code, _, _ = run(capsys, "compress", "--input", str(fasta_file),
                     "--metric", "hamming", "--out", str(archive),
                     "--max-depth", "15", "--min-size", "5")
    assert code == 0
    code, _, _ = run(capsys, "decompress", "--input", str(archive),
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == fasta_file.read_bytes()


def test_compress_dense_roundtrip_via_cli(dense_file, tmp_path, capsys):
    archive = tmp_path / "d.chess"
    restored = tmp_path / "restored.vec"
    code, _, err = run(capsys, "compress", "--input", str(dense_file),
                       "--out", str(archive), "--metric", "euclidean")
    assert code == 0
    assert "ratio=" in err
    code, _, _ = run(capsys, "decompress", "--input", str(archive),
                     "--out", str(restored))
    assert code == 0
    original = load_dense(dense_file).values
    recovered = load_dense(restored).values
    assert np.abs(original - recovered).max() <= 1.318e-5 / 2


def test_compress_without_metric_or_tree_is_usage_error(dense_file, tmp_path,
                                                        capsys):
    code, _, err = run(capsys, "compress", "--input", str(dense_file),
                       "--out", str(tmp_path / "x.chess"))
    assert code == 2
    assert "usage error" in err


def test_module_entry_point():
    import subprocess
    import sys
    result = subprocess.run([sys.executable, "-m", "chess_search", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "build" in result.stdout and "decompress" in result.stdout
