import shlex
import zlib
from pathlib import Path

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
    code, out, _ = run(capsys, "info", "--tree", str(tree_path), "--input",
                       str(dense_file), "--lfd-profile")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "depth,decile,mean_lfd"
    assert lines[1].startswith("0,")


@pytest.mark.parametrize("flags", [
    ["--lfd-profile"],  # no dataset to compute it from
    ["--input", "{data}"],
    ["--out", "{out}"],
    ["--input", "{data}", "--out", "{out}"]])
def test_info_flags_without_their_partner_are_usage_errors(dense_file, tmp_path,
                                                           capsys, flags):
    tree_path, out_path = tmp_path / "t.tree", tmp_path / "profile.csv"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    argv = [flag.format(data=dense_file, out=out_path) for flag in flags]
    code, out, err = run(capsys, "info", "--tree", str(tree_path), *argv)
    assert code == 2, err
    assert err.startswith("usage error:") and out == ""
    assert not out_path.exists()


def test_info_lfd_profile_of_another_dataset_exits_one(dense_file, tmp_path, capsys):
    tree_path, other = tmp_path / "t.tree", tmp_path / "other.vec"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    save_dense(synth_manifold(300, 8, 1, 0.05, seed=78), other)
    code, out, err = run(capsys, "info", "--tree", str(tree_path), "--input",
                         str(other), "--lfd-profile")
    assert code == 1
    assert "different dataset" in err and out == ""


def test_max_depth_zero_is_usage_error(dense_file, tmp_path, capsys):
    code, _, _ = run(capsys, "build", "--input", str(dense_file),
                     "--metric", "euclidean", "--out", str(tmp_path / "t"),
                     "--max-depth", "0")
    assert code == 2


def test_max_depth_beyond_u64_is_runtime_error(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "t.tree"
    code, out, err = run(capsys, "build", "--input", str(dense_file),
                         "--metric", "euclidean", "--out", str(tree_path),
                         "--max-depth", "99999999999999999999999")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: max_depth must be below 2**64, got 99999999999999999999999"]
    assert not tree_path.exists()


def test_unknown_metric_is_runtime_error(dense_file, tmp_path, capsys):
    code, _, err = run(capsys, "build", "--input", str(dense_file),
                       "--metric", "manhattan", "--out", str(tmp_path / "t"))
    assert code == 1
    assert "unknown metric" in err


def test_cosine_is_refused(dense_file, tmp_path, capsys):
    # cosine distance is retired: neither a build nor an old tree reads it
    # as the chord distance, whose radii are in other units
    code, _, err = run(capsys, "build", "--input", str(dense_file),
                       "--metric", "cosine", "--out", str(tmp_path / "t"))
    assert code == 1
    assert "unknown metric 'cosine'" in err
    tree_path = tmp_path / "chord.tree"
    run(capsys, "build", "--input", str(dense_file), "--metric", "chord",
        "--out", str(tree_path))
    raw = bytearray(tree_path.read_bytes())
    raw[10] = 1  # the metric id byte; id 1 was cosine
    raw[-4:] = zlib.crc32(raw[:-4]).to_bytes(4, "little")
    tree_path.write_bytes(bytes(raw))
    code, _, err = run(capsys, "info", "--tree", str(tree_path))
    assert code == 1
    assert err == f"error: {tree_path}: unknown metric id byte 1 at byte offset 10\n"


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
                             "--input", str(dense_file), "--queries",
                             str(dense_file), "--radius", radius, *naive)
        assert code == 2
        assert out == ""
        assert "must be finite and nonnegative" in err
    code, _, err = run(capsys, "synth", "--n", "50", "--embed", "3", "--intrinsic",
                       "1", "--noise", radius, "--out", str(tmp_path / "s.vec"))
    assert code == 2
    assert "must be finite and nonnegative" in err


@pytest.mark.parametrize("power", ["inf", "nan", "0"])
def test_bad_density_power_is_runtime_error(tmp_path, capsys, power):
    out = tmp_path / "s.vec"
    # inf used to write an all-zero dataset and exit 0
    code, stdout, err = run(capsys, "synth", "--n", "50", "--embed", "3",
                            "--intrinsic", "1", "--density-power", power,
                            "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "density_power" in err
    assert not out.exists()


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


def test_tree_with_trailing_bytes_exits_one(dense_file, tmp_path, capsys):
    tree_path, archive = tmp_path / "t.tree", tmp_path / "a.chess"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    run(capsys, "compress", "--input", str(dense_file), "--tree",
        str(tree_path), "--out", str(archive))
    end = tree_path.stat().st_size
    tree_path.write_bytes(tree_path.read_bytes() + b"\0")
    # an archive is not a tree file either
    for sub, path, why in (
            (["knn", "--k", "1"], tree_path,
             f"{tree_path}: trailing bytes after the tree at byte offset {end}"),
            (["search", "--radius", "1.0"], archive,
             f"{archive}: bad tree magic at byte offset 0")):
        code, _, err = run(capsys, *sub, "--tree", str(path), "--input",
                           str(dense_file), "--queries", str(dense_file))
        assert code == 1
        assert why in err


def test_info_refuses_an_archive(dense_file, tmp_path, capsys):
    tree_path, archive = tmp_path / "t.tree", tmp_path / "a.chess"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    run(capsys, "compress", "--input", str(dense_file), "--tree",
        str(tree_path), "--out", str(archive))
    code, out, err = run(capsys, "info", "--tree", str(archive))
    assert (code, out) == (1, "")
    assert f"{archive}: bad tree magic at byte offset 0" in err


def test_decompress_refuses_a_tree_file(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "t.tree"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    code, out, err = run(capsys, "decompress", "--input", str(tree_path),
                         "--out", str(tmp_path / "x.vec"))
    assert (code, out) == (1, "")
    assert "bad archive magic at byte offset 0" in err


def test_missing_query_source_is_usage_error(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "t.tree"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    for sub in (["search", "--radius", "1.0"], ["knn", "--k", "1"]):
        out_file = tmp_path / "hits.csv"
        code, _, err = run(capsys, *sub, "--tree", str(tree_path),
                           "--input", str(dense_file), "--out", str(out_file))
        assert code == 2
        assert err.startswith("usage: chess")
        assert "--queries" in err
        assert not out_file.exists()
        # the removed held-out query source is an unknown flag
        code, _, err = run(capsys, *sub, "--tree", str(tree_path),
                           "--input", str(dense_file), "--queries",
                           str(dense_file), "--holdout", "5")
        assert code == 2
        assert "unrecognized arguments: --holdout 5" in err


@pytest.mark.parametrize("sub", [["search", "--radius", "1.0"], ["knn", "--k", "1"]])
def test_queries_of_another_kind_are_a_usage_error(dense_file, fasta_file, tmp_path,
                                                   capsys, sub):
    tree_path, out_file = tmp_path / "t.tree", tmp_path / "hits.csv"
    run(capsys, "build", "--input", str(dense_file), "--metric", "euclidean",
        "--out", str(tree_path))
    code, out, err = run(capsys, *sub, "--tree", str(tree_path), "--input",
                         str(dense_file), "--queries", str(fasta_file),
                         "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == "usage error: query file kind does not match the dataset\n"
    assert not out_file.exists()


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


@pytest.mark.parametrize("radii, depths", [("", "3"), ("0.5", ""), (",", "3"),
                                           ("0.5", ",")])
def test_bench_empty_list_is_usage_error(dense_file, tmp_path, capsys, radii, depths):
    report = tmp_path / "report.csv"
    code, _, err = run(capsys, "bench", "--input", str(dense_file), "--metric",
                       "euclidean", "--radii", radii, "--depths", depths,
                       "--out", str(report))
    assert code == 2
    assert "needs at least one value" in err
    assert not report.exists()


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
    tree_path = tmp_path / "seqs.tree"
    archive = tmp_path / "seqs.chess"
    out_file = tmp_path / "restored.txt"
    code, _, _ = run(capsys, "build", "--input", str(fasta_file),
                     "--metric", "hamming", "--out", str(tree_path),
                     "--max-depth", "15", "--min-size", "5")
    assert code == 0
    code, _, _ = run(capsys, "compress", "--input", str(fasta_file),
                     "--tree", str(tree_path), "--out", str(archive))
    assert code == 0
    code, _, _ = run(capsys, "decompress", "--input", str(archive),
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == fasta_file.read_bytes()


def test_compress_dense_roundtrip_via_cli(dense_file, tmp_path, capsys):
    tree_path = tmp_path / "d.tree"
    archive = tmp_path / "d.chess"
    restored = tmp_path / "restored.vec"
    code, _, _ = run(capsys, "build", "--input", str(dense_file),
                     "--metric", "euclidean", "--out", str(tree_path))
    assert code == 0
    code, _, err = run(capsys, "compress", "--input", str(dense_file),
                       "--tree", str(tree_path), "--out", str(archive))
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
    archive = tmp_path / "x.chess"
    code, _, err = run(capsys, "compress", "--input", str(dense_file),
                       "--out", str(archive))
    assert code == 2
    assert err.startswith("usage: chess")
    assert "--tree" in err
    assert not archive.exists()


def _readme_commands() -> list[list[str]]:
    """The ``chess`` lines of README's "Command line" block, continuations
    joined, as argument lists."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("chess ")]


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    # every subcommand is documented by a line that runs
    assert {argv[0] for argv in commands} == {
        "build", "search", "knn", "bench", "compress", "decompress", "info",
        "synth"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_module_entry_point():
    import subprocess
    import sys
    result = subprocess.run([sys.executable, "-m", "chess_search", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "build" in result.stdout and "decompress" in result.stdout
