"""The trajectory recorder, fed canned ``benchmarks/run.py`` output."""

import hashlib
import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture()
def recorder(monkeypatch, tmp_path):
    """``tools/bench_record.py`` writing under ``tmp_path``, its runs
    answered by :func:`canned` and its commit fixed."""
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "commit", lambda: {"sha": "abc123", "dirty": False})
    module.calls = []  # (workload, seed, trace) of every run, in order

    def run(checkout, workload, seed, seconds, trace):
        assert (checkout, seconds) == (tmp_path, 20)
        module.calls.append((workload, seed, trace))
        return canned(workload, seed, trace)
    monkeypatch.setattr(module, "run_benchmark", run)
    return module


def canned(workload: str, seed: int, trace: int, failed: bool = False) -> str:
    """The output of one run, as ``run.py`` prints it: the ``env`` line,
    one line per metric, then a JSON object. A timed run's
    ``range_p50_ms`` is ten times the seed and its ``range_comparisons``
    is 500; a traced run reports one per-layer metric."""
    env = {"workload": workload, "seed": seed, "seconds": 20, "trace": trace}
    metrics = ({"tree.depth": {"value": 36, "unit": "count"}} if trace else
               {"range_p50_ms": {"value": 10.0 * seed, "unit": "ms"},
                "range_comparisons": {"value": 500.0, "unit": "count"}})
    lines = ["env " + json.dumps(env)]
    lines += [f"{name:36s} {m['value']:14.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(json.dumps({"correct": not failed, "attempted": 40,
                             "failed": int(failed), "metrics": metrics}))
    return "\n".join(lines) + "\n"


def test_records_three_timed_seeds_and_one_traced_run(recorder, tmp_path):
    assert recorder.main(["27"]) == 0
    assert recorder.calls == [(w, seed, trace) for w in ("vec-query", "seq-edit", "vec-churn")
                              for seed, trace in ((1, 0), (2, 0), (3, 0), (1, 1))]
    record = json.loads((tmp_path / "BENCH_27.json").read_text())
    assert record["pr"] == 27 and record["commit"] == {"sha": "abc123", "dirty": False}
    assert list(record["workloads"]) == ["vec-query", "seq-edit", "vec-churn"]
    churn = record["workloads"]["vec-churn"]
    timed, traced = churn["timed"], churn["traced"]
    assert [env["seed"] for env in timed["env"]] == [1, 2, 3]
    assert timed["metrics"]["range_p50_ms"] == {"unit": "ms", "values": [10.0, 20.0, 30.0],
                                                "median": 20.0}
    assert timed["metrics"]["range_comparisons"]["values"] == [500.0] * 3
    assert (timed["correct"], timed["failed"]) == (True, 0)
    assert traced["env"] == [{"workload": "vec-churn", "seed": 1, "seconds": 20, "trace": 1}]
    assert traced["metrics"] == {"tree.depth": {"unit": "count", "values": [36],
                                                "median": 36}}
    assert (traced["correct"], traced["failed"]) == (True, 0)


@pytest.mark.parametrize("failing", [("seq-edit", 2), ("vec-churn", 1)])
def test_a_failed_operation_writes_no_file(recorder, tmp_path, monkeypatch, failing):
    monkeypatch.setattr(recorder, "run_benchmark",
                        lambda checkout, workload, seed, seconds, trace:
                        canned(workload, seed, trace, failed=(workload, seed) == failing))
    assert recorder.main(["27"]) == 1
    assert list(tmp_path.iterdir()) == []


def test_a_run_without_a_result_writes_no_file(recorder, tmp_path, monkeypatch):
    monkeypatch.setattr(recorder, "run_benchmark", lambda *args: "Traceback ...\n")
    assert recorder.main(["27"]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [[], ["x"], ["27", "--seconds"]])
def test_takes_only_the_pr_number(recorder, tmp_path, argv):
    assert recorder.main(argv) == 2
    assert recorder.calls == [] and list(tmp_path.iterdir()) == []


def test_a_dirty_tree_records_the_digest_of_its_diff(monkeypatch, tmp_path):
    # the real ``commit`` on a scratch repository: clean, then with an edit
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)

    def git(*args: str) -> bytes:
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               "-c", "commit.gpgsign=false", *args],
                              cwd=tmp_path, capture_output=True, check=True).stdout

    git("init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    git("add", "code.py")
    git("commit", "-q", "-m", "one")
    sha = git("rev-parse", "HEAD").decode().strip()
    assert module.commit() == {"sha": sha, "dirty": False}

    (tmp_path / "code.py").write_text("x = 2\n")
    dirty = module.commit()
    assert dirty == {"sha": sha, "dirty": True,
                     "diff_sha256": hashlib.sha256(git("diff", "HEAD")).hexdigest()}
    (tmp_path / "code.py").write_text("x = 3\n")
    assert module.commit()["diff_sha256"] != dirty["diff_sha256"]


def test_every_run_is_pinned_to_one_core(tmp_path):
    # the real runner on a checkout whose ``run.py`` prints its arguments,
    # its working directory and the cores it may use
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text(
        "import json, os, sys\n"
        "print(json.dumps([sys.argv[1:], os.getcwd(), sorted(os.sched_getaffinity(0))]))\n")
    args, cwd, cores = json.loads(module.run_benchmark(tmp_path, "seq-edit", 5, 2, 1))
    assert args == ["--workload", "seq-edit", "--seed", "5", "--seconds", "2",
                    "--trace", "1"]
    assert Path(cwd) == tmp_path and cores == [max(os.sched_getaffinity(0))]
