"""The pairs comparer, fed canned ``benchmarks/run.py`` output."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SPEC = {"run_seconds": 20, "end_to_end": [
    {"name": "knn_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "range_qps", "unit": "1/s", "better": "higher", "bound": 0.25}]}


@pytest.fixture()
def ab(monkeypatch):
    """``tools/bench_ab.py``, importing its sibling ``bench_record``."""
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("bench_ab", TOOLS / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_ab", module)  # for its dataclass
    spec.loader.exec_module(module)
    return module


def result(**values: float) -> dict:
    """One run's closing JSON object, as ``run.py`` prints it."""
    return {"correct": True, "attempted": 40, "failed": 0,
            "metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()}}


def output(**values: float) -> str:
    env = {"workload": "vec-query", "seed": 4, "seconds": 20, "trace": 0}
    return "env " + json.dumps(env) + "\n" + json.dumps(result(**values)) + "\n"


def test_seeds_take_ranges_and_lists(ab):
    assert ab.parse_seeds("4-13") == list(range(4, 14))
    assert ab.parse_seeds("4,7-8,1") == [4, 7, 8, 1]
    with pytest.raises(ValueError):
        ab.parse_seeds("x")


def test_quartiles_on_fixed_values(ab):
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]  # IQR 0.15


@pytest.mark.parametrize("change, want", [
    # ten wins, the median 1.0 below the parent's, whose IQR is 0.15
    ([9.0] * 10, (10, 0, "gain")),
    # nine wins of ten still count; a tie counts for neither side
    ([9.0] * 9 + [10.0], (9, 0, "gain")),
    # eight wins do not
    ([9.0] * 8 + [11.0] * 2, (8, 2, "held")),
    # ten wins, but the median moves less than the parent's spread
    ([p - 0.01 for p in PARENT], (10, 0, "held")),
    # 30% slower is past the 25% bound
    ([13.0] * 10, (0, 10, "worse")),
    ([12.0] * 10, (0, 10, "held")),
])
def test_verdicts_on_lower_is_better(ab, change, want):
    assert ab.verdict(PARENT, change, "lower", 0.25) == want


def test_a_spread_wider_than_the_bound_is_unresolved(ab):
    parent = [10.0, 14.0, 6.0, 10.0, 13.0, 7.0, 10.0, 12.0, 8.0, 10.0]  # IQR 3.0
    assert ab.verdict(parent, [14.0] * 10, "lower", 0.25) == (0, 9, "unresolved")
    # unless every run of the change reads better than every run of the parent
    assert ab.verdict(parent, [5.0] * 10, "lower", 0.25) == (10, 0, "gain")
    assert ab.verdict(parent, [5.9] * 5 + [20.0] * 5, "lower", 0.25) == (5, 5, "unresolved")


def test_higher_is_better_counts_the_other_way(ab):
    parent = [100.0] * 10
    assert ab.verdict(parent, [110.0] * 10, "higher", 0.25) == (10, 0, "gain")
    assert ab.verdict(parent, [70.0] * 10, "higher", 0.25) == (0, 10, "worse")


def test_compare_reads_the_bounds_and_skips_unlisted_metrics(ab):
    parent = [result(knn_p50_ms=p, range_qps=100.0, tree_depth=36.0) for p in PARENT]
    change = [result(knn_p50_ms=9.0, range_qps=100.0, tree_depth=36.0)] * 10
    rows = {r.name: r for r in ab.compare(parent, change, SPEC)}
    assert list(rows) == ["knn_p50_ms", "range_qps", "tree_depth"]
    knn = rows["knn_p50_ms"]
    assert (knn.wins, knn.losses, knn.pairs, knn.verdict) == (10, 0, 10, "gain")
    assert knn.parent == pytest.approx((9.925, 10.0, 10.075))
    assert knn.percent == pytest.approx(-10.0)
    assert (rows["range_qps"].wins, rows["range_qps"].losses) == (0, 0)
    assert rows["range_qps"].verdict == "held"
    assert (rows["tree_depth"].verdict, rows["tree_depth"].percent) == ("", 0.0)
    assert "knn_p50_ms" in ab.format_rows(list(rows.values()))


def test_pairs_alternate_which_side_runs_first(ab, monkeypatch, tmp_path, capsys):
    calls = []

    def run(checkout, workload, seed, seconds, trace):
        assert trace == 0
        calls.append((checkout.name, workload, seed, seconds))
        return output(knn_p50_ms=9.0 if checkout.name == "change" else 10.0 + seed / 100)
    monkeypatch.setattr(ab, "run_benchmark", run)
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert ab.main([str(parent), str(change), "--workloads", "vec-query",
                    "--seeds", "4-7", "--seconds", "2"]) == 0
    assert calls == [("parent", "vec-query", 4, 2), ("change", "vec-query", 4, 2),
                     ("change", "vec-query", 5, 2), ("parent", "vec-query", 5, 2),
                     ("parent", "vec-query", 6, 2), ("change", "vec-query", 6, 2),
                     ("change", "vec-query", 7, 2), ("parent", "vec-query", 7, 2)]
    out = capsys.readouterr().out
    assert "vec-query: 4 pairs" in out and "4/4      0  gain" in out


def test_a_run_without_a_result_fails(ab, monkeypatch, tmp_path):
    monkeypatch.setattr(ab, "run_benchmark", lambda *args: "Traceback ...\n")
    assert ab.main([str(tmp_path), str(tmp_path), "--workloads", "seq-edit",
                    "--seeds", "4"]) == 1

