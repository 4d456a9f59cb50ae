"""Record one point of the benchmark trajectory as ``BENCH_<pr>.json``.

Usage, from the root of the repository::

    python3 tools/bench_record.py 27

It runs ``benchmarks/run.py`` for each workload ``BENCHMARK.json``
lists, at seeds 1, 2 and 3 with ``--trace 0`` and once at seed 1 with
``--trace 1``, each for the file's ``run_seconds`` (20), one run at a
time, each pinned to the last core this process may use. It then writes
``BENCH_<pr>.json`` at the root of the repository, holding the commit
(and, when the working tree differs from it, the SHA-256 of that
difference), every run's ``env`` line, and for each workload every
metric with its values (one per seed) and their median, plus ``correct``
and ``failed`` over the workload's runs. When any run reports a failed
operation, or prints no result, it writes no file and exits nonzero. It
needs only the standard library; the runs take about ten minutes on a
2-core VM.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: int,
                  trace: int) -> str:
    """The standard output of one ``run.py`` run in ``checkout``, pinned to
    the last core this process may use, as every run is."""
    cpu = max(os.sched_getaffinity(0))
    done = subprocess.run(
        [sys.executable, str(checkout / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return done.stdout


def commit() -> dict:
    """The checked-out commit and whether the working tree differs from it.
    A dirty tree also gets ``diff_sha256``, the SHA-256 of ``git diff
    HEAD``, so that the record names the code it measured (untracked files
    are not in that diff)."""
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              check=True).stdout
    record = {"sha": git("rev-parse", "HEAD").decode().strip(),
              "dirty": bool(git("status", "--porcelain").strip())}
    if record["dirty"]:
        record["diff_sha256"] = hashlib.sha256(git("diff", "HEAD")).hexdigest()
    return record


def parse(stdout: str) -> tuple[dict, dict]:
    """The ``env`` line and the closing JSON object of one run's output."""
    lines = stdout.strip().splitlines()
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ValueError("the run printed no result") from None
    if len(env) != 1 or not isinstance(result, dict):
        raise ValueError("the run printed no result")
    return env[0], result


def summarize(runs: list[tuple[dict, dict]]) -> dict:
    """One workload's runs: each metric's values in run order, and their
    median."""
    metrics: dict[str, dict] = {}
    for _, result in runs:
        for name, metric in result["metrics"].items():
            entry = metrics.setdefault(name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])
    for entry in metrics.values():
        entry["median"] = statistics.median(entry["values"])
    return {"env": [env for env, _ in runs], "metrics": metrics,
            "correct": all(result["correct"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs)}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit():
        print("usage: bench_record.py <pr number>", file=sys.stderr)
        return 2
    pr = int(args[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {"pr": pr, "commit": commit(), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            timed = [parse(run_benchmark(ROOT, workload, seed, seconds, 0))
                     for seed in SEEDS]
            traced = [parse(run_benchmark(ROOT, workload, SEEDS[0], seconds, 1))]
        except ValueError as err:
            print(f"bench_record: {workload}: {err}", file=sys.stderr)
            return 1
        record["workloads"][workload] = {"timed": summarize(timed),
                                         "traced": summarize(traced)}
        failed = sum(record["workloads"][workload][k]["failed"] for k in ("timed", "traced"))
        if failed:
            print(f"bench_record: {workload}: {failed} operations failed; "
                  "no file written", file=sys.stderr)
            return 1
    path = ROOT / f"BENCH_{pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
