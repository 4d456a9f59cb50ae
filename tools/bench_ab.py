"""Compare two checkouts on the benchmark in pinned, alternating pairs.

Usage, from the root of the repository::

    python3 tools/bench_ab.py PARENT CHANGE --workloads vec-query seq-edit \\
        --seeds 4-13 --seconds 20

``PARENT`` and ``CHANGE`` are two checkouts of the repository, each with
its own ``benchmarks/run.py``. For every workload and seed it runs one
pair: ``run.py --trace 0`` in each checkout, one run at a time, both
pinned to the same core, the parent first in the first pair and the
change first in the next, and so on. It then prints, for each workload
and metric, both sides' medians and quartiles, the change of the median
in percent, the change's wins and losses and a verdict, by the rule the
ROADMAP sets for a claim:

- ``gain``: the change wins at least nine tenths of the pairs (ties
  count for neither side), and its median beats the parent's by more than
  the parent's quartile spread;
- ``unresolved``: the parent's quartile spread, relative to its median,
  exceeds the metric's bound in ``BENCHMARK.json``, unless every run of
  the change reads better than every run of the parent;
- ``worse``: the change's median is worse than the parent's by more than
  that bound;
- ``held``: none of these.

A metric ``BENCHMARK.json`` does not list gets no verdict. Each
workload's line also counts the operations that failed on either side.
The exit code is nonzero when a run prints no result. It needs only the
standard library; each run takes about ``--seconds`` plus the workload's
setup.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from bench_record import parse, run_benchmark

ROOT = Path(__file__).resolve().parent.parent
#: Share of the pairs the change must win for a gain
GAIN_WINS = 0.9


def parse_seeds(text: str) -> list[int]:
    """``"4-13"`` or ``"4,7,9"`` (or both, comma-separated) as a list."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


@dataclass
class Row:
    """One metric of one workload over the pairs."""

    name: str
    unit: str
    parent: tuple[float, float, float]  # quartiles
    change: tuple[float, float, float]
    percent: float  # change of the median, nan where the parent's is 0
    wins: int  # pairs the change won, and lost; 0 without a verdict
    losses: int
    pairs: int
    verdict: str  # "" where ``BENCHMARK.json`` has no bound for the metric


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[int, int, str]:
    """The change's wins and losses over one metric's pairs (ties count
    for neither), and the verdict (see the module docstring)."""
    sign = -1.0 if better == "lower" else 1.0  # sign * value grows as it gets better
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    losses = sum(sign * c < sign * p for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - median)
    if wins >= GAIN_WINS * len(parent) and gain > q3 - q1:
        return wins, losses, "gain"
    spread = q3 - q1 > bound * abs(median)
    if spread and not min(sign * c for c in change) > max(sign * p for p in parent):
        return wins, losses, "unresolved"
    if -gain > bound * abs(median):
        return wins, losses, "worse"
    return wins, losses, "held"


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[Row]:
    """Rows for every metric both sides report, in the parent's order, from
    each side's results (``run.py``'s closing JSON objects), pair by pair;
    ``spec`` is ``BENCHMARK.json``."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for name, first in parent[0]["metrics"].items():
        if not all(name in r["metrics"] for r in (*parent, *change)):
            continue
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        qp, qc = quartiles(p), quartiles(c)
        known = bounds.get(name)
        wins, losses, said = (verdict(p, c, known["better"], known["bound"]) if known
                              else (0, 0, ""))
        rows.append(Row(name=name, unit=first["unit"], parent=qp, change=qc,
                        percent=100.0 * (qc[1] - qp[1]) / qp[1] if qp[1] else math.nan,
                        wins=wins, losses=losses, pairs=len(p), verdict=said))
    return rows


def format_rows(rows: list[Row]) -> str:
    def q(t: tuple[float, float, float]) -> str:
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"
    lines = [f"{'metric':20s} {'parent median [q1, q3]':>30s} "
             f"{'change median [q1, q3]':>30s} {'change':>8s} {'wins':>6s} {'losses':>6s}"
             "  verdict"]
    for r in rows:
        wins, losses = (f"{r.wins}/{r.pairs}", str(r.losses)) if r.verdict else ("", "")
        lines.append(f"{r.name:20s} {q(r.parent):>30s} {q(r.change):>30s} "
                     f"{r.percent:+7.1f}% {wins:>6s} {losses:>6s}  {r.verdict}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("4-13"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    status = 0
    for workload in args.workloads:
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        try:
            for i, seed in enumerate(args.seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    print(f"bench_ab: {workload} seed {seed} {side}", file=sys.stderr)
                    _, result = parse(run_benchmark(sides[side], workload, seed,
                                                    args.seconds, 0))
                    results[side].append(result)
        except ValueError as err:
            print(f"bench_ab: {workload}: {err}", file=sys.stderr)
            status = 1
            continue
        failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
        attempted = {side: sum(r["attempted"] for r in runs)
                     for side, runs in results.items()}
        print(f"{workload}: {len(args.seeds)} pairs, --seconds {args.seconds}, failed "
              f"{failed['parent']} of {attempted['parent']} (parent), "
              f"{failed['change']} of {attempted['change']} (change)")
        print(format_rows(compare(results["parent"], results["change"], spec)))
    return status


if __name__ == "__main__":
    sys.exit(main())
