"""Benchmark of chess-search: one workload, one seed, one process.

Usage, from the root of the repository::

    python3 benchmarks/run.py --workload vec-query --seed 1 --seconds 20 --trace 0

It builds the index on the workload's seeded corpus, runs the workload's
operations as a closed loop with one client, checks the answers against
brute-force oracles, and prints one line per metric followed by a JSON
object on the last line. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every operation a second time under the span tracer,
reports the per-layer metrics and writes the spans to ``.bench_out/``.
The exit code is nonzero when any answer is wrong.
"""

import os

# one thread everywhere, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "CHESS_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("vec-query", "seq-edit", "vec-churn")
M_MMAP_THRESHOLD = -3


def pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its default of 128 KiB.

    Left alone, glibc raises the threshold whenever it frees a mapped
    block, so whether the next large array is freshly mapped or carved
    from the heap depends on what the run freed before. Every insert
    allocates a value array a little larger than the last one, and its
    latency then differed by 70% between seeds (15 or 26 ms). With the
    threshold fixed, large arrays are always mapped when allocated and
    unmapped when freed, so insert latency and peak RSS repeat. No-op
    where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20,
                        help="nominal length of the timed loop, 1 to 60")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_mmap_threshold()
    if not (SRC / "chess_search" / "__init__.py").is_file():
        print(f"benchmark: no chess_search sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    from harness import Run
    from workloads import WORKLOADS

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace), out_dir)
    run.execute()

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "loadavg": [round(x, 2) for x in os.getloadavg()],
           "wall_over_cpu": round(run.wall_over_cpu(), 3)}
    print("env " + json.dumps(env))
    if args.trace:
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.npz"
        run.write_trace(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    e2e = run.end_to_end()
    layers = run.per_layer() if args.trace else {}
    for name, (value, unit, note) in {**e2e, **layers}.items():
        print(f"{name:36s} {value:14.6g} {unit:6s} {note}")
    failed = len(run.failures)
    print(f"{'error_rate':36s} {failed / run.attempted:14.6g} share  "
          f"{failed} of {run.attempted} operations failed or disagreed")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")

    reported = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in reported.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
