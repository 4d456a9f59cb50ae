"""Put the library sources and the benchmark modules on the import path.

Run from the root of the repository with ``python3 -m pytest benchmarks/tests``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
