#!/usr/bin/env python3
"""Benchmark of latseg, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --report [--seed N] [--seconds S]

The first form runs one workload and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
second runs every workload untraced and traced and prints every metric with
its unit, plus the tracing overhead. See bench/README.md.
"""

import os
import sys
from pathlib import Path

# One BLAS thread in this process and the ones it starts. This has to happen
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    if not (SRC / "latseg" / "__init__.py").is_file():
        print(f"bench/run.py: no latseg sources at {SRC}; run it from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
