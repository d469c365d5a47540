"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload senate-pipeline --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``fvbm`` from its
``src`` directory.  Progress and a summary go to standard output; the last
line is the JSON result.  A run record (environment, pass times, failed
checks and, when traced, the spans) goes to ``.bench_out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fvbm" / "cli.py").is_file():
        print(f"error: no fvbm sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the default threading stalls
    # first calls by hundreds of milliseconds on a small machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import harness  # loads numpy

    if args.workload not in harness.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.workloads.WORKLOADS)}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
