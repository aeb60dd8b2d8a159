"""End-to-end benchmark of one `obslim prune` job, with an optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload ffn_wide --seed 1 --seconds 30 --trace 0

The unit of work is one in-process ``obslim.cli.main(["prune", ...])`` call
on inputs written by ``obslim gen-toy``. Jobs run in a closed loop, one at a
time in one process, with the BLAS thread count pinned. Every job passes
the gates in ``checks.py`` or counts as failed and is left out of the
timings. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced jobs and prints the per-layer metrics from
``spans.py``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
for the workloads and metric definitions.
"""

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One BLAS thread: no more than any machine's core count, and on 2 cores it
# was faster than two on two of the three workloads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ffn_wide, heads_many or long_seq (README.md)")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="time budget of the measured loop")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "obslim" / "__init__.py").is_file():
        print(f"error: no obslim sources under {SRC}", file=sys.stderr)
        return 1
    # numpy reads these once, when harness first imports it.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import harness

    if Path(harness.cli.__file__).resolve().parent != SRC / "obslim":
        print(f"error: imported obslim from {harness.cli.__file__}, not {SRC}", file=sys.stderr)
        return 1
    return harness.main(args.workload, args.seed, args.seconds, args.trace, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
