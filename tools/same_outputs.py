"""Check that two source trees write the same `obslim prune` outputs, byte for byte.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC [--workloads NAME ...]
                                    [--seeds N ...]

PARENT_SRC and CHANGE_SRC are directories that hold the ``obslim`` package,
such as two checkouts' ``src/``. For each benchmark workload and gen-toy
seed (by default every workload of ``perfbench/harness.py`` and seeds
404-411), the inputs are generated with PARENT_SRC's ``gen-toy``, and then
``prune`` runs once under each source, with the workload's flags. Every
command runs in its own process, pinned to one BLAS thread, since outputs
are bit-identical only at a fixed thread count. One input set is on disk
at a time.

``model.obt``, ``manifest.json``, ``report.json`` and ``report.csv`` must be
equal. Exits 0 if they are for every set, 1 naming the first file that
differs, and 2 if a command fails.
"""

import argparse
import ast
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "perfbench" / "harness.py"
OUTPUTS = ("model.obt", "manifest.json", "report.json", "report.csv")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def workloads() -> dict:
    """``WORKLOADS`` of the benchmark harness, read without importing it or obslim."""
    for node in ast.parse(HARNESS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["WORKLOADS"]:
            return ast.literal_eval(node.value)
    fail(f"no WORKLOADS assignment in {HARNESS}")


def obslim(src: Path, argv: list, cwd: Path) -> None:
    """``python -m obslim ARGV`` with ``src`` as the only source; exits 2 if it fails."""
    env = {**os.environ, "PYTHONPATH": str(src), **{var: "1" for var in BLAS_ENV}}
    proc = subprocess.run([sys.executable, "-m", "obslim", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{src}: obslim {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")


def main(argv=None) -> int:
    known = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workloads", nargs="+", choices=sorted(known), default=list(known))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(404, 412)))
    args = parser.parse_args(argv)
    sources = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        inputs = work / "inputs"
        for name in args.workloads:
            gen_flags, prune_flags = known[name]
            for seed in args.seeds:
                obslim(sources["parent"], ["gen-toy", "--out", str(inputs), "--seed", str(seed),
                                           *gen_flags], work)
                for side, src in sources.items():
                    obslim(src, ["prune", "--model", str(inputs / "model.obt"),
                                 "--manifest", str(inputs / "manifest.json"),
                                 "--calib", str(inputs / "calib.obt"),
                                 "--out", str(work / side), *prune_flags], work)
                for out in OUTPUTS:
                    if not filecmp.cmp(work / "parent" / out, work / "change" / out,
                                       shallow=False):
                        print(f"{name} seed {seed}: {out} differs")
                        return 1
                print(f"{name} seed {seed}: same")
                for path in (inputs, *(work / side for side in sources)):
                    shutil.rmtree(path)
    print(f"{len(args.workloads) * len(args.seeds)} output sets byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
