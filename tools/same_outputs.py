"""Check that two source trees write the same `obslim gen-toy` and `obslim prune` outputs.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC [--workloads NAME ...]
                                    [--seeds N ...] [--drift]

PARENT_SRC and CHANGE_SRC are directories that hold the ``obslim`` package,
such as two checkouts' ``src/``. For each benchmark workload and gen-toy
seed (by default every workload of ``perfbench/harness.py`` and seeds
404-411), ``gen-toy`` runs once under each source, and then ``prune`` runs
once under each source on that source's inputs, with the workload's flags.
Every command runs in its own process, pinned to one BLAS thread, since
outputs are bit-identical only at a fixed thread count. The files of one
workload and seed are on disk at a time.

In both modes, ``gen-toy``'s ``model.obt``, ``calib.obt`` and
``manifest.json`` must be equal byte for byte. Of ``prune``'s outputs, by
default ``model.obt``, ``manifest.json``, ``report.json`` and
``report.csv`` must be equal byte for byte. With ``--drift``, the gate for a
change that reorders floating-point sums, the selections must still be
identical but the errors and weights may move in their last bits:
``manifest.json`` must be equal; in ``report.json`` every value but
``sum_step_error`` and ``output_sq_error`` must be equal, and those two
within 1e-12 relative; every ``model.obt`` tensor must be within 1e-12
relative (Frobenius norm), read with PARENT_SRC's obslim in a subprocess.
``report.csv`` only repeats ``report.json``'s values and is not compared.
Exits 0 if every set passes, 1 naming the first file (and, with
``--drift``, the field or tensor) that differs, and 2 if a command fails.
A ``gen-toy`` file that differs is named as ``gen-toy FILE``.
"""

import argparse
import ast
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "perfbench" / "harness.py"
INPUTS = ("model.obt", "calib.obt", "manifest.json")
OUTPUTS = ("model.obt", "manifest.json", "report.json", "report.csv")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DRIFT = 1e-12  # relative bound of the --drift gate
DRIFT_FIELDS = ("sum_step_error", "output_sq_error")  # report.json values it applies to

# Prints the first tensor, by name, of the model.obt at argv[1] that the one at
# argv[2] lacks or does not match within argv[3] relative (Frobenius norm).
TENSOR_DRIFT = """
import sys
import numpy as np
from obslim.tensorstore import read_tensor_file
a, b = (read_tensor_file(path) for path in sys.argv[1:3])
bound = float(sys.argv[3])
for name in sorted(a.keys() | b.keys()):
    if (name not in a or name not in b or a[name].shape != b[name].shape
            or not np.linalg.norm(a[name] - b[name]) <= bound * np.linalg.norm(a[name])):
        print(name)
        break
"""


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


def python(src: Path, argv: list, cwd: Path) -> str:
    """``python ARGV`` with ``src`` as the only source; its stdout, or exit 2 if it fails."""
    env = {**os.environ, "PYTHONPATH": str(src), **{var: "1" for var in BLAS_ENV}}
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{src}: python {' '.join(argv[:2])} ... exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def json_drift(a, b, path=""):
    """The path of the first value of JSON ``a`` that ``b`` does not match, or None.

    Values under a key of ``DRIFT_FIELDS`` match within ``DRIFT`` relative;
    every other value must be equal, type included.
    """
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        pairs = [(f"{path}.{key}".lstrip("."), a[key], b[key]) for key in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    elif path.rpartition(".")[2] in DRIFT_FIELDS:
        return None if abs(a - b) <= DRIFT * abs(a) else path
    else:
        return None if type(a) is type(b) and a == b else path
    return next(filter(None, (json_drift(x, y, sub) for sub, x, y in pairs)), None)


def first_unequal(a: Path, b: Path, names) -> str:
    """The first of ``names`` whose file in ``a`` and in ``b`` differ byte for byte, or ''."""
    return next((name for name in names
                 if not filecmp.cmp(a / name, b / name, shallow=False)), "")


def drift(work: Path, parent_src: Path) -> str:
    """The first output of ``work/parent`` that ``work/change`` misses beyond drift, or ''."""
    parent, change = work / "parent", work / "change"
    if not filecmp.cmp(parent / "manifest.json", change / "manifest.json", shallow=False):
        return "manifest.json"
    field = json_drift(*(json.loads((side / "report.json").read_text())
                         for side in (parent, change)))
    if field:
        return f"report.json {field}"
    tensor = python(parent_src, ["-c", TENSOR_DRIFT, str(parent / "model.obt"),
                                 str(change / "model.obt"), repr(DRIFT)], work).strip()
    return f"model.obt {tensor}" if tensor else ""


def main(argv=None) -> int:
    known = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workloads", nargs="+", choices=sorted(known), default=list(known))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(404, 412)))
    parser.add_argument("--drift", action="store_true",
                        help=f"allow errors and weights to move within {DRIFT:g} relative")
    args = parser.parse_args(argv)
    sources = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        inputs = {side: work / f"{side}-inputs" for side in sources}
        for name in args.workloads:
            gen_flags, prune_flags = known[name]
            for seed in args.seeds:
                for side, src in sources.items():
                    python(src, ["-m", "obslim", "gen-toy", "--out", str(inputs[side]),
                                 "--seed", str(seed), *gen_flags], work)
                differs = first_unequal(*inputs.values(), INPUTS)
                if differs:
                    print(f"{name} seed {seed}: gen-toy {differs} differs")
                    return 1
                for side, src in sources.items():
                    given = inputs[side]
                    python(src, ["-m", "obslim", "prune", "--model", str(given / "model.obt"),
                                 "--manifest", str(given / "manifest.json"),
                                 "--calib", str(given / "calib.obt"),
                                 "--out", str(work / side), *prune_flags], work)
                if args.drift:
                    differs = drift(work, sources["parent"])
                else:
                    differs = first_unequal(work / "parent", work / "change", OUTPUTS)
                if differs:
                    print(f"{name} seed {seed}: {differs} differs")
                    return 1
                print(f"{name} seed {seed}: {'within drift' if args.drift else 'same'}")
                for path in (*inputs.values(), *(work / side for side in sources)):
                    shutil.rmtree(path)
    count = len(args.workloads) * len(args.seeds)
    print(f"{count} output sets within drift" if args.drift
          else f"{count} output sets byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
