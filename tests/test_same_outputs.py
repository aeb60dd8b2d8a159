"""tools/same_outputs.py tells equal prune outputs from different ones."""

import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from obslim import cli
from obslim.tensorstore import read_tensor_file, write_tensor_file

from conftest import SRC

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


def same_outputs(parent_src, change_src, *flags):
    return subprocess.run([sys.executable, str(TOOL), str(parent_src), str(change_src),
                           "--workloads", "ffn_wide", "--seeds", "404", *flags],
                          capture_output=True, text=True, timeout=300)


def changed_tree(tmp_path, module, old, new):
    """A copy of the tree under test with the one ``old`` in ``module`` replaced by ``new``."""
    src = tmp_path / "src"
    shutil.copytree(SRC / "obslim", src / "obslim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "obslim" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return src


def changed_damping(tmp_path):
    """A copy of the tree under test whose default damping is 0.02, not 0.01."""
    return changed_tree(tmp_path, "pipeline.py", "    damping: float = 0.01  #",
                        "    damping: float = 0.02  #")


def test_same_source_is_the_same():
    proc = same_outputs(SRC, SRC)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["ffn_wide seed 404: same", "1 output sets byte-identical"]


def test_changed_damping_differs(tmp_path):
    proc = same_outputs(SRC, changed_damping(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["ffn_wide seed 404: model.obt differs"]


@pytest.mark.parametrize("flags", [[], ["--drift"]], ids=["bytes", "drift"])
def test_changed_gen_toy_differs(tmp_path, flags):
    # a gen_toy whose feature mixing is 0.31, not 0.3, moves calib.obt alone
    src = changed_tree(tmp_path, "pipeline.py", "np.eye(dm) + 0.3 *", "np.eye(dm) + 0.31 *")
    proc = same_outputs(SRC, src, *flags)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["ffn_wide seed 404: gen-toy calib.obt differs"]


def test_same_source_is_within_drift():
    proc = same_outputs(SRC, SRC, "--drift")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["ffn_wide seed 404: within drift",
                                        "1 output sets within drift"]


def test_changed_damping_is_beyond_drift(tmp_path):
    proc = same_outputs(SRC, changed_damping(tmp_path), "--drift")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["ffn_wide seed 404: report.json config.damping differs"]


@pytest.mark.parametrize("scale, differs", [(1 + 1e-14, ""),
                                            (1 + 1e-9, "model.obt layers.1.attn.wo")])
def test_drift_reads_every_tensor(tmp_path, scale, differs):
    # outputs whose reports agree pass or fail on the one tensor moved by `scale`
    toy, work = tmp_path / "toy", tmp_path / "work"
    assert cli.main(["gen-toy", "--out", str(toy), "--seed", "7", "--layers", "3",
                     "--d-model", "16", "--heads", "4", "--d-ff", "24",
                     "--batches", "2", "--tokens", "24"]) == 0
    assert cli.main(["prune", "--model", str(toy / "model.obt"), "--manifest",
                     str(toy / "manifest.json"), "--calib", str(toy / "calib.obt"),
                     "--out", str(work / "parent"), "--global-target", "0.4"]) == 0
    shutil.copytree(work / "parent", work / "change")
    tensors = dict(read_tensor_file(work / "parent" / "model.obt"))
    assert "layers.1.attn.wo" in tensors
    tensors["layers.1.attn.wo"] *= scale
    write_tensor_file(tensors, work / "change" / "model.obt")
    assert runpy.run_path(str(TOOL))["drift"](work, SRC) == differs
