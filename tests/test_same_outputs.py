"""tools/same_outputs.py tells equal prune outputs from different ones."""

import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SRC

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


def same_outputs(parent_src, change_src):
    return subprocess.run([sys.executable, str(TOOL), str(parent_src), str(change_src),
                           "--workloads", "ffn_wide", "--seeds", "404"],
                          capture_output=True, text=True, timeout=300)


def test_same_source_is_the_same():
    proc = same_outputs(SRC, SRC)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["ffn_wide seed 404: same", "1 output sets byte-identical"]


def test_changed_damping_differs(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC / "obslim", src / "obslim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    pipeline = src / "obslim" / "pipeline.py"
    text = pipeline.read_text()
    assert text.count("    damping: float = 0.01  #") == 1
    pipeline.write_text(text.replace("    damping: float = 0.01  #", "    damping: float = 0.02  #"))
    proc = same_outputs(SRC, src)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["ffn_wide seed 404: model.obt differs"]
