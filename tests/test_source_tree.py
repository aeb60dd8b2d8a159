"""The suite tests the obslim that PYTHONPATH names, and no other."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SRC


def test_pythonpath_picks_the_tree_under_test(tmp_path):
    # a copy of the tree whose package cannot be imported: collecting any
    # module against it must fail with its error, not fall back to src/
    copy = tmp_path / "src"
    shutil.copytree(SRC / "obslim", copy / "obslim", ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "obslim" / "__init__.py").write_text('raise ImportError("marked copy of obslim")\n')
    module = Path(__file__).with_name("test_schedule.py")
    # started from tmp_path, as a pytest plugin may write to the working directory
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--co", "-p", "no:cacheprovider",
                           str(module)], cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(copy)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "ImportError: marked copy of obslim" in proc.stdout + proc.stderr, proc.stdout[-2000:]
