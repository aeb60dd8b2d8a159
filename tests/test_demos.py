"""The demos that call the public entry points directly still run: the tensor
container, the linear-algebra and pruning kernels, and the whole pipeline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_tensor_container.py", "02_column_pruning.py", "03_head_pruning.py",
    "04_channel_groups.py", "06_full_pipeline.py",
])
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}  # demo 01's files
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
