"""The demos that call the linear-algebra and pruning entry points directly still run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["02_column_pruning.py", "03_head_pruning.py", "04_channel_groups.py"]
)
def test_demo_exits_0(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
