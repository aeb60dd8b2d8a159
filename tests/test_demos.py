"""Every demo still runs against the current sources and cleans up after itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp.iterdir()) == [], "demo left files in its TMPDIR"
