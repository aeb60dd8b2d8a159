"""Every demo and the README's quick starts still run against the current sources."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def source_env(tmp):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp)}


def readme_block(heading, lang=""):
    """Body of the ``lang`` code block that opens the README section ``heading``."""
    match = re.search(f"## {re.escape(heading)}\n[^`]*```{lang}\n(.*?)```", README, re.DOTALL)
    assert match, f"README section {heading!r} opens with no {lang or 'plain'} block"
    return match.group(1)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, timeout=120, env=source_env(tmp))
    assert proc.returncode == 0, proc.stderr
    assert list(tmp.iterdir()) == [], "demo left files in its TMPDIR"


def test_readme_library_quick_start(tmp_path):
    code = readme_block("Quick start (library)", "python")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=source_env(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_quick_start(tmp_path):
    commands = readme_block("Quick start (CLI)").replace("\\\n", " ").splitlines()
    assert [shlex.split(c)[1] for c in commands] == ["gen-toy", "prune", "verify", "report"]
    for command in commands:
        argv = [sys.executable, "-m", "obslim", *shlex.split(command)[1:]]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              env=source_env(tmp_path), cwd=tmp_path)
        assert proc.returncode == 0, (command, proc.stderr)
    assert (tmp_path / "pruned" / "report.csv").read_text().startswith("layer,ratio,")
    assert "output_sq_error" in proc.stdout  # report prints the table
