"""tools/unreached.py lists the obslim statements a pytest run never executes."""

import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import SRC

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "unreached.py"
COUNTS = f"{Path(__file__).with_name('test_schedule.py')}::TestCounts"


def unreached(tmp_path, *args):
    # started from tmp_path, as a pytest plugin may write to the working directory
    return subprocess.run([sys.executable, str(TOOL), "-q", *args], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)


def test_lists_the_statements_a_run_skips(tmp_path):
    proc = unreached(tmp_path, COUNTS)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    lines = proc.stdout.splitlines()
    count = int(re.fullmatch(r"(\d+) statements unreached", lines[-1]).group(1))
    listed = lines[len(lines) - 1 - count:-1]
    assert count > 0 and len(listed) == count
    sources = {}
    for entry in listed:
        path, line, text = re.fullmatch(r"(.+\.py):(\d+): (.+)", entry).groups()
        path = (tmp_path / path).resolve()
        assert path.is_relative_to(SRC / "obslim"), entry
        source = sources.setdefault(path, path.read_text().splitlines())
        assert source[int(line) - 1].strip() == text
    # TestCounts runs all of counts_from_ratio, and nothing of build_schedule
    schedule = SRC / "obslim" / "schedule.py"
    source = [text.strip() for text in schedule.read_text().splitlines()]
    for text, skipped in (('raise ValueError(f"units must be >= 1, got {units}")', False),
                          ("if rn is not None and global_target is not None:", True)):
        entry = f"{os.path.relpath(schedule, tmp_path.resolve())}:{source.index(text) + 1}: {text}"
        assert (entry in listed) == skipped, entry


def test_exits_with_pytest_code(tmp_path):
    proc = unreached(tmp_path, COUNTS, "-k", "no_test_has_this_name")
    assert proc.returncode == 5, proc.stdout[-2000:] + proc.stderr  # no tests collected
    assert proc.stdout.splitlines()[-1].endswith(" statements unreached")
