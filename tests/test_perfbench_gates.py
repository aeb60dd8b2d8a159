"""Smoke tests of the benchmark's gates and traced run against the current sources.

``perfbench/checks.py`` gates every benchmarked job (``obslim verify``,
byte-identical reports, least-squares oracle) through public obslim
functions, and ``perfbench/spans.py`` traces a job by patching obslim
functions and methods by name and binding hook arguments by name. Running
both on one small job here keeps them from drifting away from ``src/``
unnoticed. The harness loop, its traced mode and its JSON output run only
in ``perfbench/run.py``, so one short run of it per mode closes the file. It
runs ``ffn_wide`` and ``long_seq``, the workload where the forked reference
worker saves the most.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from obslim import cli
from obslim.pipeline import PruneReport
from obslim.tensorstore import read_tensor_file, write_tensor_file

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture()
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    return checks


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def gen_toy_argv(data):
    return ["gen-toy", "--out", str(data), "--seed", "3", "--layers", "2",
            "--d-model", "16", "--heads", "4", "--d-ff", "24",
            "--batches", "2", "--tokens", "24"]


def test_gates_pass_and_flag_a_perturbed_w_down(checks, tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    assert cli.main(gen_toy_argv(data)) == 0
    paths = checks.input_paths(data)
    assert cli.main(["prune", "--model", str(paths["model"]),
                     "--manifest", str(paths["manifest"]), "--calib", str(paths["calib"]),
                     "--out", str(out), "--global-target", "0.4"]) == 0
    problems, report_bytes = checks.job_problems(data, out, None)
    assert problems == []

    model = read_tensor_file(out / "model.obt")
    w_down = model["layers.1.ffn.w_down"]
    w_down[0, 0] += 1e-4 * np.linalg.norm(w_down)
    write_tensor_file(model, out / "model.obt")
    problems, _ = checks.job_problems(data, out, report_bytes)
    assert any("layer 1: w_down deviates" in p for p in problems), problems


def test_traced_prune_counts_match_the_report(spans, tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    tracer = spans.Tracer()
    with tracer.recording(0):
        assert cli.main(gen_toy_argv(data)) == 0
        assert cli.main(["prune", "--model", str(data / "model.obt"),
                         "--manifest", str(data / "manifest.json"),
                         "--calib", str(data / "calib.obt"),
                         "--out", str(out), "--global-target", "0.4"]) == 0
    counts = tracer.job_profile(0)["counts"]
    report = PruneReport.load(out / "report.json")
    heads = sum(row.heads_removed for row in report.layers)
    channels = sum(row.channels_removed for row in report.layers)
    assert heads > 0 and channels > 0
    assert counts.get("head_pruner.heads_removed") == heads
    assert counts.get("head_pruner.rounds") == heads
    assert counts.get("ffn_pruner.channels_removed") == channels


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_runs_end_to_end(tmp_path, trace):
    # run from a copy, so the harness's perfbench/_work/ stays out of the checkout
    skip = shutil.ignore_patterns("__pycache__", "_work")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src" / "obslim", tmp_path / "src" / "obslim", ignore=skip)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for workload in ("ffn_wide", "long_seq"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, workload + proc.stdout[-2000:] + proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, (workload, result)
