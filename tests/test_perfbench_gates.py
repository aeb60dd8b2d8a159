"""Smoke tests of the benchmark's gates and traced run against the current sources.

``perfbench/checks.py`` gates every benchmarked job (``obslim verify``,
byte-identical reports, least-squares oracle) through public obslim
functions, and ``perfbench/spans.py`` traces a job by patching obslim
functions and methods by name and binding hook arguments by name. Running
both on one small job here keeps them from drifting away from ``src/``
unnoticed.
"""

from pathlib import Path

import numpy as np
import pytest

from obslim import cli
from obslim.pipeline import PruneReport
from obslim.tensorstore import read_tensor_file, write_tensor_file

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    assert counts.get("ffn_pruner.channels_removed") == channels
