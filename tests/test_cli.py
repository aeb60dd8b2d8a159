"""End-to-end CLI behavior and exit codes (0 ok, 1 usage, 2 numerical)."""

import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import obslim
from obslim import cli
from obslim.cli import main
from obslim.pipeline import PruneReport
from obslim.tensorstore import ModelManifest, read_tensor_file, write_tensor_file


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


@pytest.fixture()
def toy_dir(tmp_path):
    out = tmp_path / "toy"
    code = run(["gen-toy", "--out", str(out), "--seed", "7", "--layers", "3",
                "--d-model", "16", "--heads", "4", "--d-ff", "24",
                "--batches", "2", "--tokens", "24"])
    assert code == 0
    return out


@pytest.fixture()
def no_payload_read(monkeypatch):
    """Make ``prune`` fail the test if it reads a tensor file's payload."""
    def fail(path):
        raise AssertionError(f"payload of {path} read")

    monkeypatch.setattr(cli, "read_tensor_file", fail)


class TestGenToy:
    def test_writes_files(self, toy_dir):
        assert (toy_dir / "model.obt").exists()
        assert (toy_dir / "manifest.json").exists()
        assert (toy_dir / "calib.obt").exists()
        manifest = ModelManifest.load(toy_dir / "manifest.json")
        assert manifest.n_layers == 3
        calib = read_tensor_file(toy_dir / "calib.obt")
        assert list(calib) == ["calib.0", "calib.1"]

    def test_deterministic_files(self, toy_dir, tmp_path):
        out2 = tmp_path / "toy2"
        assert run(["gen-toy", "--out", str(out2), "--seed", "7", "--layers", "3",
                    "--d-model", "16", "--heads", "4", "--d-ff", "24",
                    "--batches", "2", "--tokens", "24"]) == 0
        for name in ("model.obt", "manifest.json", "calib.obt"):
            assert (toy_dir / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("flag", ["--heads", "--d-model", "--layers", "--d-ff"])
    def test_zero_dimension_exit_2(self, tmp_path, capsys, flag):
        assert run(["gen-toy", "--out", str(tmp_path / "toy"), flag, "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dimensions must be >= 1" in err
        assert err.count("\n") == 1, err

    def test_runs_as_python_module(self, tmp_path):
        # python -m obslim, from the source tree alone
        src = os.path.dirname(os.path.dirname(obslim.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "obslim", "gen-toy", "--out", str(tmp_path / "toy"),
             "--layers", "1", "--d-model", "8", "--heads", "2", "--d-ff", "8"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "toy" / "model.obt").exists()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run(["prune", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self):
        assert run(["transmogrify"]) == 1

    def test_no_command(self):
        assert run([]) == 1

    def test_missing_required(self):
        assert run(["prune"]) == 1


def prune_args(toy_dir, out, extra=()):
    return [
        "prune",
        "--model", str(toy_dir / "model.obt"),
        "--manifest", str(toy_dir / "manifest.json"),
        "--calib", str(toy_dir / "calib.obt"),
        "--out", str(out),
        *extra,
    ]


MALFORMED_MODELS = {
    "bad-magic": lambda b: b"NOTMAGIC" + b[8:],
    "header-length": lambda b: b[:8] + struct.pack("<Q", 2**40) + b[16:],
    "non-finite": lambda b: b[:-8] + np.array([np.nan]).tobytes(),
    "truncated": lambda b: b[:-8],
}


class TestPrune:
    def test_zero_ratio_noop(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        code = run(prune_args(toy_dir, out, ["--ratio-first", "0", "--ratio-last", "0"]))
        assert code == 0
        assert (out / "model.obt").read_bytes() == (toy_dir / "model.obt").read_bytes()
        report = PruneReport.load(out / "report.json")
        assert all(r.output_sq_error == 0.0 for r in report.layers)

    def test_global_target_run_and_verify(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        code = run(prune_args(toy_dir, out, [
            "--global-target", "0.5", "--ratio-first", "0.25",
            "--variant", "log-inc", "--group-start", "8", "--group-min", "2",
        ]))
        assert code == 0
        report = PruneReport.load(out / "report.json")
        assert report.variant == "log_increase"
        assert abs(np.mean(report.ratios) - 0.5) < 1e-6
        assert (out / "report.csv").read_text().startswith("layer,ratio,")
        assert run(["verify", "--report", str(out / "report.json"),
                    "--manifest", str(out / "manifest.json"),
                    "--model", str(out / "model.obt")]) == 0

    def test_determinism_bit_identical(self, toy_dir, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(prune_args(toy_dir, out, [
                "--global-target", "0.4", "--ratio-first", "0.2",
                "--variant", "lin-inc", "--group-start", "8", "--group-min", "2",
            ])) == 0
            outs.append(out)
        for name in ("model.obt", "manifest.json", "report.json", "report.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_config_file_and_flag_override(self, toy_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ratio_first": 0.25, "global_target": 0.5, "variant": "uniform",
            "group_start": 8, "group_min": 2, "damping": 0.02,
        }))
        out = tmp_path / "out"
        code = run(prune_args(toy_dir, out, [
            "--config", str(cfg), "--variant", "lin-inc",  # flag wins
        ]))
        assert code == 0
        report = PruneReport.load(out / "report.json")
        assert report.variant == "linear_increase"
        assert report.config["damping"] == 0.02
        assert report.config["group_start"] == 8

    def test_unknown_config_key(self, toy_dir, tmp_path, capsys):
        for key in ("groop_start", "calib_mode"):  # calib_mode is a deleted setting
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: "pruned"}))
            assert run(prune_args(toy_dir, tmp_path / "out", ["--config", str(cfg)])) == 2
            assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"

    @pytest.mark.parametrize("loaded", [[["ratio_first", 0.1]], None, 3, "ratio_first"])
    def test_config_not_an_object_exit_2(self, toy_dir, tmp_path, capsys, loaded):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        assert run(prune_args(toy_dir, tmp_path / "out", ["--config", str(cfg)])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "must hold a JSON object" in err

    @pytest.mark.parametrize("bad", [
        {"damping": "x"},
        {"damping": -0.5},
        {"damping": None},
        {"group_start": "8"},
        {"group_start": 8.5},
        {"group_min": True},
        {"group_start": 2, "group_min": 4},
        {"group_min": 0},
        {"variant": ["uniform"]},
    ])
    def test_wrongly_typed_config_value_exit_2(self, toy_dir, tmp_path, capsys, bad):
        # validated even when no layer prunes a channel (global target 0)
        for target in (0.3, 0.0):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"global_target": target, **bad}))
            code = run(prune_args(toy_dir, tmp_path / "out", ["--config", str(cfg)]))
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, rest", [
        ("ratio_first", {"global_target": 0.3}),
        ("ratio_last", {"ratio_first": 0.1}),
        ("global_target", {}),
    ])
    def test_wrongly_typed_schedule_value_exit_2(self, toy_dir, tmp_path, capsys, key, rest):
        for bad in ("0.3", [0.3], True, float("nan")):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**rest, key: bad}))
            code = run(prune_args(toy_dir, tmp_path / "out", ["--config", str(cfg)]))
            err = capsys.readouterr().err
            assert code == 2, bad
            assert err.startswith(f"error: {key} ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("flags", [
        ["--variant", "uniform", "--ratio-first", "0.1", "--ratio-last", "0.5"],
        ["--global-target", "0.3", "--ratio-last", "0.9"],
        ["--variant", "uniform", "--ratio-first", "0.1", "--global-target", "0.4"],
    ], ids=["uniform-ratio-last", "target-and-ratio-last", "uniform-ratio-first-and-target"])
    def test_ignored_schedule_setting_exit_2(self, toy_dir, tmp_path, capsys, flags,
                                             no_payload_read):
        out = tmp_path / "out"
        code = run(prune_args(toy_dir, out, flags))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_uniform_with_equal_endpoints_runs(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(prune_args(toy_dir, out, [
            "--variant", "uniform", "--ratio-first", "0.25", "--ratio-last", "0.25",
        ]))
        assert code == 0
        assert "wall clock" in capsys.readouterr().out
        assert PruneReport.load(out / "report.json").ratios == [0.25] * 3

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "1"), ("--refresh", "trailing"), ("--calib-mode", "original"),
    ])
    def test_removed_flags_are_usage_errors(self, toy_dir, tmp_path, flag, value):
        assert run(prune_args(toy_dir, tmp_path / "out", [flag, value])) == 1

    def test_numerical_failure_exit_2(self, toy_dir, tmp_path, capsys):
        # 8 tokens for 16 attention features with zero damping: the Hessian
        # is rank-deficient with no dead feature, so it stays singular
        calib_path = tmp_path / "calib8.obt"
        x = np.random.default_rng(0).normal(size=(16, 8))
        write_tensor_file({"calib.0": x}, calib_path)
        args = prune_args(toy_dir, tmp_path / "out", [
            "--global-target", "0.5", "--ratio-first", "0.25", "--damping", "0",
            "--group-start", "8", "--group-min", "2",
        ])
        args[args.index("--calib") + 1] = str(calib_path)
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pruning failed at layer 0") and err.count("\n") == 1, err

    def test_overflowing_hessian_exit_2(self, tmp_path, capsys):
        # layer 1's values are finite but their squares overflow, so its
        # attention Hessian sum holds inf: one error line, no warnings
        toy = tmp_path / "toy"
        assert run(["gen-toy", "--out", str(toy), "--seed", "7", "--layers", "2",
                    "--d-model", "16", "--heads", "4", "--d-ff", "24"]) == 0
        tensors = read_tensor_file(toy / "model.obt")
        tensors["layers.1.attn.wv"] *= 1e160
        write_tensor_file(tensors, toy / "model.obt")
        capsys.readouterr()
        assert run(prune_args(toy, tmp_path / "out", [
            "--ratio-first", "0", "--ratio-last", "0.5", "--variant", "lin-inc"])) == 2
        assert capsys.readouterr().err == (
            "error: pruning failed at layer 1 (attention): "
            "singular Hessian: matrix contains non-finite entries\n")

    def test_calibration_without_tokens_exit_2(self, toy_dir, tmp_path, capsys):
        calib_path = tmp_path / "calib0.obt"
        write_tensor_file({f"calib.{i}": np.zeros((16, 0)) for i in range(2)}, calib_path)
        args = prune_args(toy_dir, tmp_path / "out", ["--global-target", "0.5"])
        args[args.index("--calib") + 1] = str(calib_path)
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the calibration set has no tokens") and err.count("\n") == 1, err

    @pytest.mark.parametrize("ratio, sublayer", [("0.5", "attention"), ("0.1", "FFN")])
    def test_numerical_failure_names_sublayer(self, toy_dir, tmp_path, capsys, ratio, sublayer):
        # 8 undamped tokens: the attention (16) and FFN (24) Hessians are both
        # rank-deficient; ratio 0.1 removes no head but 2 of 24 channels
        calib_path = tmp_path / "calib8.obt"
        write_tensor_file({"calib.0": np.random.default_rng(0).normal(size=(16, 8))}, calib_path)
        args = prune_args(toy_dir, tmp_path / "out", [
            "--variant", "uniform", "--ratio-first", ratio, "--ratio-last", ratio,
            "--damping", "0", "--group-start", "8", "--group-min", "2",
        ])
        args[args.index("--calib") + 1] = str(calib_path)
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: pruning failed at layer 0 ({sublayer}): "), err
        assert err.count("\n") == 1, err

    def test_dead_channel_at_zero_damping_runs(self, toy_dir, tmp_path):
        # channel 5 of layer 1 never fires, so its undamped Hessian row is 0
        tensors = read_tensor_file(toy_dir / "model.obt")
        tensors["layers.1.ffn.w_up"][5] = 0.0
        write_tensor_file(tensors, toy_dir / "model.obt")
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, [
            "--ratio-last", "0.25", "--variant", "lin-inc", "--damping", "0",
            "--group-start", "8", "--group-min", "2",
        ])) == 0
        report = PruneReport.load(out / "report.json")
        assert report.layers[1].channels_removed > 0
        assert 5 not in report.layers[1].kept_channels
        assert run(["verify", "--report", str(out / "report.json"),
                    "--manifest", str(out / "manifest.json"),
                    "--model", str(out / "model.obt")]) == 0

    @pytest.mark.parametrize("flags", [[], ["--global-target", "0.4"]],
                             ids=["ratios", "global-target"])
    def test_manifest_naming_missing_tensor_exit_2(self, toy_dir, tmp_path, capsys, flags):
        manifest = ModelManifest.load(toy_dir / "manifest.json")
        manifest.layers[1].attn_out = "layers.1.attn.renamed"
        manifest.save(toy_dir / "manifest.json")
        assert run(prune_args(toy_dir, tmp_path / "out", flags)) == 2
        err = capsys.readouterr().err
        assert err == "error: layer 1: tensor 'layers.1.attn.renamed' missing\n"

    @pytest.mark.parametrize("renamed, flags", [
        (True, ["--global-target", "0.4"]),
        (False, ["--group-start", "2", "--group-min", "4"]),
    ], ids=["manifest-missing-tensor", "config-group-sizes"])
    def test_manifest_or_config_error_reads_no_payload(self, toy_dir, tmp_path, capsys,
                                                       no_payload_read, renamed, flags):
        if renamed:
            manifest = ModelManifest.load(toy_dir / "manifest.json")
            manifest.layers[1].attn_out = "layers.1.attn.renamed"
            manifest.save(toy_dir / "manifest.json")
        assert run(prune_args(toy_dir, tmp_path / "out", flags)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("tamper", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
    def test_malformed_model_exit_2(self, toy_dir, tmp_path, capsys, tamper):
        path = toy_dir / "model.obt"
        path.write_bytes(tamper(path.read_bytes()))
        assert run(prune_args(toy_dir, tmp_path / "out", ["--global-target", "0.3"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_job_holds_the_model_less_than_twice(self, tmp_path):
        # reading into preallocated arrays, pruning without copying the whole
        # model up front and streaming the write keep a prune job below 2x
        # the model file, pruned copy and one layer's working state included
        data = tmp_path / "m"
        assert run(["gen-toy", "--out", str(data), "--layers", "16", "--d-model", "64",
                    "--heads", "4", "--d-ff", "128", "--batches", "2", "--tokens", "32"]) == 0
        size = os.path.getsize(data / "model.obt")
        tracemalloc.start()
        try:
            code = run(prune_args(data, tmp_path / "out", [
                "--variant", "uniform", "--ratio-first", "0.5", "--ratio-last", "0.5"]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * size, peak / size

    def test_unreachable_target_exit_2(self, toy_dir, tmp_path):
        assert run(prune_args(toy_dir, tmp_path / "out", [
            "--global-target", "0.1", "--ratio-first", "0.5",
        ])) == 2

    def test_two_layer_log_decrease_target_runs(self, tmp_path):
        # layer 0 of a decreasing curve is exactly --ratio-first (0), never a rounding below it
        toy, out = tmp_path / "toy", tmp_path / "out"
        assert run(["gen-toy", "--out", str(toy), "--seed", "1", "--layers", "2",
                    "--d-model", "16", "--heads", "4", "--d-ff", "32"]) == 0
        assert run(prune_args(toy, out, ["--variant", "log-dec", "--global-target", "0.4"])) == 0
        assert PruneReport.load(out / "report.json").ratios[0] == 0.0
        assert run(["verify", "--report", str(out / "report.json"),
                    "--manifest", str(out / "manifest.json"),
                    "--model", str(out / "model.obt")]) == 0

    @pytest.mark.parametrize("flags, ratio", [
        (["--global-target", "0.4"], 0.4),
        (["--ratio-first", "0.2"], 0.2),
        ([], 0.0),
    ], ids=["target", "ratio-first", "no-schedule-flag"])
    def test_one_layer_model_prunes(self, tmp_path, flags, ratio):
        toy, out = tmp_path / "toy", tmp_path / "out"
        assert run(["gen-toy", "--out", str(toy), "--layers", "1", "--d-model", "8",
                    "--heads", "2", "--d-ff", "8"]) == 0
        assert run(prune_args(toy, out, flags)) == 0
        report = PruneReport.load(out / "report.json")
        assert report.variant == "log_increase" and report.ratios == [ratio]
        assert run(["verify", "--report", str(out / "report.json"),
                    "--manifest", str(out / "manifest.json"),
                    "--model", str(out / "model.obt")]) == 0

    def test_one_layer_model_unequal_endpoints_exit_2(self, tmp_path, capsys):
        toy = tmp_path / "toy"
        assert run(["gen-toy", "--out", str(toy), "--layers", "1", "--d-model", "8",
                    "--heads", "2", "--d-ff", "8"]) == 0
        capsys.readouterr()
        assert run(prune_args(toy, tmp_path / "out",
                              ["--ratio-first", "0.2", "--ratio-last", "0.3"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def with_row(data, **fields):
    """``data`` with layer 1's fields replaced; ``None`` drops a field."""
    row = {k: v for k, v in {**data["layers"][1], **fields}.items() if v is not None}
    return {**data, "layers": [data["layers"][0], row, *data["layers"][2:]]}


MALFORMED_REPORTS = {
    "not-an-object": lambda d: [d],
    "no-layers": lambda d: {k: v for k, v in d.items() if k != "layers"},
    "no-variant": lambda d: {k: v for k, v in d.items() if k != "variant"},
    "no-ratios": lambda d: {k: v for k, v in d.items() if k != "ratios"},
    "ratios-not-a-list": lambda d: {**d, "ratios": 5},
    "empty-row": lambda d: {**d, "layers": [{}]},
    "row-missing-field": lambda d: with_row(d, kept_channels=None),
    "row-extra-field": lambda d: with_row(d, wall_clock_s=0.1),
    "step-error-string": lambda d: with_row(d, sum_step_error="0.5"),
    "kept-heads-int": lambda d: with_row(d, kept_heads=2),
}


class TestVerifyAndReport:
    def test_verify_flags_tampering(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, [
            "--global-target", "0.4", "--group-start", "8", "--group-min", "2"])) == 0
        report_path = out / "report.json"
        data = json.loads(report_path.read_text())
        data["layers"][0]["output_sq_error"] = -5.0
        report_path.write_text(json.dumps(data))
        assert run(["verify", "--report", str(report_path)]) == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value", [
        ("kept_channels", list(range(999))),
        ("kept_channels", []),
        ("kept_heads", []),
    ])
    def test_verify_flags_kept_unit_counts(self, toy_dir, tmp_path, capsys, field, value):
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, [
            "--global-target", "0.4", "--group-start", "8", "--group-min", "2"])) == 0
        report_path = out / "report.json"
        data = json.loads(report_path.read_text())
        data["layers"][1][field] = value
        report_path.write_text(json.dumps(data))
        assert run(["verify", "--report", str(report_path),
                    "--manifest", str(out / "manifest.json"),
                    "--model", str(out / "model.obt")]) == 2
        assert f"layer 1: {len(value)} kept" in capsys.readouterr().out

    @pytest.mark.parametrize("tamper", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS.keys())
    def test_malformed_report_exit_2(self, toy_dir, tmp_path, capsys, tamper):
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, [
            "--global-target", "0.4", "--group-start", "8", "--group-min", "2"])) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tamper(json.loads((out / "report.json").read_text()))))
        for argv in (["verify", "--report", str(bad), "--manifest", str(out / "manifest.json"),
                      "--model", str(out / "model.obt")],
                     ["report", "--report", str(bad)]):
            assert run(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_report_naming_deleted_calib_mode_still_verifies(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, [
            "--global-target", "0.4", "--group-start", "8", "--group-min", "2"])) == 0
        report_path = out / "report.json"
        data = json.loads(report_path.read_text())
        assert "calib_mode" not in data["config"]
        data["config"]["calib_mode"] = "pruned"
        report_path.write_text(json.dumps(data))
        assert run(["verify", "--report", str(report_path), "--manifest",
                    str(out / "manifest.json"), "--model", str(out / "model.obt")]) == 0
        assert run(["report", "--report", str(report_path)]) == 0

    def test_report_table_and_csv(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, [
            "--global-target", "0.4", "--group-start", "8", "--group-min", "2"])) == 0
        csv_out = tmp_path / "table.csv"
        assert run(["report", "--report", str(out / "report.json"),
                    "--csv", str(csv_out)]) == 0
        printed = capsys.readouterr().out
        assert "output_sq_error" in printed
        assert csv_out.read_text() == (out / "report.csv").read_text()
