"""End-to-end CLI behavior and exit codes (0 ok, 1 usage, 2 numerical)."""

import contextlib
import errno
import io
import json
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from obslim import cli, pipeline
from obslim.cli import main
from obslim.pipeline import PruneReport, ToyModelSpec, gen_toy
from obslim.tensorstore import (
    ModelManifest,
    TensorFileWriter,
    read_tensor_file,
    write_tensor_file,
)

from conftest import NON_FINITE, SRC, ffn_in_worker


GEN_TOY_OUTPUTS = ("model.obt", "calib.obt", "manifest.json")
PRUNE_OUTPUTS = ("model.obt", "manifest.json", "report.json", "report.csv")


def out_dir_with_directory_at(out, names, taken):
    """Fill ``out`` with a file at each output name, but a directory at ``taken``;
    return a snapshot of its contents."""
    out.mkdir()
    for name in names:
        if name == taken:
            (out / name).mkdir()
            (out / name / "inner").write_text("kept")
        else:
            (out / name).write_text(name)
    return snapshot(out)


def snapshot(top):
    return {p.relative_to(top): p.read_bytes() if p.is_file() else None
            for p in sorted(top.rglob("*"))}


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def run_module(argv, env=(), **kwargs):
    """``python -m obslim ARGV`` in a new process, from the source tree alone."""
    return subprocess.run([sys.executable, "-m", "obslim", *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC), **dict(env)},
                          capture_output=True, text=True, timeout=120, **kwargs)


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

    def test_flagless_writes_default_spec(self, tmp_path):
        assert run(["gen-toy", "--out", str(tmp_path / "cli")]) == 0
        tensors, manifest, calib = gen_toy(ToyModelSpec())
        lib = tmp_path / "lib"
        lib.mkdir()
        write_tensor_file(tensors, lib / "model.obt")
        write_tensor_file({f"calib.{i}": x for i, x in enumerate(calib)}, lib / "calib.obt")
        manifest.save(lib / "manifest.json")
        for name in ("model.obt", "manifest.json", "calib.obt"):
            assert (tmp_path / "cli" / name).read_bytes() == (lib / name).read_bytes(), name

    @pytest.mark.parametrize("flag, field, value", [
        ("--seed", "seed", 5), ("--layers", "n_layers", 2), ("--d-model", "d_model", 16),
        ("--heads", "n_head", 2), ("--d-ff", "d_ff", 8), ("--batches", "n_calib_batches", 1),
        ("--tokens", "tokens_per_batch", 3)])
    def test_each_flag_sets_its_field(self, tmp_path, monkeypatch, flag, field, value):
        specs = []
        monkeypatch.setattr(cli, "gen_toy", lambda spec: specs.append(spec) or gen_toy(spec))
        assert run(["gen-toy", "--out", str(tmp_path / "toy"), flag, str(value)]) == 0
        assert specs == [replace(ToyModelSpec(), **{field: value})]

    @pytest.mark.parametrize("flag", ["--heads", "--d-model", "--layers", "--d-ff"])
    def test_zero_dimension_exit_2(self, tmp_path, capsys, flag):
        assert run(["gen-toy", "--out", str(tmp_path / "toy"), flag, "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dimensions must be >= 1" in err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("flag", ["--batches", "--tokens"])
    def test_no_calibration_tokens_exit_2(self, tmp_path, capsys, flag):
        assert run(["gen-toy", "--out", str(tmp_path / "toy"), flag, "0"]) == 2
        assert capsys.readouterr().err == ("error: calibration needs at least one batch "
                                           "of one token\n")

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 728. TiB for an array"),
         "Unable to allocate 728. TiB for an array"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch, exc, message):
        def gen_toy(spec):
            raise exc

        monkeypatch.setattr(cli, "gen_toy", gen_toy)
        assert run(["gen-toy", "--out", str(tmp_path / "toy")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.fixture()
    def no_generation(self, monkeypatch):
        def gen_toy(spec):
            raise AssertionError("gen-toy generated before refusing")

        monkeypatch.setattr(cli, "gen_toy", gen_toy)

    def test_out_not_a_directory_exit_2_before_generating(self, tmp_path, capsys,
                                                          no_generation):
        out = tmp_path / "afile"
        out.write_text("kept")
        assert run(["gen-toy", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out} exists and is not a directory\n"
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("taken", GEN_TOY_OUTPUTS)
    def test_output_name_taken_by_a_directory_exit_2_before_generating(
            self, tmp_path, capsys, no_generation, taken):
        out = tmp_path / "toy"
        before = out_dir_with_directory_at(out, GEN_TOY_OUTPUTS, taken)
        assert run(["gen-toy", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: --out {out}: {taken} is a directory, "
                                           f"not a file to replace\n")
        assert snapshot(out) == before

    @pytest.mark.parametrize("flags, memory", [
        # the default spec's float64 arrays take 8 * (8 * (4 * 32**2 + 3 * 32 * 64)
        # + 4 * 64 * 32) = 720896 bytes
        ([], 720895),
        (["--d-model", "10000000", "--heads", "1", "--layers", "1"], None),
    ], ids=["default-spec-one-byte-short", "728-TiB"])
    def test_spec_larger_than_memory_exit_2_before_generating(self, tmp_path, capsys,
                                                              monkeypatch, no_generation,
                                                              flags, memory):
        if memory is not None:
            monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        out = tmp_path / "toy"
        assert run(["gen-toy", "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the toy model and calibration set need ") and \
            err.endswith(" of physical memory\n") and err.count("\n") == 1, err
        assert not out.exists()

    SMALL = ["--layers", "1", "--d-model", "8", "--heads", "2", "--d-ff", "8"]

    @pytest.mark.parametrize("interrupt", [False, True], ids=["oserror", "interrupt"])
    @pytest.mark.parametrize("in_place", [False, True], ids=["new-out", "over-a-set"])
    @pytest.mark.parametrize("failing", GEN_TOY_OUTPUTS)
    def test_failed_output_write_changes_no_output(self, tmp_path, capsys, monkeypatch,
                                                   failing, in_place, interrupt):
        # the three outputs replace the old ones as one set, once all are written;
        # the snapshot also holds every temporary file or directory left behind
        out = tmp_path / "toy"
        if in_place:
            assert run(["gen-toy", "--out", str(out), "--seed", "1", *self.SMALL]) == 0
            before = snapshot(out)

        def failing_write(write):
            def wrapped(obj, path):
                if os.path.basename(path) != failing:
                    return write(obj, path)
                if interrupt:
                    raise KeyboardInterrupt
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return wrapped

        monkeypatch.setattr(cli, "write_tensor_file", failing_write(cli.write_tensor_file))
        monkeypatch.setattr(ModelManifest, "save", failing_write(ModelManifest.save))
        capsys.readouterr()
        argv = ["gen-toy", "--out", str(out), "--seed", "2", *self.SMALL]
        if interrupt:
            with pytest.raises(KeyboardInterrupt):
                run(argv)
            assert capsys.readouterr().err == ""
        else:
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: [Errno 28] ") and err.count("\n") == 1, err
        if in_place:
            assert snapshot(out) == before
        else:
            assert not out.exists()

    def test_replaces_a_set_with_exactly_its_three_files(self, tmp_path):
        out, fresh = tmp_path / "toy", tmp_path / "fresh"
        assert run(["gen-toy", "--out", str(out), "--seed", "1", *self.SMALL]) == 0
        assert run(["gen-toy", "--out", str(out), "--seed", "2", *self.SMALL]) == 0
        assert run(["gen-toy", "--out", str(fresh), "--seed", "2", *self.SMALL]) == 0
        assert sorted(os.listdir(out)) == sorted(GEN_TOY_OUTPUTS)
        for name in GEN_TOY_OUTPUTS:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_empty_out_exit_2_writing_nothing(self, tmp_path, capsys, monkeypatch):
        # "" names no directory: nothing is staged in, or written to, the working directory
        monkeypatch.chdir(tmp_path)
        assert run(["gen-toy", "--out", "", *self.SMALL]) == 2
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
        assert os.listdir(tmp_path) == []

    def test_runs_as_python_module(self, tmp_path):
        proc = run_module(["gen-toy", "--out", str(tmp_path / "toy"),
                           "--layers", "1", "--d-model", "8", "--heads", "2", "--d-ff", "8"])
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

    def test_removed_report_csv(self, tmp_path):
        # prune writes report.csv; report only prints the table
        assert run(["report", "--report", str(tmp_path / "report.json"),
                    "--csv", str(tmp_path / "table.csv")]) == 1


def run_capturing_stderr(argv):
    """``(run(argv), what it wrote to stderr)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        return run(argv), err.getvalue()


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


def with_header(blob, header: bytes):
    """A tensor file's bytes with its header replaced by one of the same length."""
    (length,) = struct.unpack_from("<Q", blob, 8)
    return blob[:16] + header.ljust(length) + blob[16 + length:]


MALFORMED_HEADERS = {
    "not-utf8": (lambda b: with_header(b, b"\xff\xfe"), "header is not valid UTF-8 JSON: "),
    "not-json": (lambda b: with_header(b, b"{'a': 1}"), "header is not valid UTF-8 JSON: "),
    "not-an-object": (lambda b: with_header(b, b"[]"), "header must be a JSON object"),
    "truncated-length": (lambda b: b[:12], "file truncated before header length"),
}


def with_layer_1(data, **fields):
    """A copy of a parsed manifest with fields of layer 1 replaced."""
    layers = list(data["layers"])
    layers[1] = {**layers[1], **fields}
    return {**data, "layers": layers}


# Each of these parsed loosely or raised an uncaught TypeError once; the
# float and bool cases describe a model that pruned without complaint.
MISTYPED_MANIFESTS = {
    "anchor-list": lambda d: with_layer_1(d, attn_out=[]),
    "anchor-object": lambda d: with_layer_1(d, ffn_down={}),
    "coupled-name-list": lambda d: with_layer_1(d, attn_coupled=[[], "b", "c"]),
    "coupled-string": lambda d: with_layer_1(d, attn_coupled="abc"),
    "layout-float": lambda d: with_layer_1(d, head_layout=[4.0, 4]),
    "layout-bool": lambda d: with_layer_1(d, head_layout=[True, 16]),
    "layout-negative": lambda d: with_layer_1(d, head_layout=[-4, -4]),
}

# Each of these pruned once: the first two as a 3-layer model, the third
# until slicing the tensor a second time raised an uncaught IndexError, and
# the last two until layer 1's forward pass failed to unpack its tensors.
INCONSISTENT_MANIFESTS = {
    "n-layers-float": (lambda d: {**d, "n_layers": 2.9}, "n_layers 2.9 is not"),
    "n-layers-string": (lambda d: {**d, "n_layers": "3"}, "n_layers '3' is not"),
    "tensor-named-twice": (
        lambda d: with_layer_1(d, attn_coupled=d["layers"][1]["attn_coupled"][:1] * 3),
        "layer 1: tensor 'layers.1.attn.wq' is named twice"),
    "two-attn-coupled": (
        lambda d: with_layer_1(d, attn_coupled=d["layers"][1]["attn_coupled"][:2]),
        "layer 1: anchor 'layers.1.attn.wo' is coupled to ['layers.1.attn.wq', "
        "'layers.1.attn.wk'], the forward pass needs 3 (q, k, v)"),
    "one-ffn-coupled": (
        lambda d: with_layer_1(d, ffn_coupled=d["layers"][1]["ffn_coupled"][:1]),
        "layer 1: anchor 'layers.1.ffn.w_down' is coupled to ['layers.1.ffn.w_up'], "
        "the forward pass needs 2 (up, gate)"),
}


def with_first_entry(blob, **fields):
    """A tensor file's bytes with fields of its first header entry replaced."""
    (length,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + length])
    first = next(iter(header))
    header[first] = {**header[first], **fields}
    raw = json.dumps(header).encode()
    return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + length:]


MISTYPED_HEADERS = {
    "dtype-list": lambda b: with_first_entry(b, dtype=[]),
    "shape-float": lambda b: with_first_entry(b, shape=[16.0, 16]),
    "offset-bool": lambda b: with_first_entry(b, byte_offset=False),
    "length-float": lambda b: with_first_entry(b, byte_len=2048.0),
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

    def test_out_into_the_input_directory(self, toy_dir, tmp_path):
        # the input model is still mapped while its replacement is written
        flags = ["--global-target", "0.4", "--group-start", "8", "--group-min", "2"]
        fresh = tmp_path / "fresh"
        assert run(prune_args(toy_dir, fresh, flags)) == 0
        assert run(prune_args(toy_dir, toy_dir, flags)) == 0
        for name in ("model.obt", "manifest.json", "report.json", "report.csv"):
            assert (toy_dir / name).read_bytes() == (fresh / name).read_bytes(), name
        assert sorted(os.listdir(toy_dir)) == sorted(
            ["calib.obt", "manifest.json", "model.obt", "report.csv", "report.json"])
        assert run(["verify", "--report", str(toy_dir / "report.json"),
                    "--manifest", str(toy_dir / "manifest.json"),
                    "--model", str(toy_dir / "model.obt")]) == 0

    def test_flags_set_the_variant_and_config(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        code = run(prune_args(toy_dir, out, [
            "--ratio-first", "0.25", "--global-target", "0.5", "--variant", "lin-inc",
            "--group-start", "8", "--group-min", "2", "--damping", "0.02",
        ]))
        assert code == 0
        report = PruneReport.load(out / "report.json")
        assert report.variant == "linear_increase"
        assert report.config["damping"] == 0.02
        assert report.config["group_start"] == 8

    @pytest.mark.parametrize("bad", [
        ["--damping", "-0.5"],
        ["--group-start", "2", "--group-min", "4"],
        ["--group-min", "0"],
        ["--damping", "1e400"],  # parses as inf
    ])
    def test_wrongly_typed_config_value_exit_2(self, toy_dir, tmp_path, capsys, bad):
        # validated even when no layer prunes a channel (global target 0)
        for target in ("0.3", "0.0"):
            code = run(prune_args(toy_dir, tmp_path / "out", ["--global-target", target, *bad]))
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", [
        ["--damping", "x"],
        ["--group-start", "8.5"],
        ["--variant", "log_increase"],
    ], ids=["damping-string", "group-start-float", "variant-unknown"])
    def test_unparsable_config_value_is_a_usage_error(self, toy_dir, tmp_path, bad):
        assert run(prune_args(toy_dir, tmp_path / "out", ["--global-target", "0.3", *bad])) == 1

    @pytest.mark.parametrize("key, rest", [
        ("ratio_first", ["--global-target", "0.3"]),
        ("ratio_last", ["--ratio-first", "0.1"]),
        ("global_target", []),
    ])
    def test_wrongly_typed_schedule_value_exit_2(self, toy_dir, tmp_path, capsys, key, rest):
        for bad in ("nan", "inf"):
            flag = "--" + key.replace("_", "-")
            code = run(prune_args(toy_dir, tmp_path / "out", [*rest, flag, bad]))
            err = capsys.readouterr().err
            assert code == 2, bad
            assert err.startswith(f"error: {key} ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("flags", [
        ["--ratio-first", "-1e-3"],
        ["--ratio-first", "0.1", "--ratio-last", "-1e-3"],
        ["--global-target", "-1e308"],
        ["--global-target", "-inf"],
        ["--global-target", "0.3", "--damping", "-1e-3"],
    ], ids=["ratio-first", "ratio-last", "global-target", "global-target-inf", "damping"])
    def test_negative_value_after_a_space_is_out_of_range(self, toy_dir, tmp_path, capsys,
                                                         flags, no_payload_read):
        # "--flag -1e-3" is read as "--flag=-1e-3", not as an option named -1e-3
        joined = [*flags[:-2], f"{flags[-2]}={flags[-1]}"]
        errs = []
        for form in (flags, joined):
            assert run(prune_args(toy_dir, tmp_path / "out", form)) == 2, form
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1], errs
        assert errs[0].startswith("error: ") and errs[0].count("\n") == 1, errs[0]

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
        ("--config", "x.json"),
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

    def test_overflow_past_the_split_prints_one_line(self, tmp_path):
        # As above, in a separate process, whose stderr the reference worker
        # shares. Layer 0 removes heads, so the worker can reach layer 1's
        # overflowing values before this process fails at layer 1's Hessian.
        toy = tmp_path / "toy"
        assert run(["gen-toy", "--out", str(toy), "--seed", "7", "--layers", "2",
                    "--d-model", "16", "--heads", "4", "--d-ff", "24"]) == 0
        tensors = read_tensor_file(toy / "model.obt")
        tensors["layers.1.attn.wv"] *= 1e160
        write_tensor_file(tensors, toy / "model.obt")
        proc = run_module(prune_args(toy, tmp_path / "out", ["--ratio-first", "0.5",
                                                             "--ratio-last", "0.5",
                                                             "--variant", "uniform"]))
        assert proc.returncode == 2
        assert proc.stderr == ("error: pruning failed at layer 1 (attention): "
                               "singular Hessian: matrix contains non-finite entries\n")

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_values_print_one_line(self, tmp_path, case):
        # in a separate process, where a numpy warning would print, and whose
        # stderr the reference worker shares
        scaled, scale, message = NON_FINITE[case]
        flags = (["--variant", "log-dec", "--ratio-first", "0.5", "--ratio-last", "0.0"]
                 if case == "c" else ["--global-target", "0.4"])  # c prunes no layer 2
        toy = tmp_path / "toy"
        assert run(["gen-toy", "--out", str(toy), "--seed", "1", "--layers", "3",
                    "--d-model", "16", "--heads", "4", "--d-ff", "24",
                    "--batches", "2", "--tokens", "24"]) == 0
        tensors = read_tensor_file(toy / "model.obt")
        for name in scaled:
            tensors[name] *= scale
        write_tensor_file(tensors, toy / "model.obt")
        proc = run_module(prune_args(toy, tmp_path / "out", flags))
        assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.usefixtures("deadline")
    def test_prune_in_a_daemonic_process(self, toy_dir, tmp_path):
        # a Pool worker may have no children: a run that removes something
        # stops with one error line, and one that removes nothing forks none
        argvs = [prune_args(toy_dir, tmp_path / "pruned", ["--global-target", "0.4"]),
                 prune_args(toy_dir, tmp_path / "kept",
                            ["--ratio-first", "0", "--ratio-last", "0"])]
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pruned, kept = pool.map(run_capturing_stderr, argvs)
        assert pruned == (2, "error: prune_model forks a worker process for the reference stream "
                             "and cannot do so from a daemonic process\n")
        assert kept == (0, "")
        assert (tmp_path / "kept" / "model.obt").exists()

    def test_reference_worker_death_exit_2(self, toy_dir, tmp_path, capsys, monkeypatch,
                                           deadline):
        ffn_in_worker(monkeypatch, lambda: os._exit(3))
        assert run(prune_args(toy_dir, tmp_path / "out", [
            "--variant", "uniform", "--ratio-first", "0.5", "--ratio-last", "0.5"])) == 2
        assert capsys.readouterr().err == ("error: the reference stream's worker exited with "
                                           "code 3 before sending layer 0\n")
        assert multiprocessing.active_children() == []

    def test_output_does_not_depend_on_the_cpus_available(self, toy_dir, tmp_path):
        # The pruning process and the reference worker share one CPU, or
        # not. Outputs are bit-identical only at a fixed BLAS thread count,
        # and OpenBLAS sizes its pool by the CPUs it may use, so it is fixed.
        cpu = min(os.sched_getaffinity(0))
        outs = [tmp_path / "spread", tmp_path / "one-cpu"]
        one_blas_thread = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")}
        for out, pin in zip(outs, [None, lambda: os.sched_setaffinity(0, {cpu})]):
            proc = run_module(prune_args(toy_dir, out, ["--global-target", "0.5"]),
                              env=one_blas_thread, preexec_fn=pin)
            assert proc.returncode == 0, proc.stderr
        for name in ("model.obt", "report.json", "report.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

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

    @pytest.mark.parametrize("spoil, flags", [
        ("manifest", ["--global-target", "0.4"]),
        (None, ["--group-start", "2", "--group-min", "4"]),
        ("out", ["--global-target", "0.4"]),
    ], ids=["manifest-missing-tensor", "config-group-sizes", "out-is-a-file"])
    def test_manifest_or_config_error_reads_no_payload(self, toy_dir, tmp_path, capsys,
                                                       no_payload_read, spoil, flags):
        out = tmp_path / "out"
        if spoil == "manifest":
            manifest = ModelManifest.load(toy_dir / "manifest.json")
            manifest.layers[1].attn_out = "layers.1.attn.renamed"
            manifest.save(toy_dir / "manifest.json")
        elif spoil == "out":
            out.write_text("not a directory")
        assert run(prune_args(toy_dir, out, flags)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("taken", PRUNE_OUTPUTS)
    def test_output_name_taken_by_a_directory_exit_2_before_reading(
            self, toy_dir, tmp_path, capsys, no_payload_read, taken):
        # this once pruned every layer and replaced model.obt and manifest.json
        # before writing report.json failed
        out = tmp_path / "out"
        before = out_dir_with_directory_at(out, PRUNE_OUTPUTS, taken)
        assert run(prune_args(toy_dir, out, ["--global-target", "0.3"])) == 2
        assert capsys.readouterr().err == (f"error: --out {out}: {taken} is a directory, "
                                           f"not a file to replace\n")
        assert snapshot(out) == before

    def test_prune_into_its_input_directory(self, toy_dir, tmp_path):
        inputs = tmp_path / "inputs"
        shutil.copytree(toy_dir, inputs)
        fresh = tmp_path / "fresh"
        flags = ["--global-target", "0.3"]
        assert run(prune_args(inputs, fresh, flags)) == 0
        assert run(prune_args(toy_dir, toy_dir, flags)) == 0
        for name in PRUNE_OUTPUTS:
            assert (toy_dir / name).read_bytes() == (fresh / name).read_bytes(), name
        assert (toy_dir / "calib.obt").read_bytes() == (inputs / "calib.obt").read_bytes()
        assert run(["verify", "--report", str(toy_dir / "report.json"),
                    "--manifest", str(toy_dir / "manifest.json"),
                    "--model", str(toy_dir / "model.obt")]) == 0

    def test_hessian_larger_than_memory_exit_2(self, toy_dir, tmp_path, capsys, monkeypatch,
                                               no_payload_read):
        # toy_dir's attention Hessians take 8 * 16**2 = 2048 bytes, its FFN ones
        # 8 * 24**2 = 4608; layer 0 sits at ratio 0, removes nothing and builds none
        monkeypatch.setattr(cli, "_physical_memory", lambda: 4096)
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, ["--global-target", "0.3"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: layer 1 (FFN): ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("tamper", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
    def test_malformed_model_exit_2(self, toy_dir, tmp_path, capsys, tamper):
        path = toy_dir / "model.obt"
        path.write_bytes(tamper(path.read_bytes()))
        assert run(prune_args(toy_dir, tmp_path / "out", ["--global-target", "0.3"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("tamper, message", MALFORMED_HEADERS.values(),
                             ids=MALFORMED_HEADERS.keys())
    def test_malformed_header_exit_2(self, toy_dir, tmp_path, capsys, tamper, message):
        path = toy_dir / "model.obt"
        path.write_bytes(tamper(path.read_bytes()))
        assert run(prune_args(toy_dir, tmp_path / "out", ["--global-target", "0.3"])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("tamper", MISTYPED_MANIFESTS.values(), ids=MISTYPED_MANIFESTS.keys())
    def test_mistyped_manifest_exit_2(self, toy_dir, tmp_path, capsys, tamper):
        path = toy_dir / "manifest.json"
        path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
        assert run(prune_args(toy_dir, tmp_path / "out", ["--global-target", "0.3"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed layer entry: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("tamper, message", INCONSISTENT_MANIFESTS.values(),
                             ids=INCONSISTENT_MANIFESTS.keys())
    def test_inconsistent_manifest_exit_2(self, toy_dir, tmp_path, capsys, no_payload_read,
                                          tamper, message):
        path = toy_dir / "manifest.json"
        path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
        assert run(prune_args(toy_dir, tmp_path / "out", ["--global-target", "0.3"])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("name, cut, message", [
        # layers 0 and 1 once pruned before numpy's matmul failed in layer 2
        ("layers.2.attn.wq", np.s_[:, :-1], "layer 2: tensor 'layers.2.attn.wq' has 15 columns"),
        ("layers.1.ffn.w_down", np.s_[:-1], "layer 1: tensor 'layers.1.ffn.w_down' has 15 rows"),
    ], ids=["coupled-column-short", "anchor-row-short"])
    def test_tensor_off_the_model_width_exit_2(self, toy_dir, tmp_path, capsys,
                                               no_payload_read, name, cut, message):
        tensors = read_tensor_file(toy_dir / "model.obt")
        tensors[name] = tensors[name][cut]
        write_tensor_file(tensors, toy_dir / "model.obt")
        assert run(prune_args(toy_dir, tmp_path / "out", ["--global-target", "0.3"])) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {message}, the model width (rows of layer 0's attn_out) "
                       f"is 16\n"), err

    @pytest.mark.parametrize("flags", [["--global-target", "0.3"], ["--ratio-first", "0.0"]],
                             ids=["global-target", "ratio-first-0"])
    def test_ffn_without_channels_exit_2_naming_the_layer(self, toy_dir, tmp_path, capsys,
                                                          no_payload_read, flags):
        # this once ended in "units must be >= 1, got 0", naming no layer
        tensors = read_tensor_file(toy_dir / "model.obt")
        tensors["layers.1.ffn.w_down"] = np.zeros((16, 0))
        for name in ("layers.1.ffn.w_up", "layers.1.ffn.w_gate"):
            tensors[name] = np.zeros((0, 16))
        write_tensor_file(tensors, toy_dir / "model.obt")
        assert run(prune_args(toy_dir, tmp_path / "out", flags)) == 2
        assert capsys.readouterr().err == ("error: layer 1: FFN anchor 'layers.1.ffn.w_down' "
                                           "has no columns\n")

    @pytest.mark.parametrize("tamper", MISTYPED_HEADERS.values(), ids=MISTYPED_HEADERS.keys())
    def test_mistyped_tensor_header_exit_2(self, toy_dir, tmp_path, capsys, tamper):
        path = toy_dir / "model.obt"
        path.write_bytes(tamper(path.read_bytes()))
        assert run(prune_args(toy_dir, tmp_path / "out", ["--global-target", "0.3"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: layers.0.attn.wq: ") and err.count("\n") == 1, err

    def test_job_holds_the_model_less_than_twice(self, tmp_path):
        # the job's heap peak stays below 2x the model file: the model is mapped,
        # not copied into the heap, and each pruned layer is written as it is done
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

    def test_job_holds_a_few_layers_not_the_pruned_model(self, tmp_path):
        # 8 layers at d_model 128: the pruned model is over 5 layers' bytes, but
        # each pruned layer is written and dropped as soon as its FFN is done,
        # and the input model is mapped, so the job holds the calibration set
        # and one layer's pruned tensors and working state at a time
        data, out = tmp_path / "m", tmp_path / "out"
        assert run(["gen-toy", "--out", str(data), "--layers", "8", "--d-model", "128",
                    "--heads", "4", "--d-ff", "256", "--batches", "2", "--tokens", "64"]) == 0
        layer = 8 * (4 * 128**2 + 3 * 128 * 256)
        calib = os.path.getsize(data / "calib.obt")
        tracemalloc.start()
        try:
            code = run(prune_args(data, out, ["--global-target", "0.3"]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert os.path.getsize(out / "model.obt") > 5 * layer
        assert peak < 3 * layer + calib, peak / layer

    @pytest.mark.usefixtures("deadline")
    @pytest.mark.parametrize("failure", ["singular-at-layer-1", "worker-death-at-layer-0"])
    def test_failed_prune_changes_nothing(self, toy_dir, tmp_path, capsys, monkeypatch,
                                          failure):
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, ["--global-target", "0.3"])) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "model.obt", "report.csv",
                                           "report.json"]
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        puts = []

        class Spy(TensorFileWriter):
            def put(self, name, value):
                puts.append(name)
                super().put(name, value)

        monkeypatch.setattr(pipeline, "TensorFileWriter", Spy)
        calib = toy_dir / "calib.obt"
        if failure == "singular-at-layer-1":
            # layer 0 sits at ratio 0 and builds no Hessian; layer 1's attention
            # sees 8 tokens for 16 features at zero damping, a singular Hessian
            calib = tmp_path / "calib8.obt"
            write_tensor_file({"calib.0": np.random.default_rng(0).normal(size=(16, 8))}, calib)
            flags = ["--variant", "lin-inc", "--ratio-first", "0", "--ratio-last", "0.5",
                     "--damping", "0"]
            message = "error: pruning failed at layer 1 (attention): "
        else:
            ffn_in_worker(monkeypatch, lambda: os._exit(3))
            flags = ["--variant", "uniform", "--ratio-first", "0.5", "--ratio-last", "0.5"]
            message = "error: the reference stream's worker exited with code 3 "
        capsys.readouterr()
        for dest in (out, tmp_path / "fresh"):
            args = prune_args(toy_dir, dest, flags)
            args[args.index("--calib") + 1] = str(calib)
            assert run(args) == 2
            err = capsys.readouterr().err
            assert err.startswith(message) and err.count("\n") == 1, err
        assert len(puts) == 2 * 7  # layer 0 was streamed before each run failed
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("in_place", [False, True], ids=["out", "in-place"])
    @pytest.mark.parametrize("owner, method, output", [
        (ModelManifest, "to_json", "manifest.json"),
        (PruneReport, "to_json", "report.json"),
        (PruneReport, "to_csv", "report.csv"),
    ], ids=["manifest.json", "report.json", "report.csv"])
    def test_failed_output_write_changes_no_output(self, toy_dir, tmp_path, capsys, monkeypatch,
                                                   owner, method, output, in_place):
        # the four outputs replace the old ones as one set, once all are written;
        # the snapshot also holds every temporary file or directory left behind
        out = toy_dir if in_place else tmp_path / "out"
        assert run(prune_args(toy_dir, out, ["--global-target", "0.2"])) == 0
        before = snapshot(out)

        def no_space(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), output)

        monkeypatch.setattr(owner, method, no_space)
        capsys.readouterr()
        assert run(prune_args(toy_dir, out, ["--global-target", "0.4"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 28] ") and err.count("\n") == 1, err
        assert snapshot(out) == before

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_outputs_replace_a_symlink_to_a_full_device(self, toy_dir, tmp_path):
        # each output is renamed over its destination, never written through it
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run(prune_args(toy_dir, out, ["--global-target", "0.2"])) == 0
        (out / "report.json").unlink()
        (out / "report.json").symlink_to("/dev/full")
        assert run(prune_args(toy_dir, out, ["--global-target", "0.4"])) == 0
        assert run(prune_args(toy_dir, fresh, ["--global-target", "0.4"])) == 0
        assert sorted(os.listdir(out)) == sorted(PRUNE_OUTPUTS)
        assert not (out / "report.json").is_symlink()
        for name in PRUNE_OUTPUTS:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

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
    "kept-heads-strings": lambda d: with_row(d, kept_heads=["x", "x"]),
    "kept-channels-null": lambda d: with_row(d, kept_channels=[None]),
    "kept-heads-bool": lambda d: with_row(d, kept_heads=[True, 2]),
}

# Each of these passed verify once, or (ratios-empty) ended in an IndexError;
# the last four were always caught, but no test reached their branches.
UNCHECKED_REPORTS = {
    "ratios-empty": (lambda d: {**d, "ratios": []}, "0 ratios for 3 layer rows"),
    "ratio-off-schedule": (lambda d: with_row(d, ratio=0.9), "layer 1: ratio 0.9 is not ratios[1]"),
    "nothing-removed": (lambda d: with_row(d, heads_removed=0, channels_removed=0),
                        "layer 1: 0 of 2 heads removed"),
    "kept-channels-repeated": (
        lambda d: with_row(d, kept_channels=d["layers"][1]["kept_channels"][:1] * 13),
        "layer 1: kept channels are not increasing"),
    "kept-heads-out-of-range": (lambda d: with_row(d, kept_heads=[999, 1000]),
                                "layer 1: kept heads are not increasing indices in [0, 4)"),
    "step-error-negative": (lambda d: with_row(d, sum_step_error=-1.0),
                            "layer 1: bad sum_step_error -1.0"),
    "ratio-above-one": (
        lambda d: {**with_row(d, ratio=1.5), "ratios": [d["ratios"][0], 1.5, *d["ratios"][2:]]},
        "layer 1: ratio 1.5 outside [0, 1)"),
    "heads-removed-negative": (lambda d: with_row(d, heads_removed=-1),
                               "layer 1: negative removal count"),
    "layers-swapped": (
        lambda d: {**d, "layers": [{**d["layers"][0], "layer": 1}, {**d["layers"][1], "layer": 0},
                                   *d["layers"][2:]]},
        "layer indices are not 0..n-1 in order"),
}


def two_layer_manifest(toy_dir, out):
    path = out.parent / "two_layers.json"
    ModelManifest(layers=ModelManifest.load(out / "manifest.json").layers[:2]).save(path)
    return path, out / "model.obt"


# (manifest, model) paths that do not match a 3-layer report, from the toy and its prune output
MISMATCHED_MODEL_FILES = {
    "two-layer-manifest": (two_layer_manifest, "manifest has 2 layers, report 3"),
    "unpruned-model": (lambda toy_dir, out: (out / "manifest.json", toy_dir / "model.obt"),
                       "pruned model fails manifest validation"),
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

    @pytest.mark.parametrize("tamper, message", UNCHECKED_REPORTS.values(),
                             ids=UNCHECKED_REPORTS.keys())
    def test_verify_ties_rows_to_schedule_and_counts(self, toy_dir, tmp_path, capsys, tamper,
                                                     message):
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, [
            "--global-target", "0.4", "--group-start", "8", "--group-min", "2"])) == 0
        report_path = out / "report.json"
        data = json.loads(report_path.read_text())
        assert data["layers"][1]["heads_removed"] == 2
        assert len(data["layers"][1]["kept_channels"]) == 13
        report_path.write_text(json.dumps(tamper(data)))
        capsys.readouterr()
        assert run(["verify", "--report", str(report_path),
                    "--manifest", str(out / "manifest.json"),
                    "--model", str(out / "model.obt")]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert all(line.startswith("FAIL: ") for line in captured.out.splitlines())
        assert message in captured.out, captured.out

    @pytest.mark.parametrize("files, message", MISMATCHED_MODEL_FILES.values(),
                             ids=MISMATCHED_MODEL_FILES.keys())
    def test_verify_checks_the_report_against_the_model_files(self, toy_dir, tmp_path, capsys,
                                                              files, message):
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, ["--global-target", "0.4"])) == 0
        manifest, model = files(toy_dir, out)
        capsys.readouterr()
        assert run(["verify", "--report", str(out / "report.json"),
                    "--manifest", str(manifest), "--model", str(model)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert all(line.startswith("FAIL: ") for line in captured.out.splitlines())
        assert message in captured.out, captured.out

    def test_verify_rejects_a_report_with_no_layer_rows(self, tmp_path, capsys):
        # prune never writes one; without --manifest nothing else would catch it
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(
            {"variant": "log_increase", "ratios": [], "config": {}, "layers": []}))
        assert run(["verify", "--report", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "FAIL: report has no layer rows\n"

    def test_verify_model_without_manifest_exit_2(self, toy_dir, tmp_path, capsys):
        # the model is only checked against a manifest, so alone it would pass unread
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, ["--global-target", "0.4"])) == 0
        capsys.readouterr()
        assert run(["verify", "--report", str(out / "report.json"),
                    "--model", str(out / "model.obt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verify --model needs --manifest: the model is checked against it\n"

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

    def test_report_table(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(prune_args(toy_dir, out, [
            "--global-target", "0.4", "--group-start", "8", "--group-min", "2"])) == 0
        assert run(["report", "--report", str(out / "report.json")]) == 0
        printed = capsys.readouterr().out
        assert "output_sq_error" in printed
