"""Container round-trips and header validation, manifest checks."""

import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from obslim import tensorstore
from obslim.errors import ManifestError, TensorFormatError
from obslim.tensorstore import (
    MAGIC,
    LayerEntry,
    ModelManifest,
    TensorFileWriter,
    read_tensor_file,
    read_tensor_header,
    validate_manifest,
    write_tensor_file,
)


def craft_file(path, header: dict, payload: bytes):
    raw = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<Q", len(raw)) + raw + payload)


def traced_peak(fn):
    """``(fn(), peak traced heap in bytes while it ran)``."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestRoundTrip:
    def test_empty_map(self, tmp_path):
        path = tmp_path / "empty.obt"
        write_tensor_file({}, path)
        assert read_tensor_file(path) == {}

    def test_single_zero(self, tmp_path):
        path = tmp_path / "one.obt"
        write_tensor_file({"w": np.array([[0.0]])}, path)
        out = read_tensor_file(path)
        assert list(out) == ["w"]
        assert np.array_equal(out["w"], np.array([[0.0]]))

    def test_random_f64_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "rt.obt"
        for _ in range(10):
            w = rng.normal(size=(2, 3))
            write_tensor_file({"w": w}, path)
            back = read_tensor_file(path)["w"]
            assert back.tobytes() == w.tobytes()

    def test_f32_upcasts_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        w32 = rng.normal(size=(4, 5)).astype(np.float32)
        path = tmp_path / "f32.obt"
        write_tensor_file({"w": w32}, path)
        back = read_tensor_file(path)["w"]
        assert back.dtype == np.float64
        assert np.array_equal(back, w32.astype(np.float64))  # f32 -> f64 is exact

    def test_multiple_tensors_and_order(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {f"t{i}": rng.normal(size=(i + 1, 2)) for i in range(5)}
        path = tmp_path / "multi.obt"
        write_tensor_file(tensors, path)
        back = read_tensor_file(path)
        assert list(back) == list(tensors)
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])

    def test_read_then_write_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(1, 7))}
        p1, p2 = tmp_path / "a.obt", tmp_path / "b.obt"
        write_tensor_file(tensors, p1)
        write_tensor_file(read_tensor_file(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_holds_the_file_once_plus_the_arrays(self, tmp_path):
        # the read's heap peak stays below 2.5x the file: room for the raw
        # bytes and one float64 copy of them, not a third copy; the mapped
        # reader holds neither, only the header and one finiteness mask
        rng = np.random.default_rng(4)
        path = tmp_path / "big.obt"
        write_tensor_file({f"t{i}": rng.normal(size=(512, 512)) for i in range(4)}, path)
        size = os.path.getsize(path)
        assert size > 8e6
        tracemalloc.start()
        try:
            back = read_tensor_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == 4
        assert peak < 2.5 * size, peak / size

    def test_read_f64_holds_only_the_arrays(self, tmp_path):
        # the read's heap peak stays within 1.1x the file: at most one float64
        # copy of the payloads plus the header and one tensor's finiteness
        # mask; the mapped reader copies no payload at all
        rng = np.random.default_rng(5)
        path = tmp_path / "big.obt"
        write_tensor_file({f"t{i}": rng.normal(size=(256, 512)) for i in range(8)}, path)
        size = os.path.getsize(path)
        back, peak = traced_peak(lambda: read_tensor_file(path))
        assert len(back) == 8
        assert peak <= 1.1 * size, peak / size

    def test_read_f64_maps_the_payload(self, tmp_path):
        # f64 matrices are views of the mapped file: the heap holds only the
        # header and one tensor's finiteness mask
        rng = np.random.default_rng(7)
        path = tmp_path / "big.obt"
        write_tensor_file({f"t{i}": rng.normal(size=(256, 512)) for i in range(8)}, path)
        size = os.path.getsize(path)
        assert size > 8e6
        back, peak = traced_peak(lambda: read_tensor_file(path))
        assert len(back) == 8
        assert peak < 0.05 * size, peak / size

    def test_in_place_edit_never_reaches_the_file(self, tmp_path):
        path = tmp_path / "e.obt"
        write_tensor_file({"w": np.arange(6.0).reshape(2, 3)}, path)
        blob = path.read_bytes()
        back = read_tensor_file(path)["w"]
        back[...] = -1.0
        back[0, 0] = 7.0
        assert path.read_bytes() == blob
        assert np.array_equal(read_tensor_file(path)["w"], np.arange(6.0).reshape(2, 3))

    def test_arrays_keep_their_values_when_the_file_is_replaced(self, tmp_path):
        path = tmp_path / "r.obt"
        rng = np.random.default_rng(8)
        old = {"a": rng.normal(size=(64, 64)), "b": rng.normal(size=(3, 5))}
        write_tensor_file(old, path)
        back = read_tensor_file(path)
        write_tensor_file({"a": np.zeros((2, 2))}, path)
        assert all(back[name].tobytes() == old[name].tobytes() for name in old)
        assert list(read_tensor_file(path)) == ["a"]

    def test_write_holds_one_converted_tensor_at_most(self, tmp_path):
        # the largest tensor is Fortran-ordered, so it alone needs a contiguous
        # copy; the payload as a whole is never held
        rng = np.random.default_rng(6)
        tensors = {f"t{i}": rng.normal(size=(256, 512)) for i in range(6)}
        tensors["f"] = np.asfortranarray(rng.normal(size=(512, 512)))
        tensors["s"] = rng.normal(size=(64, 512)).astype(np.float32)
        path = tmp_path / "w.obt"
        _, peak = traced_peak(lambda: write_tensor_file(tensors, path))
        assert peak < tensors["f"].nbytes + 2**16, peak
        back = read_tensor_file(path)
        assert all(np.array_equal(back[name], tensors[name]) for name in tensors)


class TestWriteValidation:
    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(TensorFormatError, match="non-finite"):
            write_tensor_file({"w": np.array([[np.inf]])}, tmp_path / "x.obt")

    def test_rejects_bad_dtype(self, tmp_path):
        with pytest.raises(TensorFormatError, match="dtype"):
            write_tensor_file({"w": np.array([[1]], dtype=np.int32)}, tmp_path / "x.obt")

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(TensorFormatError, match="2-D"):
            write_tensor_file({"w": np.zeros(3)}, tmp_path / "x.obt")

    def test_rejects_bad_name(self, tmp_path):
        with pytest.raises(TensorFormatError, match="name"):
            write_tensor_file({"": np.zeros((1, 1))}, tmp_path / "x.obt")


class TestAtomicWrite:
    def test_failed_write_leaves_the_destination_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "keep.obt"
        write_tensor_file({"a": np.ones((8, 8)), "b": np.ones((8, 8))}, path)
        blob = path.read_bytes()
        convert = np.ascontiguousarray
        calls = []

        def fail_on_the_second_tensor(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return convert(*args, **kwargs)

        monkeypatch.setattr(tensorstore.np, "ascontiguousarray", fail_on_the_second_tensor)
        with pytest.raises(OSError, match="disk full"):
            write_tensor_file({"a": np.zeros((8, 8)), "b": np.zeros((8, 8))}, path)
        assert len(calls) == 2
        assert path.read_bytes() == blob
        assert os.listdir(tmp_path) == ["keep.obt"]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_tensor_file({"w": np.zeros((1, 1))}, tmp_path / "t.obt")
            with open(tmp_path / "plain", "wb"):
                pass
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "t.obt").st_mode == os.stat(tmp_path / "plain").st_mode

    def test_directory_destination_raises_and_leaves_nothing(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(OSError):
            write_tensor_file({"w": np.zeros((1, 1))}, tmp_path / "d")
        assert os.listdir(tmp_path) == ["d"] and os.listdir(tmp_path / "d") == []


class TestStreamingWriter:
    """``TensorFileWriter``: a header up front, then tensors put in any order."""

    @staticmethod
    def tensors():
        rng = np.random.default_rng(9)
        return {
            "embed": rng.normal(size=(3, 4)).astype(np.float32),  # belongs to no layer
            "layers.0.attn.wq": rng.normal(size=(8, 8)),
            "layers.0.attn.wo": rng.normal(size=(8, 8)).astype(np.float32),
            "layers.0.ffn.w_down": rng.normal(size=(8, 0)),
        }

    def open_writer(self, path, tensors):
        return TensorFileWriter(path, {name: (arr.dtype, arr.shape)
                                       for name, arr in tensors.items()})

    def test_same_bytes_as_write_tensor_file(self, tmp_path):
        tensors = self.tensors()
        write_tensor_file(tensors, tmp_path / "whole.obt")
        writer = self.open_writer(tmp_path / "streamed.obt", tensors)
        for name in reversed(tensors):  # the payload layout follows the header, not the puts
            writer.put(name, tensors[name])
        back = writer.close()
        assert (tmp_path / "streamed.obt").read_bytes() == (tmp_path / "whole.obt").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["streamed.obt", "whole.obt"]
        assert list(back) == list(tensors)
        for name, arr in tensors.items():
            assert back[name].dtype == arr.dtype and back[name].tobytes() == arr.tobytes(), name

    def test_close_returns_a_map_of_the_file(self, tmp_path):
        rng = np.random.default_rng(10)
        tensors = {f"t{i}": rng.normal(size=(256, 512)) for i in range(4)}
        path = tmp_path / "big.obt"

        def stream():
            writer = self.open_writer(path, tensors)
            for name, arr in tensors.items():
                writer.put(name, arr)
            return writer.close()

        back, peak = traced_peak(stream)
        assert peak < 0.5 * tensors["t0"].nbytes, peak  # one finiteness mask, no copy
        back["t0"][0, 0] = 7.0  # private: never reaches the file
        assert all(np.array_equal(read_tensor_file(path)[name], tensors[name]) for name in tensors)

    @pytest.mark.parametrize("name, value, message", [
        ("layers.0.attn.wq", np.zeros((8, 7)), "shape"),
        ("layers.0.attn.wq", np.full((8, 8), np.nan), "non-finite"),
        ("layers.0.attn.wo", np.zeros((8, 8)), "does not convert exactly"),
        ("layers.1.attn.wq", np.zeros((8, 8)), "not a header entry"),
        ("embed", np.zeros((3, 4), dtype=np.float32), "not a header entry"),
    ], ids=["shape", "non-finite", "lossy-dtype", "unknown-name", "put-twice"])
    def test_failed_put_deletes_the_new_file(self, tmp_path, name, value, message):
        path = tmp_path / "keep.obt"
        write_tensor_file({"a": np.ones((2, 2))}, path)
        blob = path.read_bytes()
        writer = self.open_writer(path, self.tensors())
        writer.put("embed", self.tensors()["embed"])
        assert len(os.listdir(tmp_path)) == 2
        with pytest.raises(TensorFormatError, match=message):
            writer.put(name, value)
        assert os.listdir(tmp_path) == ["keep.obt"]
        assert path.read_bytes() == blob

    def test_close_with_an_entry_never_written_raises(self, tmp_path):
        path = tmp_path / "keep.obt"
        write_tensor_file({"a": np.ones((2, 2))}, path)
        blob = path.read_bytes()
        tensors = self.tensors()
        writer = self.open_writer(path, tensors)
        for name in ("embed", "layers.0.attn.wq", "layers.0.ffn.w_down"):
            writer.put(name, tensors[name])
        with pytest.raises(TensorFormatError, match="1 tensors never written, "
                                                    "first 'layers.0.attn.wo'"):
            writer.close()
        assert os.listdir(tmp_path) == ["keep.obt"]
        assert path.read_bytes() == blob

    def test_leaving_a_with_block_before_close_deletes_the_new_file(self, tmp_path):
        path = tmp_path / "keep.obt"
        write_tensor_file({"a": np.ones((2, 2))}, path)
        blob = path.read_bytes()
        tensors = self.tensors()
        with pytest.raises(RuntimeError, match="pruning failed"):
            with self.open_writer(path, tensors) as writer:
                writer.put("embed", tensors["embed"])
                raise RuntimeError("pruning failed")
        assert os.listdir(tmp_path) == ["keep.obt"]
        assert path.read_bytes() == blob


class TestReadValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.obt"
        write_tensor_file({"w": np.zeros((1, 1))}, path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFormatError, match="bad magic"):
            read_tensor_file(path)

    def test_out_of_bounds_offset(self, tmp_path):
        path = tmp_path / "oob.obt"
        craft_file(
            path,
            {"w": {"dtype": "f64", "shape": [1, 2], "byte_offset": 64, "byte_len": 16}},
            b"\x00" * 16,
        )
        with pytest.raises(TensorFormatError, match="payload bounds"):
            read_tensor_file(path)

    def test_unknown_dtype(self, tmp_path):
        path = tmp_path / "dt.obt"
        craft_file(
            path,
            {"w": {"dtype": "f16", "shape": [1, 1], "byte_offset": 0, "byte_len": 2}},
            b"\x00" * 2,
        )
        with pytest.raises(TensorFormatError, match="unknown dtype"):
            read_tensor_file(path)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "len.obt"
        craft_file(
            path,
            {"w": {"dtype": "f64", "shape": [2, 2], "byte_offset": 0, "byte_len": 16}},
            b"\x00" * 16,
        )
        with pytest.raises(TensorFormatError, match="byte_len"):
            read_tensor_file(path)

    def test_overlapping_payload(self, tmp_path):
        path = tmp_path / "ovl.obt"
        craft_file(
            path,
            {
                "a": {"dtype": "f64", "shape": [1, 2], "byte_offset": 0, "byte_len": 16},
                "b": {"dtype": "f64", "shape": [1, 2], "byte_offset": 8, "byte_len": 16},
            },
            b"\x00" * 24,
        )
        with pytest.raises(TensorFormatError, match="overlapping"):
            read_tensor_file(path)

    def test_duplicate_names(self, tmp_path):
        path = tmp_path / "dup.obt"
        entry = '{"dtype": "f64", "shape": [1, 1], "byte_offset": 0, "byte_len": 8}'
        raw = ('{"w": ' + entry + ', "w": ' + entry + "}").encode()
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<Q", len(raw)) + raw + b"\x00" * 8)
        with pytest.raises(TensorFormatError, match="duplicate"):
            read_tensor_file(path)

    @pytest.mark.parametrize("dtype, tag", [("<f8", "f64"), ("<f4", "f32")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, dtype, tag, bad):
        path = tmp_path / "nan.obt"
        values = np.array([1.0, 2.0, bad, 4.0], dtype=dtype)
        craft_file(
            path,
            {"w": {"dtype": tag, "shape": [2, 2], "byte_offset": 0,
                   "byte_len": values.nbytes}},
            values.tobytes(),
        )
        with pytest.raises(TensorFormatError, match="non-finite"):
            read_tensor_file(path)

    def test_header_promising_missing_payload_allocates_nothing(self, tmp_path):
        # the header is checked against the file size before any array exists
        path = tmp_path / "short.obt"
        craft_file(
            path,
            {"w": {"dtype": "f64", "shape": [1000, 1000], "byte_offset": 0,
                   "byte_len": 8_000_000}},
            b"\x00" * 64,
        )
        for read in (read_tensor_file, read_tensor_header):
            def attempt(read=read):
                with pytest.raises(TensorFormatError, match="w: payload bounds exceeded"):
                    read(path)

            _, peak = traced_peak(attempt)
            assert peak < 2**16, (read.__name__, peak)

    def test_payload_cut_short_while_reading(self, tmp_path, monkeypatch):
        # the file shrinks between the header check and the payload read
        path = tmp_path / "cut.obt"
        write_tensor_file({"a": np.ones((64, 64)), "b": np.ones((64, 64))}, path)
        parse = tensorstore._read_header

        def parse_then_truncate(fh):
            entries = parse(fh)
            os.truncate(path, os.path.getsize(path) - 8)
            return entries

        monkeypatch.setattr(tensorstore, "_read_header", parse_then_truncate)
        with pytest.raises(TensorFormatError, match="b: payload truncated"):
            read_tensor_file(path)

    def test_file_emptied_while_reading(self, tmp_path, monkeypatch):
        path = tmp_path / "gone.obt"
        write_tensor_file({"a": np.ones((2, 2))}, path)
        parse = tensorstore._read_header

        def parse_then_empty(fh):
            entries = parse(fh)
            os.truncate(path, 0)
            return entries

        monkeypatch.setattr(tensorstore, "_read_header", parse_then_empty)
        with pytest.raises(TensorFormatError, match="a: payload truncated"):
            read_tensor_file(path)

    def test_header_alone(self, tmp_path):
        path = tmp_path / "h.obt"
        write_tensor_file({"a": np.zeros((2, 3)), "b": np.zeros((4, 1), dtype=np.float32)}, path)
        header = read_tensor_header(path)
        assert list(header) == ["a", "b"]
        assert [(e.shape, e.size, e.length) for e in header.values()] == [
            ((2, 3), 6, 48), ((4, 1), 4, 16)]

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.obt"
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<Q", 100) + b"{}")
        with pytest.raises(TensorFormatError, match="header length"):
            read_tensor_file(path)


def toy_manifest_and_tensors():
    tensors = {
        "wo": np.zeros((6, 8)),
        "wq": np.zeros((8, 6)),
        "wk": np.zeros((8, 6)),
        "wv": np.zeros((8, 6)),
        "down": np.zeros((6, 10)),
        "up": np.zeros((10, 6)),
        "gate": np.zeros((10, 6)),
    }
    entry = LayerEntry(
        attn_out="wo",
        attn_coupled=["wq", "wk", "wv"],
        ffn_down="down",
        ffn_coupled=["up", "gate"],
        n_head=2,
        d_head=4,
    )
    return ModelManifest(layers=[entry]), tensors


class TestManifest:
    def test_json_round_trip(self):
        manifest, _ = toy_manifest_and_tensors()
        back = ModelManifest.from_json(manifest.to_json())
        assert back == manifest

    def test_activations_entry_is_ignored(self):
        manifest, _ = toy_manifest_and_tensors()
        data = json.loads(manifest.to_json())
        data["layers"][0]["activations"] = {"attn": "acts.attn", "ffn": "acts.ffn"}
        assert ModelManifest.from_json(json.dumps(data)) == manifest

    def test_save_load(self, tmp_path):
        manifest, _ = toy_manifest_and_tensors()
        path = tmp_path / "manifest.json"
        manifest.save(path)
        assert ModelManifest.load(path) == manifest

    def test_validates_ok(self):
        manifest, tensors = toy_manifest_and_tensors()
        validate_manifest(manifest, tensors)

    def test_rejects_coupled_row_mismatch(self):
        manifest, tensors = toy_manifest_and_tensors()
        tensors["wq"] = np.zeros((7, 6))
        with pytest.raises(ManifestError, match="coupled tensor 'wq'"):
            validate_manifest(manifest, tensors)
        manifest2, tensors2 = toy_manifest_and_tensors()
        tensors2["up"] = np.zeros((9, 6))
        with pytest.raises(ManifestError, match="coupled tensor 'up'"):
            validate_manifest(manifest2, tensors2)

    def test_rejects_head_layout_mismatch(self):
        manifest, tensors = toy_manifest_and_tensors()
        manifest.layers[0].n_head = 3
        with pytest.raises(ManifestError, match="head layout"):
            validate_manifest(manifest, tensors)

    def test_rejects_missing_tensor(self):
        manifest, tensors = toy_manifest_and_tensors()
        del tensors["gate"]
        with pytest.raises(ManifestError, match="missing"):
            validate_manifest(manifest, tensors)

    def test_rejects_layer_count_mismatch(self):
        manifest, _ = toy_manifest_and_tensors()
        data = json.loads(manifest.to_json())
        data["n_layers"] = 2
        with pytest.raises(ManifestError, match="n_layers"):
            ModelManifest.from_json(json.dumps(data))

    @pytest.mark.parametrize("count", [6.5, True, "6", 5, 7])
    def test_rejects_n_layers_not_the_entry_count(self, count):
        manifest, _ = toy_manifest_and_tensors()
        data = json.loads(manifest.to_json())
        data["n_layers"], data["layers"] = 6, data["layers"] * 6
        assert ModelManifest.from_json(json.dumps(data)).n_layers == 6
        data["n_layers"] = count
        with pytest.raises(ManifestError, match="n_layers"):
            ModelManifest.from_json(json.dumps(data))

    def test_malformed_json(self):
        with pytest.raises(ManifestError):
            ModelManifest.from_json('{"n_layers": 1}')
