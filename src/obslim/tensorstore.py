"""Bit-exact container for named matrices plus the model manifest.

File layout: 8 magic bytes, a little-endian u64 header length, a UTF-8 JSON
header mapping each tensor name to ``{dtype, shape, byte_offset, byte_len}``,
then the raw payload (little-endian, row-major). Offsets are relative to the
start of the payload. Only ``f32`` and ``f64`` matrices are stored; matrices
come back as float64 (float32 values convert exactly).

The reader checks the whole header against the file size, then maps the
file private copy-on-write, so its ``f64`` matrices copy no payload into the
heap. ``TensorFileWriter`` writes the header first, then each tensor as it
is put, into a new file that it renames over the destination.
"""

import contextlib
import json
import mmap
import os
import struct
import uuid
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ManifestError, TensorFormatError

MAGIC = b"OBSLIMV1"

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_TAG_FOR = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class TensorEntry(NamedTuple):
    """One validated header entry: payload dtype, matrix shape, absolute byte extent."""

    dtype: np.dtype
    shape: tuple
    start: int
    length: int

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]


class TensorFileWriter:
    """Streams named matrices into a new container that replaces ``path`` when closed.

    ``header`` maps each name to ``(dtype, shape)``: float32 or float64, and
    2-D. It is checked and written first, and its order sets the payload
    layout. ``put`` checks one matrix against its entry and writes it at its
    offset, in any order, so a caller holds only the matrix it puts.
    ``close`` checks that every entry was put, then renames the file over
    ``path``: ``path`` is replaced atomically and never truncated, so arrays
    mapped from it keep their values. On any failure of the writer, or when a
    ``with`` block around it is left before ``close``, the new file is
    deleted and ``path`` is left whole.
    """

    def __init__(self, path, header: dict):
        layout = {}
        offset = 0
        for name, (dtype, shape) in header.items():
            if not isinstance(name, str) or not name:
                raise TensorFormatError(f"tensor name must be a non-empty string, got {name!r}")
            tag = _TAG_FOR.get(np.dtype(dtype))
            if tag is None:
                raise TensorFormatError(f"{name}: unsupported dtype {dtype}, expected f32/f64")
            if len(shape) != 2 or min(shape) < 0:
                raise TensorFormatError(f"{name}: expected a 2-D matrix, got shape {shape}")
            rows, cols = map(int, shape)
            length = rows * cols * _DTYPES[tag].itemsize
            layout[name] = {"dtype": tag, "shape": [rows, cols],
                            "byte_offset": offset, "byte_len": length}
            offset += length
        raw = json.dumps(layout, ensure_ascii=False).encode("utf-8")
        end = len(MAGIC) + 8 + len(raw)
        self._entries = {name: TensorEntry(_DTYPES[e["dtype"]], tuple(e["shape"]),
                                           end + e["byte_offset"], e["byte_len"])
                         for name, e in layout.items()}
        self._pending = set(layout)
        self._path = path
        self._tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        # plain open, not mkstemp, so the file's mode follows the umask (mkstemp makes it 0600)
        self._fh = open(self._tmp, "x+b")
        with self._failing():
            self._fh.write(MAGIC + struct.pack("<Q", len(raw)) + raw)

    @contextlib.contextmanager
    def _failing(self):
        """Delete the new file if the block raises."""
        try:
            yield
        except BaseException:
            self._discard()
            raise

    def _discard(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            os.unlink(self._tmp)

    def put(self, name: str, value) -> None:
        """Write ``value`` as entry ``name``.

        Raises ``TensorFormatError`` if ``name`` is not in the header or was
        put already, or if ``value`` has another shape, a dtype that does not
        convert exactly to the entry's, or non-finite values.
        """
        with self._failing():
            if name not in self._pending:
                raise TensorFormatError(f"{name!r} is not a header entry still to be written")
            entry = self._entries[name]
            arr = np.asarray(value)
            if arr.shape != entry.shape:
                raise TensorFormatError(f"{name}: shape {arr.shape}, the header says "
                                        f"{entry.shape}")
            if not np.can_cast(arr.dtype, entry.dtype, "safe"):
                raise TensorFormatError(f"{name}: dtype {arr.dtype} does not convert "
                                        f"exactly to {_TAG_FOR[entry.dtype]}")
            if not np.all(np.isfinite(arr)):
                raise TensorFormatError(f"{name}: non-finite values rejected")
            self._fh.seek(entry.start)
            self._fh.write(np.ascontiguousarray(arr, dtype=entry.dtype).data)
            self._pending.remove(name)

    def close(self) -> dict:
        """Rename the finished file over ``path`` and return its tensors.

        They are views of one private copy-on-write map of the file, in their
        stored dtypes, as ``read_tensor_file`` maps it. Raises
        ``TensorFormatError`` if an entry was never put.
        """
        with self._failing():
            missing = [name for name in self._entries if name in self._pending]
            if missing:
                raise TensorFormatError(f"{len(missing)} tensors never written, "
                                        f"first {missing[0]!r}")
            self._fh.flush()
            buf = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_COPY)
            os.replace(self._tmp, self._path)
        self._fh.close()
        self._fh = None
        return {name: np.frombuffer(buf, e.dtype, e.size, e.start).reshape(e.shape)
                for name, e in self._entries.items()}

    def __enter__(self) -> "TensorFileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._discard()


def write_tensor_file(tensors: dict, path) -> None:
    """Write a name -> matrix map; round-trips bit-exactly through read_tensor_file.

    Matrices must be 2-D, finite, and float32 or float64 (the dtype is
    preserved on disk). Names, dtypes and shapes are checked before any file
    is opened; then ``TensorFileWriter`` checks and writes each matrix as it
    converts it, so at most one tensor is ever copied, and replaces ``path``
    atomically: on any error ``path`` is left whole.
    """
    arrays = {name: np.asarray(value) for name, value in tensors.items()}
    header = {name: (arr.dtype, arr.shape) for name, arr in arrays.items()}
    with TensorFileWriter(path, header) as writer:
        for name, arr in arrays.items():
            writer.put(name, arr)
        writer.close()


def _parse_header(raw: bytes) -> dict:
    def reject_duplicates(pairs):
        out = {}
        for key, val in pairs:
            if key in out:
                raise TensorFormatError(f"duplicate tensor name {key!r} in header")
            out[key] = val
        return out

    try:
        header = json.loads(raw.decode("utf-8"), object_pairs_hook=reject_duplicates)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TensorFormatError(f"header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise TensorFormatError("header must be a JSON object")
    return header


def _read_header(fh) -> dict:
    """Read and validate the header of the open container ``fh``; see read_tensor_header."""
    lead = fh.read(len(MAGIC) + 8)
    if lead[: len(MAGIC)] != MAGIC:
        raise TensorFormatError(f"bad magic: expected {MAGIC!r}")
    if len(lead) < len(MAGIC) + 8:
        raise TensorFormatError("file truncated before header length")
    (header_len,) = struct.unpack_from("<Q", lead, len(MAGIC))
    header_end = len(MAGIC) + 8 + header_len
    payload_len = os.fstat(fh.fileno()).st_size - header_end
    if payload_len < 0:
        raise TensorFormatError("header length exceeds file size")
    header = _parse_header(fh.read(header_len))

    entries = {}
    for name, entry in header.items():
        try:
            tag, (rows, cols) = entry["dtype"], entry["shape"]
            off, length = entry["byte_offset"], entry["byte_len"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TensorFormatError(f"{name}: malformed header entry ({exc})") from exc
        if not all(type(v) is int for v in (rows, cols, off, length)):
            raise TensorFormatError(f"{name}: shape, byte_offset and byte_len must be integers")
        dtype = _DTYPES.get(tag) if isinstance(tag, str) else None
        if dtype is None:
            raise TensorFormatError(f"{name}: unknown dtype {tag!r}")
        if rows < 0 or cols < 0:
            raise TensorFormatError(f"{name}: negative shape {rows}x{cols}")
        if rows * cols * dtype.itemsize != length:
            raise TensorFormatError(
                f"{name}: byte_len {length} inconsistent with shape {rows}x{cols} ({tag})"
            )
        if off < 0 or off + length > payload_len:
            raise TensorFormatError(f"{name}: payload bounds exceeded")
        entries[name] = TensorEntry(dtype, (rows, cols), header_end + off, length)
    extents = sorted((e.start, e.start + e.length, name) for name, e in entries.items())
    for (_, prev_end, prev_name), (start, _, name) in zip(extents, extents[1:]):
        if start < prev_end:
            raise TensorFormatError(f"overlapping payload: {prev_name!r} and {name!r}")
    return entries


def read_tensor_header(path) -> dict:
    """The checked header as a name -> ``TensorEntry`` map, without reading any payload.

    Entries have a ``shape`` and ``size`` like their matrices, so
    ``validate_manifest`` accepts the map. Raises ``TensorFormatError`` on
    bad magic, a malformed header, an unknown dtype, or payload bounds
    violations (overlap, overflow, length mismatch).
    """
    with open(path, "rb") as fh:
        return _read_header(fh)


def read_tensor_file(path) -> dict:
    """Read a container back into a name -> float64 matrix map.

    Once ``read_tensor_header``'s checks have passed, the file is mapped
    once, private copy-on-write: each ``f64`` matrix is a writable view of
    its payload, and an in-place edit never reaches the file; ``f32``
    payloads are upcast into new arrays. Replace such a file by renaming a
    new one over it, as ``write_tensor_file`` does: rewriting it in place
    changes or cuts off the pages the arrays map.

    Raises:
        TensorFormatError: a header error, a payload cut short before it is
            mapped, or non-finite values, which the writer refuses as well.
    """
    tensors = {}
    with open(path, "rb") as fh:
        entries = _read_header(fh)
        try:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        except ValueError:  # the file was emptied after its header was read
            buf = b""
        for name, entry in entries.items():
            if entry.start + entry.length > len(buf):
                raise TensorFormatError(f"{name}: payload truncated")
            arr = np.frombuffer(buf, entry.dtype, entry.size, entry.start).reshape(entry.shape)
            if not np.all(np.isfinite(arr)):
                raise TensorFormatError(f"{name}: non-finite values in payload")
            tensors[name] = arr.astype(np.float64, copy=False)
    return tensors


@dataclass
class LayerEntry:
    """One layer of the manifest: anchor tensors, coupled tensors, head layout.

    ``from_dict`` ignores keys it does not read, such as the ``activations``
    entry older manifests may carry.
    """

    attn_out: str
    attn_coupled: list
    ffn_down: str
    ffn_coupled: list
    n_head: int
    d_head: int

    def tensor_names(self) -> tuple:
        """The layer's tensor names: each anchor, then its coupled tensors."""
        return (self.attn_out, *self.attn_coupled, self.ffn_down, *self.ffn_coupled)

    def to_dict(self) -> dict:
        return {
            "attn_out": self.attn_out,
            "attn_coupled": list(self.attn_coupled),
            "ffn_down": self.ffn_down,
            "ffn_coupled": list(self.ffn_coupled),
            "head_layout": [self.n_head, self.d_head],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LayerEntry":
        """One parsed layer; ``ManifestError`` unless every tensor name is a string,
        each coupled field a list of them and ``head_layout`` two positive JSON integers."""
        try:
            anchors = data["attn_out"], data["ffn_down"]
            coupled = data["attn_coupled"], data["ffn_coupled"]
            layout = data["head_layout"]
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"malformed layer entry: {exc}") from exc
        if not (all(isinstance(c, list) for c in coupled)
                and all(isinstance(n, str) for n in (*anchors, *coupled[0], *coupled[1]))
                and isinstance(layout, list) and len(layout) == 2
                and all(type(v) is int and v > 0 for v in layout)):
            raise ManifestError("malformed layer entry: tensor names must be strings, the "
                                "coupled ones in lists, and head_layout two positive integers")
        return cls(anchors[0], list(coupled[0]), anchors[1], list(coupled[1]), *layout)


@dataclass
class ModelManifest:
    """Describes which tensors form each layer and how they are coupled.

    The attention anchor's columns (``attn_out``) are one-to-one with the
    rows of every tensor in ``attn_coupled``; likewise for ``ffn_down`` and
    ``ffn_coupled``.
    """

    layers: list = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def to_json(self) -> str:
        return json.dumps(
            {"n_layers": self.n_layers, "layers": [e.to_dict() for e in self.layers]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelManifest":
        """``ManifestError`` unless ``n_layers`` is the JSON integer count of the entries."""
        try:
            data = json.loads(text)
            count = data["n_layers"]
            manifest = cls([LayerEntry.from_dict(e) for e in data["layers"]])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc
        if type(count) is not int or count != manifest.n_layers:
            raise ManifestError(f"n_layers {count!r} is not the integer count of the "
                                f"{manifest.n_layers} layer entries")
        return manifest

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ModelManifest":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def validate_manifest(manifest: ModelManifest, tensors: dict) -> None:
    """Check layer structure against the actual tensor shapes.

    Raises:
        ManifestError: a tensor missing or named twice, head layout not
            matching the anchor width, or a coupled tensor whose rows
            mismatch the anchor columns.
    """
    seen = set()
    for idx, entry in enumerate(manifest.layers):
        for name in entry.tensor_names():
            if name not in tensors:
                raise ManifestError(f"layer {idx}: tensor {name!r} missing")
            if name in seen:  # pruning would slice it once per mention
                raise ManifestError(f"layer {idx}: tensor {name!r} is named twice in the manifest")
            seen.add(name)
        attn_cols = tensors[entry.attn_out].shape[1]
        if attn_cols != entry.n_head * entry.d_head:
            raise ManifestError(
                f"layer {idx}: attn_out has {attn_cols} columns, "
                f"head layout implies {entry.n_head * entry.d_head}"
            )
        for anchor, coupled in ((entry.attn_out, entry.attn_coupled),
                                (entry.ffn_down, entry.ffn_coupled)):
            cols = tensors[anchor].shape[1]
            for name in coupled:
                rows = tensors[name].shape[0]
                if rows != cols:
                    raise ManifestError(
                        f"layer {idx}: coupled tensor {name!r} has {rows} rows, "
                        f"anchor {anchor!r} has {cols} columns"
                    )
