"""Walkthrough of the binary tensor container and the model manifest.

The container stores named float32/float64 matrices with a JSON header and
raw little-endian payload, and round-trips bit for bit. The manifest
declares which tensors form each transformer layer and how their shapes
are coupled, so pruning can slice q/k/v and up/gate rows in lockstep.

Run: python demos/01_tensor_container.py
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np

from obslim import (
    ManifestError,
    ModelManifest,
    ToyModelSpec,
    gen_toy,
    read_tensor_file,
    validate_manifest,
    write_tensor_file,
)

rng = np.random.default_rng(0)

with tempfile.TemporaryDirectory(prefix="obslim-demo-") as tmp:
    workdir = Path(tmp)

    # --- round-trip a couple of matrices ----------------------------------
    tensors = {
        "proj": rng.normal(size=(4, 6)),
        "small": rng.normal(size=(2, 2)).astype(np.float32),
    }
    path = workdir / "demo.obt"
    write_tensor_file(tensors, path)
    back = read_tensor_file(path)

    print(f"wrote {path} ({path.stat().st_size} bytes)")
    print("float64 payload identical after round trip:",
          back["proj"].tobytes() == tensors["proj"].tobytes())
    print("float32 values convert exactly to float64:",
          np.array_equal(back["small"], tensors["small"].astype(np.float64)))

    # --- peek inside the file -----------------------------------------------
    blob = path.read_bytes()
    magic, (header_len,) = blob[:8], struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    print(f"\nmagic={magic!r}, header_len={header_len}")
    for name, entry in header.items():
        print(f"  {name}: {entry}")

    # --- a full toy model with its manifest --------------------------------
    tensors, manifest, calib = gen_toy(ToyModelSpec(n_layers=2, d_model=16, n_head=4, d_ff=24))
    write_tensor_file(tensors, workdir / "model.obt")
    manifest.save(workdir / "manifest.json")
    validate_manifest(manifest, tensors)
    print(f"\ntoy model: {len(tensors)} tensors across {manifest.n_layers} layers, "
          f"{len(calib)} calibration batches")
    print("layer 0 entry:", json.dumps(manifest.layers[0].to_dict(), indent=2))

    # --- the validator catches coupling mistakes ----------------------------
    broken = dict(tensors)
    broken["layers.0.attn.wq"] = broken["layers.0.attn.wq"][:-1]  # drop a row
    try:
        validate_manifest(ModelManifest.load(workdir / "manifest.json"), broken)
    except ManifestError as exc:
        print("\nvalidator caught a mis-sliced coupled tensor:")
        print("  ", exc)
