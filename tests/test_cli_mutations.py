"""One-field mutations of every file the CLI reads, drawn by derandomized hypothesis.

Each example changes one field of a manifest, a model's or the calibration
file's tensor header, or a report, and runs the command that reads it. The
documented outcome is exit 0, or exit 2 with one ``error:`` line on stderr;
for a report that parses but fails its checks, ``verify`` prints ``FAIL:``
lines instead. A traceback fails the test, and so does a warning (pytest turns
warnings into errors).
"""

import contextlib
import copy
import io
import json
import shutil
import struct
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obslim.cli import main
from obslim.pipeline import LayerReport, layer_names

MUTATIONS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

DELETE = object()


def _number(fn):
    return lambda v: fn(v) if type(v) in (int, float) else v


def _nonempty_list(fn):
    return lambda v: fn(v) if isinstance(v, list) and v else v


# Each edit maps a field's old value to its new one, or to DELETE.
EDITS = {
    "delete": lambda v: DELETE,
    "null": lambda v: None,
    "true": lambda v: True,
    "zero": lambda v: 0,
    "minus-one": lambda v: -1,
    "0.9": lambda v: 0.9,
    "2.9": lambda v: 2.9,
    "1e308": lambda v: 1e308,
    "10**400": lambda v: 10**400,
    "string": lambda v: "x",
    "empty-list": lambda v: [],
    "object": lambda v: {},
    "[x]": lambda v: ["x"],
    "[null]": lambda v: [None],
    "[true]": lambda v: [True],
    "as-string": str,
    "as-float": _number(float),
    "plus-one": _number(lambda v: v + 1),
    "negated": _number(lambda v: -v),
    "halved": _number(lambda v: v / 2),
    "drop-last": _nonempty_list(lambda v: v[:-1]),
    "repeat-last": _nonempty_list(lambda v: v + v[-1:]),
    "all-first": _nonempty_list(lambda v: [v[0]] * len(v)),
    "plus-999": _nonempty_list(lambda v: [x + 999 if type(x) is int else x for x in v]),
    "reversed": _nonempty_list(lambda v: v[::-1]),
}
edits = st.sampled_from(sorted(EDITS))


def edited(doc, path, edit):
    """A copy of the JSON value ``doc`` with ``EDITS[edit]`` applied at ``path``.

    A list index is taken modulo the list's length (an empty list is left
    as it is), and a dict key that is missing is added.
    """
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key % len(node)] if isinstance(node, list) else node[key]
    key = path[-1]
    if isinstance(node, list):
        if not node:
            return doc
        key %= len(node)
    new = EDITS[edit](node.get(key) if isinstance(node, dict) else node[key])
    if new is not DELETE:
        node[key] = new
    elif isinstance(node, dict):
        node.pop(key, None)
    else:
        del node[key]
    return doc


N_LAYERS = 3
layer_idx = st.integers(0, N_LAYERS - 1)

report_paths = st.one_of(
    st.tuples(st.sampled_from(["variant", "ratios", "config", "layers"])),
    st.tuples(st.just("ratios"), layer_idx),
    st.tuples(st.just("config"), st.sampled_from(["damping", "group_start", "calib_mode"])),
    st.tuples(st.just("layers"), layer_idx),
    st.tuples(st.just("layers"), layer_idx, st.sampled_from([f.name for f in fields(LayerReport)])),
    st.tuples(st.just("layers"), layer_idx, st.sampled_from(["kept_heads", "kept_channels"]),
              st.integers(0, 30)),
)
manifest_paths = st.one_of(
    st.tuples(st.sampled_from(["n_layers", "layers"])),
    st.tuples(st.just("layers"), layer_idx),
    st.tuples(st.just("layers"), layer_idx, st.sampled_from(
        ["attn_out", "attn_coupled", "ffn_down", "ffn_coupled", "head_layout"])),
    st.tuples(st.just("layers"), layer_idx,
              st.sampled_from(["attn_coupled", "ffn_coupled", "head_layout"]), st.integers(0, 2)),
)


def header_paths(names):
    """Paths to one tensor's whole header entry, one of its fields, or a shape element."""
    names = st.sampled_from(names)
    return st.one_of(
        st.tuples(names),
        st.tuples(names, st.sampled_from(["dtype", "shape", "byte_offset", "byte_len"])),
        st.tuples(names, st.just("shape"), st.integers(0, 1)),
    )


model_header_paths = header_paths([n for i in range(N_LAYERS) for n in layer_names(i).values()])
calib_header_paths = header_paths(["calib.0", "calib.1"])
PRUNE_FLAGS = ["--global-target", "0.4", "--group-start", "8", "--group-min", "2"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented(code, out, err, fail_lines=False):
    if code == 0:
        assert err == ""
    elif err:
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)
    else:
        assert fail_lines and code == 2 and out, (code, out)
        assert all(line.startswith("FAIL: ") for line in out.splitlines()), out


def with_header(blob, fn):
    """A tensor file's bytes with its JSON header replaced by ``fn(header)``."""
    (length,) = struct.unpack_from("<Q", blob, 8)
    raw = json.dumps(fn(json.loads(blob[16:16 + length]))).encode()
    return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + length:]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A pruned 3-layer toy: its inputs, its outputs and a scratch directory."""
    base = tmp_path_factory.mktemp("mutations")
    toy, out, work = base / "toy", base / "out", base / "work"
    assert run(["gen-toy", "--out", str(toy), "--seed", "7", "--layers", str(N_LAYERS),
                "--d-model", "16", "--heads", "4", "--d-ff", "24",
                "--batches", "2", "--tokens", "24"])[0] == 0
    assert run(["prune", "--model", str(toy / "model.obt"), "--manifest",
                str(toy / "manifest.json"), "--calib", str(toy / "calib.obt"),
                "--out", str(out), *PRUNE_FLAGS])[0] == 0
    work.mkdir()
    return toy, out, work


def prune_outcome(files, edit_file):
    """Copy the toy's inputs, let ``edit_file(work)`` change one, and prune."""
    toy, _, work = files
    for name in ("model.obt", "manifest.json", "calib.obt"):
        shutil.copyfile(toy / name, work / name)
    edit_file(work)
    return run(["prune", "--model", str(work / "model.obt"), "--manifest",
                str(work / "manifest.json"), "--calib", str(work / "calib.obt"),
                "--out", str(work / "out"), *PRUNE_FLAGS])


@MUTATIONS
@given(path=manifest_paths, edit=edits)
@example(path=("n_layers",), edit="2.9")
@example(path=("n_layers",), edit="as-float")
@example(path=("layers", 1, "head_layout", 0), edit="as-float")
@example(path=("layers", 1, "attn_coupled"), edit="all-first")
def test_prune_mutated_manifest(files, path, edit):
    def edit_file(work):
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps(edited(json.loads(manifest.read_text()), path, edit)))

    assert_documented(*prune_outcome(files, edit_file))


@MUTATIONS
@given(path=model_header_paths, edit=edits)
@example(path=("layers.1.attn.wq", "shape", 0), edit="as-float")
@example(path=("layers.2.ffn.w_up", "shape"), edit="reversed")
def test_prune_mutated_tensor_header(files, path, edit):
    def edit_file(work):
        model = work / "model.obt"
        model.write_bytes(with_header(model.read_bytes(), lambda h: edited(h, path, edit)))

    assert_documented(*prune_outcome(files, edit_file))


@MUTATIONS
@given(path=calib_header_paths, edit=edits)
def test_prune_mutated_calib_header(files, path, edit):
    def edit_file(work):
        calib = work / "calib.obt"
        calib.write_bytes(with_header(calib.read_bytes(), lambda h: edited(h, path, edit)))

    assert_documented(*prune_outcome(files, edit_file))


@settings(MUTATIONS, max_examples=60)
@given(path=report_paths, edit=edits)
@example(path=("ratios",), edit="empty-list")
@example(path=("layers", 1, "ratio"), edit="0.9")
@example(path=("layers", 2, "heads_removed"), edit="zero")
@example(path=("layers", 2, "kept_channels"), edit="all-first")
@example(path=("layers", 2, "kept_heads"), edit="plus-999")
@example(path=("layers", 1, "kept_heads"), edit="[x]")
@example(path=("layers", 1, "layer"), edit="10**400")
def test_verify_and_report_mutated_report(files, path, edit):
    _, out, work = files
    report = work / "report.json"
    report.write_text(json.dumps(edited(json.loads((out / "report.json").read_text()), path, edit)))
    assert_documented(*run(["verify", "--report", str(report), "--manifest",
                            str(out / "manifest.json"), "--model", str(out / "model.obt")]),
                      fail_lines=True)
    assert_documented(*run(["report", "--report", str(report)]))
