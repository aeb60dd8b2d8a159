"""End-to-end layer-by-layer pruning of a manifest-described toy model.

A small pre-norm residual transformer (causal single-pass attention, gated
FFN) stands in for full-scale models: it is large enough to exhibit error
accumulation across layers yet small enough for every numerical claim to
be checked against exact oracles. Calibration activations propagate
through the already-pruned prefix, so each layer's Hessian sees the
features it will actually receive after compression.
"""

import contextlib
import csv
import io
import json
import multiprocessing
import numbers
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .calib import HessianAccumulator
from .errors import NotSpdError, ObslimError
from .ffn_pruner import prune_channels
from .head_pruner import prune_heads
from .obs_core import group_sizes
from .schedule import VARIANTS, PruneSchedule, build_schedule, counts_from_ratio
from .tensorstore import LayerEntry, ModelManifest, TensorFileWriter, validate_manifest


# ---------------------------------------------------------------------------
# Toy model definition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyModelSpec:
    """Dimensions and seed of a generated toy model."""

    n_layers: int = 8
    d_model: int = 32
    n_head: int = 4
    d_ff: int = 64
    seed: int = 0
    n_calib_batches: int = 4
    tokens_per_batch: int = 64

    def __post_init__(self):
        if min(self.n_layers, self.d_model, self.n_head, self.d_ff) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.d_model % self.n_head != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_head {self.n_head}")
        if min(self.n_calib_batches, self.tokens_per_batch) < 1:
            raise ValueError("calibration needs at least one batch of one token")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_head

    @property
    def nbytes(self) -> int:
        """Bytes of the float64 model and calibration set that ``gen_toy`` makes."""
        layer = 4 * self.d_model ** 2 + 3 * self.d_model * self.d_ff
        calib = self.n_calib_batches * self.tokens_per_batch * self.d_model
        return 8 * (self.n_layers * layer + calib)


@dataclass
class LayerWeights:
    """Weight views of one layer, plus its head layout."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_up: np.ndarray
    w_gate: np.ndarray
    w_down: np.ndarray
    n_head: int
    d_head: int

    @classmethod
    def from_tensors(cls, entry: LayerEntry, tensors: dict) -> "LayerWeights":
        wq, wk, wv = (tensors[name] for name in entry.attn_coupled)
        w_up, w_gate = (tensors[name] for name in entry.ffn_coupled)
        return cls(
            wq=wq,
            wk=wk,
            wv=wv,
            wo=tensors[entry.attn_out],
            w_up=w_up,
            w_gate=w_gate,
            w_down=tensors[entry.ffn_down],
            n_head=entry.n_head,
            d_head=entry.d_head,
        )


def layer_names(layer: int) -> dict:
    prefix = f"layers.{layer}"
    return {
        "wq": f"{prefix}.attn.wq",
        "wk": f"{prefix}.attn.wk",
        "wv": f"{prefix}.attn.wv",
        "wo": f"{prefix}.attn.wo",
        "w_up": f"{prefix}.ffn.w_up",
        "w_gate": f"{prefix}.ffn.w_gate",
        "w_down": f"{prefix}.ffn.w_down",
    }


def gen_toy(spec: ToyModelSpec):
    """Deterministic toy model plus synthetic calibration batches.

    Returns ``(tensors, manifest, calib)`` where ``calib`` is a list of
    (d_model, tokens) input activations. The same ``spec.seed`` reproduces
    every array bit for bit. Head and channel magnitudes are drawn with a mild
    log-normal spread so pruning has genuinely uneven units to choose from.
    """
    rng = np.random.default_rng(spec.seed)
    dm, dff, dh = spec.d_model, spec.d_ff, spec.d_head
    tensors = {}
    entries = []
    for layer in range(spec.n_layers):
        names = layer_names(layer)
        wq, wk, wv = (rng.normal(size=(dm, dm)) / np.sqrt(dm) for _ in range(3))
        wo = rng.normal(size=(dm, dm)) / np.sqrt(dm)
        head_scale = np.exp(0.5 * rng.normal(size=spec.n_head))
        for head in range(spec.n_head):
            wo[:, head * dh : (head + 1) * dh] *= head_scale[head]
        w_up = rng.normal(size=(dff, dm)) / np.sqrt(dm)
        w_gate = rng.normal(size=(dff, dm)) / np.sqrt(dm)
        w_down = rng.normal(size=(dm, dff)) / np.sqrt(dff)
        w_down *= np.exp(0.5 * rng.normal(size=dff))[None, :]
        tensors.update(zip(names.values(), (wq, wk, wv, wo, w_up, w_gate, w_down)))
        entries.append(LayerEntry(
            attn_out=names["wo"], attn_coupled=[names["wq"], names["wk"], names["wv"]],
            ffn_down=names["w_down"], ffn_coupled=[names["w_up"], names["w_gate"]],
            n_head=spec.n_head, d_head=dh))
    manifest = ModelManifest(layers=entries)
    mixing = np.eye(dm) + 0.3 * rng.normal(size=(dm, dm)) / np.sqrt(dm)
    calib = [
        mixing @ rng.normal(size=(dm, spec.tokens_per_batch))
        for _ in range(spec.n_calib_batches)
    ]
    return tensors, manifest, calib


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _rmsnorm(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x * x).mean(axis=0, keepdims=True) + 1e-6)


def _silu_inplace(x: np.ndarray) -> np.ndarray:
    """``x / (1 + exp(-x))`` written over ``x``, with one temporary."""
    e = np.negative(x)
    np.exp(e, out=e)
    e += 1.0
    return np.divide(x, e, out=x)


# Query rows per attention tile; on a 512-token head, 64 ran faster than 128.
_TILE = 64
# Largest score bound at which a head's softmax takes ``exp`` of the raw
# scores: ``e**64`` times any row length stays far below the float64 maximum,
# and a row sum of at least ``e**-64`` is a normal number.
_EXP_BOUND = 64.0


def _attention(lw: LayerWeights, live: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causal attention; returns the features into ``wo``, which the caller applies.

    Heads are evaluated one at a time and heads dead in ``live`` (the
    caller's ``lw.wo.any(axis=0)``) are skipped, leaving zero feature rows,
    which keeps a zero-masked model numerically identical to its sliced form.
    Each head takes its query rows in tiles of ``_TILE``. A tile scores
    against the keys up to its last row only, so the masked future beyond
    its diagonal block is never computed, and it sees all of those keys at
    once, with no online rescaling. ``1/sqrt(d)`` is folded into the
    queries, and the division by the row sums is applied after the product
    with the values.

    By Cauchy-Schwarz, every score of a head lies within
    ``B = max_i |q_i| * max_j |k_j|`` of zero. When ``B <= _EXP_BOUND`` the
    softmax is one pass, ``exp(z) / sum``: no ``exp`` overflows, and every
    causal row holds its own key, so its sum is at least ``e**-B > 0``.
    Otherwise, and when ``B`` is NaN or inf, it is the two-pass
    ``exp(z - max) / sum``.
    """
    h = _rmsnorm(x)
    d = lw.d_head
    t = x.shape[1]
    future = np.triu(np.ones((_TILE, _TILE), dtype=bool), k=1)
    ho = np.zeros((lw.n_head * d, t))
    for head in np.flatnonzero(live.reshape(lw.n_head, d).any(axis=1)):
        sl = slice(head * d, (head + 1) * d)
        q = lw.wq[sl] @ h
        q /= np.sqrt(d)
        k = lw.wk[sl] @ h
        v = lw.wv[sl] @ h
        bound = np.sqrt(np.einsum("ij,ij->j", q, q).max() * np.einsum("ij,ij->j", k, k).max())
        ctx = ho[sl]
        for start in range(0, t, _TILE):
            end = min(start + _TILE, t)
            p = q[:, start:end].T @ k[:, :end]
            np.copyto(p[:, start:], -np.inf, where=future[: end - start, : end - start])
            if not bound <= _EXP_BOUND:
                p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            ctx[:, start:end] = (v[:, :end] @ p.T) / p.sum(axis=1)
    return ho


def _ffn(lw: LayerWeights, live: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gated FFN; returns the features into ``w_down``, which the caller applies.

    Channels dead in ``live`` (the caller's ``lw.w_down.any(axis=0)``) leave
    zero feature rows; ``w_gate`` and ``w_up`` are indexed only when there
    are some, for the same masked/sliced equivalence as in attention. The
    activation is in place: fresh channel-sized temporaries cost page faults.
    """
    h = _rmsnorm(x)
    every = live.all()
    gate, up = (lw.w_gate, lw.w_up) if every else (lw.w_gate[live], lw.w_up[live])
    a = _silu_inplace(gate @ h)
    a *= up @ h
    if every:
        return a
    act = np.zeros((live.size, x.shape[1]))
    act[live] = a
    return act


def _projection(w: np.ndarray):
    """The residual step ``(x, f) -> x + w @ f``, over the nonzero columns of ``w``
    only, so that a zero-masked model stays bit-identical to its sliced form."""
    live = w.any(axis=0)
    if live.all():
        return lambda x, f: x + w @ f
    w = w[:, live]
    return lambda x, f: x + w @ f[live]


def forward_layer(lw: LayerWeights, x: np.ndarray, collect: bool = False):
    """One pre-norm residual block: attention then FFN.

    With ``collect=True`` also returns the feature matrices that feed the
    two prunable projections (inputs of ``wo`` and of ``w_down``).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != lw.wo.shape[0]:
        raise ValueError(f"activations shape {x.shape} inconsistent with d_model {lw.wo.shape[0]}")
    if lw.wq.shape[0] != lw.n_head * lw.d_head or lw.wo.shape[1] != lw.n_head * lw.d_head:
        raise ValueError("attention tensors inconsistent with head layout")
    attn_feats = _attention(lw, lw.wo.any(axis=0), x)
    x1 = _projection(lw.wo)(x, attn_feats)
    ffn_feats = _ffn(lw, lw.w_down.any(axis=0), x1)
    x2 = _projection(lw.w_down)(x1, ffn_feats)
    return (x2, attn_feats, ffn_feats) if collect else x2


def forward_model(tensors: dict, manifest: ModelManifest, x: np.ndarray) -> np.ndarray:
    """Run activations through every layer of a manifest-described model."""
    for entry in manifest.layers:
        x = forward_layer(LayerWeights.from_tensors(entry, tensors), x)
    return x


# ---------------------------------------------------------------------------
# Pruning driver
# ---------------------------------------------------------------------------

def is_finite_real(val) -> bool:
    """True for an int or float in float range; config values arrive untyped, bools excluded."""
    return (isinstance(val, numbers.Real) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


@dataclass(frozen=True)
class PruneConfig:
    """Knobs of one pruning run; snapshotted verbatim into the report."""

    damping: float = 0.01  # fraction of the mean Hessian diagonal added before inversion
    group_start: int = 1024
    group_min: int = 8

    def __post_init__(self):
        if not is_finite_real(self.damping) or self.damping < 0:
            raise ValueError(f"damping must be a finite number >= 0, got {self.damping!r}")
        sizes = (self.group_start, self.group_min)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in sizes):
            raise ValueError(f"group_start and group_min must be integers, got {sizes!r}")
        group_sizes(0, self.group_start, self.group_min)  # raises unless 1 <= min <= start


@dataclass
class LayerReport:
    layer: int
    ratio: float
    heads_removed: int
    channels_removed: int
    sum_step_error: float
    output_sq_error: float
    kept_heads: list[int] = field(default_factory=list)
    kept_channels: list[int] = field(default_factory=list)

    @classmethod
    def from_dict(cls, row) -> "LayerReport":
        """One row of ``report.json``; ``ObslimError`` on a missing, extra or mistyped field."""
        names = [f.name for f in fields(cls)]
        if not isinstance(row, dict) or sorted(row) != sorted(names):
            raise ObslimError(f"a report layer row needs exactly the fields {names}")
        for f in fields(cls):
            val = row[f.name]
            if not (isinstance(val, list) and all(type(v) is int for v in val)
                    if f.type == list[int] else is_finite_real(val)
                    and (f.type is float or isinstance(val, numbers.Integral))):
                raise ObslimError(f"report layer {f.name} has the wrong type or value: {val!r}")
        return cls(**row)


@dataclass
class PruneReport:
    """Per-layer diagnostics plus the schedule and config that produced them."""

    # in the order report.json writes them
    variant: str = "uniform"
    ratios: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    layers: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, data) -> "PruneReport":
        """Rebuild a report from its JSON form; ``ObslimError`` if it is malformed."""
        if not isinstance(data, dict) or not {"layers", "variant", "ratios"} <= set(data):
            raise ObslimError("a report must be a JSON object with layers, variant and ratios")
        layers, ratios, config = data["layers"], data["ratios"], data.get("config", {})
        if not isinstance(layers, list) or not isinstance(config, dict):
            raise ObslimError("report layers must be a list and its config a JSON object")
        if not isinstance(ratios, list) or not all(map(is_finite_real, ratios)):
            raise ObslimError(f"report ratios must be a list of finite numbers, got {ratios!r}")
        return cls(
            layers=[LayerReport.from_dict(row) for row in layers],
            variant=data["variant"],
            ratios=list(ratios),
            config=dict(config),
        )

    def to_json(self) -> str:
        return json.dumps({**vars(self), "layers": [vars(row) for row in self.layers]}, indent=2)

    def to_csv(self) -> str:
        """The scalar fields of each layer row, in ``LayerReport``'s order."""
        names = [f.name for f in fields(LayerReport) if f.type != list[int]]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([getattr(row, name) for name in names] for row in self.layers)
        return buf.getvalue()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PruneReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _hessian_over_batches(feature_batches, damping: float, w: np.ndarray) -> np.ndarray:
    """Inverse of the damped Hessian of the features into ``w``, with dead features made harmless.

    A feature that is zero on every batch (``diag(H) == 0`` on the undamped
    sum) gets ``H_ii = 1`` before the damping is computed, and its column of
    ``w`` is zeroed in place, as in SparseGPT: it then costs nothing to
    remove, and the other features keep the Hessian they would have alone.
    """
    acc = HessianAccumulator(w.shape[1])
    for feats in feature_batches:
        acc.accumulate(feats)
    dead = np.flatnonzero(np.diag(acc.sum) == 0)
    acc.sum[dead, dead] = 1.0
    w[:, dead] = 0.0
    return acc.inverse(damping)


def _run_reference(conn, tensors, layers, start, xs, feats):
    """The original model's stream from sublayer ``start`` on, in the worker process.

    Sublayer ``2 * i`` is layer ``i``'s attention and ``2 * i + 1`` its FFN.
    ``feats`` are sublayer ``start``'s features of the batches ``xs``, which
    the pruning process computed before it forked, so that sublayer needs
    only its projection. Each later sublayer makes its own pass. Every step
    uses the original ``wo`` or ``w_down``. After each layer its output
    batches go to ``conn``; an exception goes there instead and ends the
    stream. It inherits ``prune_model``'s floating-point policy and warns of
    nothing: it may pass a layer at which the pruning process then fails,
    and ``prune_model`` refuses a non-finite reference by the layer's name.
    """
    try:
        for s in range(start, 2 * len(layers)):
            lw = LayerWeights.from_tensors(layers[s // 2], tensors)
            fn, w = (_ffn, lw.w_down) if s % 2 else (_attention, lw.wo)
            if s > start:
                feats = map(partial(fn, lw, w.any(axis=0)), xs)
            xs = list(map(_projection(w), xs, feats))
            if s % 2:
                conn.send(xs)
    except BaseException as exc:  # forwarded, not swallowed: the pruning process raises it
        if isinstance(exc, MemoryError):  # numpy's subclass loses its message in a pickle
            exc = MemoryError(str(exc))
        with contextlib.suppress(Exception):  # the pruning process has stopped listening
            conn.send(exc)
    finally:
        conn.close()


class _ReferenceWorker:
    """A forked process that runs the original model's stream beside the pruned one.

    It starts where the streams split, from the activations and features
    the pruning process holds there, and sends back each later layer's
    output batches, in order, over a one-way pipe. ``close`` ends it.
    """

    def __init__(self, tensors, layers, start, xs, feats):
        if multiprocessing.current_process().daemon:
            raise ObslimError("prune_model forks a worker process for the reference stream "
                              "and cannot do so from a daemonic process")
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(target=_run_reference,
                                 args=(child_conn, tensors, layers, start, xs, feats))
        self._proc.start()
        child_conn.close()  # the worker now holds the only write end: its exit ends a recv

    def layer_output(self, idx: int) -> list:
        """Layer ``idx``'s reference output batches; re-raises the worker's exception."""
        try:
            msg = self._conn.recv()
        except EOFError:
            self._proc.join()
            raise ObslimError(f"the reference stream's worker exited with code "
                              f"{self._proc.exitcode} before sending layer {idx}") from None
        if isinstance(msg, BaseException):
            raise msg
        return msg

    def close(self) -> None:
        self._conn.close()
        self._proc.terminate()
        self._proc.join()


def prune_model(
    tensors: dict,
    manifest: ModelManifest,
    calib,
    sched: PruneSchedule,
    config: PruneConfig = PruneConfig(),
    *,
    out,
):
    """Prune every layer at its scheduled ratio.

    ``calib`` is a sequence of ``(d_model, tokens)`` batches, such as a list
    or one stacked ``(batches, d_model, tokens)`` array. Per layer, the
    damped Hessian of the features into ``wo`` picks the heads to remove
    (the coupled q/k/v rows are sliced), then that of the features into
    ``w_down`` picks the channels. Both come from the calibration stream
    through the pruned prefix, the FFN features after the layer's own head
    pruning. That stream makes one features-only attention and FFN pass per
    batch and layer, and advances with one projection GEMM per sublayer:
    ``x + wo' @ feats[kept]``, then ``x1 + w_down' @ act[kept]``.

    The original model's stream is only the reference for
    ``output_sq_error``. Until a sublayer removes something, the two streams
    are the same arrays and run once, and those layers report 0.0. The
    first sublayer that removes anything forks one worker process with the
    POSIX ``fork`` start method; from a daemonic process, such as a
    ``multiprocessing.Pool`` worker, which may not have children, that
    sublayer raises ``ObslimError`` instead. The worker inherits the
    sublayer's input batches and features and runs the original model's
    remaining sublayers with the original ``wo`` and ``w_down``, while this
    process prunes. After each layer it sends the layer's output batches
    over a pipe. If the worker raises, its exception is re-raised here; if
    it dies, an ``ObslimError`` names the layer. The worker is terminated
    and joined before this returns or raises. ``tracemalloc`` sees only
    this process's allocations, not the worker's.

    Every pruned shape follows from the schedule, so a ``TensorFileWriter``
    header for the path ``out`` is written before pruning starts. Tensors
    that belong to no layer are written first; each layer's tensors are
    written and dropped when its FFN is done. Besides the caller's tensors
    and the calibration set, this process holds one layer's pruned tensors
    and working state at a time. ``tensors`` is left as it was. If pruning
    fails, ``out`` is left as it was. Floating-point warnings are off, here
    and in the worker: a non-finite value in a Hessian, its inverse or a
    layer's errors raises an error that names the layer instead.

    Returns ``(pruned_tensors, pruned_manifest, report)``. The pruned
    tensors are float64 views of a private copy-on-write map of the finished
    ``out``, in the order of ``tensors``, as ``read_tensor_file``'s are.
    """
    validate_manifest(manifest, tensors)
    if sched.n_layers != manifest.n_layers:
        raise ValueError(
            f"schedule covers {sched.n_layers} layers, manifest has {manifest.n_layers}"
        )
    if len(calib) == 0:
        raise ValueError("need at least one calibration batch")
    cur = [np.asarray(x, dtype=np.float64) for x in calib]
    if not any(x.size for x in cur):
        raise ValueError(f"the calibration set has no tokens: all {len(cur)} batches are empty")
    d_model = tensors[manifest.layers[0].attn_out].shape[0]  # every layer's, by validate_manifest
    if any(x.ndim != 2 or x.shape[0] != d_model for x in cur):  # and each layer keeps its shape
        raise ValueError("calibration activations do not match d_model of layer 0")

    counts = [(counts_from_ratio(float(r), e.n_head),
               counts_from_ratio(float(r), tensors[e.ffn_down].shape[1]))
              for e, r in zip(manifest.layers, sched.ratios)]  # heads, channels removed
    shapes = {name: arr.shape for name, arr in tensors.items()}  # once pruned
    for entry, (n_heads, n_channels) in zip(manifest.layers, counts):
        for anchor, coupled, removed in ((entry.attn_out, entry.attn_coupled,
                                          n_heads * entry.d_head),
                                         (entry.ffn_down, entry.ffn_coupled, n_channels)):
            rows, width = shapes[anchor]
            shapes[anchor] = (rows, width - removed)
            for name in coupled:
                shapes[name] = (width - removed, shapes[name][1])
    new_entries = []
    report = PruneReport(
        variant=sched.variant,
        ratios=[float(r) for r in sched.ratios],
        config=dict(vars(config)),
    )

    with np.errstate(all="ignore"), contextlib.ExitStack() as stack:
        writer = stack.enter_context(
            TensorFileWriter(out, {name: (np.float64, shape) for name, shape in shapes.items()}))
        in_layers = {name for entry in manifest.layers for name in entry.tensor_names()}
        for name, arr in tensors.items():
            if name not in in_layers:
                writer.put(name, arr)
        worker = None
        for idx, entry in enumerate(manifest.layers):
            ratio = float(sched.ratios[idx])
            lw = LayerWeights.from_tensors(entry, tensors)
            n_heads, n_channels = counts[idx]
            layer = {name: tensors[name] for name in entry.tensor_names()}
            kept, paid = [], []
            for sub, (sublayer, fn, w, anchor, coupled, n_prune) in enumerate((
                    ("attention", _attention, lw.wo, entry.attn_out, entry.attn_coupled, n_heads),
                    ("FFN", _ffn, lw.w_down, entry.ffn_down, entry.ffn_coupled, n_channels)),
                    start=2 * idx):
                live = w.any(axis=0)
                cols = slice(None)  # the surviving columns of w
                try:
                    feats = [fn(lw, live, x) for x in cur]
                    if n_prune:
                        if worker is None:  # the streams split at this sublayer
                            worker = _ReferenceWorker(tensors, manifest.layers, sub, cur, feats)
                            stack.callback(worker.close)
                        w = np.array(w, dtype=np.float64)  # dead columns are zeroed in place
                        h_inv = _hessian_over_batches(feats, config.damping, w)
                        if sub % 2:
                            result = prune_channels(w, h_inv, n_prune,
                                                    config.group_start, config.group_min)
                        else:
                            result = prune_heads(w, h_inv, entry.d_head, n_prune=n_prune)
                        w = layer[anchor] = result.pruned_w
                        cols = result.kept_columns
                        for name in coupled:
                            layer[name] = layer[name][cols, :]
                        paid.append(result.step_error_sum)
                    step = _projection(w)
                    feats.reverse()  # each batch's features are freed once it is projected
                    cur = [step(x, feats.pop()[cols]) for x in cur]
                except (NotSpdError, np.linalg.LinAlgError, ValueError) as exc:
                    raise NotSpdError(f"pruning failed at layer {idx} ({sublayer}): {exc}") from exc
                kept.append(np.arange(live.size)[cols])
            while layer:
                writer.put(*layer.popitem())
            # the reference batches are dropped as soon as they are compared
            ref = cur if worker is None else worker.layer_output(idx)
            sq_error = float(sum(((a - b) ** 2).sum() for a, b in zip(cur, ref)))
            del ref
            if not np.isfinite([sq_error, sum(paid, 0.0)]).all():
                raise ObslimError(f"pruning failed at layer {idx}: its output error is not finite")
            row = LayerReport(
                layer=idx,
                ratio=ratio,
                heads_removed=n_heads,
                channels_removed=n_channels,
                sum_step_error=sum(paid, 0.0),
                output_sq_error=sq_error,
                kept_heads=(kept[0][::entry.d_head] // entry.d_head).tolist(),
                kept_channels=kept[1].tolist(),
            )
            new_entries.append(replace(entry, n_head=len(row.kept_heads)))
            report.layers.append(row)
        pruned = writer.close()

    pruned_manifest = ModelManifest(layers=new_entries)
    validate_manifest(pruned_manifest, pruned)
    return pruned, pruned_manifest, report


# ---------------------------------------------------------------------------
# Report verification
# ---------------------------------------------------------------------------

def verify_report(
    report: PruneReport,
    manifest: ModelManifest | None = None,
    tensors: dict | None = None,
) -> list:
    """Re-check the report's internal invariants; returns a list of problems.

    With the pruned manifest/tensors supplied, also cross-checks the model
    structure against the report's removal counts.
    """
    n = len(report.layers)
    problems = [] if n else ["report has no layer rows"]
    ratios = report.ratios if len(report.ratios) == n else None
    if ratios is None:
        problems.append(f"{len(report.ratios)} ratios for {n} layer rows")
    for i, row in enumerate(report.layers):
        if not (np.isfinite(row.sum_step_error) and row.sum_step_error >= 0):
            problems.append(f"layer {row.layer}: bad sum_step_error {row.sum_step_error}")
        if not (np.isfinite(row.output_sq_error) and row.output_sq_error >= 0):
            problems.append(f"layer {row.layer}: bad output_sq_error {row.output_sq_error}")
        if not 0.0 <= row.ratio < 1.0:
            problems.append(f"layer {row.layer}: ratio {row.ratio} outside [0, 1)")
        if row.heads_removed < 0 or row.channels_removed < 0:
            problems.append(f"layer {row.layer}: negative removal count")
        if ratios is not None and row.ratio != ratios[i]:
            problems.append(f"layer {row.layer}: ratio {row.ratio} is not ratios[{i}] {ratios[i]}")
        for unit, removed, kept in (("heads", row.heads_removed, row.kept_heads),
                                    ("channels", row.channels_removed, row.kept_channels)):
            total = removed + len(kept)
            if any(a >= b for a, b in zip([-1, *kept], [*kept, total])):
                problems.append(f"layer {row.layer}: kept {unit} are not increasing indices "
                                f"in [0, {total})")
            if 0.0 <= row.ratio < 1.0 and total >= 1:  # an out-of-range ratio is reported above
                want = counts_from_ratio(row.ratio, total)
                if removed != want:
                    problems.append(f"layer {row.layer}: {removed} of {total} {unit} removed, "
                                    f"ratio {row.ratio} removes {want}")
    if [row.layer for row in report.layers] != list(range(n)):
        problems.append("layer indices are not 0..n-1 in order")
    if report.variant not in VARIANTS and report.variant != "custom":
        problems.append(f"unknown variant {report.variant!r}")
    elif report.variant in VARIANTS and ratios:
        try:
            expect = build_schedule(n, report.variant, r0=ratios[0], rn=ratios[-1]).ratios
            if any(abs(a - b) > 1e-9 for a, b in zip(ratios, expect)):
                problems.append(f"ratios do not follow variant {report.variant!r}")
        except ValueError as exc:
            problems.append(f"schedule invalid for variant {report.variant!r}: {exc}")

    if manifest is not None:
        if manifest.n_layers != n:
            problems.append(f"manifest has {manifest.n_layers} layers, report {n}")
        for row, entry in zip(report.layers, manifest.layers):
            if len(row.kept_heads) != entry.n_head:
                problems.append(
                    f"layer {row.layer}: {len(row.kept_heads)} kept heads in report, "
                    f"manifest says {entry.n_head}"
                )
        if tensors is not None:
            try:
                validate_manifest(manifest, tensors)
            except ObslimError as exc:
                problems.append(f"pruned model fails manifest validation: {exc}")
            else:
                for row, entry in zip(report.layers, manifest.layers):
                    width = tensors[entry.ffn_down].shape[1]
                    if len(row.kept_channels) != width:
                        problems.append(
                            f"layer {row.layer}: {len(row.kept_channels)} kept channels "
                            f"in report, pruned {entry.ffn_down!r} has {width}"
                        )
    return problems
