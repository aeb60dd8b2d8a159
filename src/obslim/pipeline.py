"""End-to-end layer-by-layer pruning of a manifest-described toy model.

A small pre-norm residual transformer (causal single-pass attention, gated
FFN) stands in for full-scale models: it is large enough to exhibit error
accumulation across layers yet small enough for every numerical claim to
be checked against exact oracles. Calibration activations propagate
through the already-pruned prefix, so each layer's Hessian sees the
features it will actually receive after compression.
"""

import csv
import io
import json
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .calib import HessianAccumulator
from .config import DEFAULT_DAMPING, is_finite_real
from .errors import NotSpdError, ObslimError
from .ffn_pruner import GroupSchedule, prune_channels
from .head_pruner import HeadLayout, prune_heads
from .schedule import VARIANTS, PruneSchedule, counts_from_ratio, ratio_at
from .tensorstore import LayerEntry, ModelManifest, validate_manifest


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
        if self.d_model % self.n_head != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_head {self.n_head}")
        if min(self.n_layers, self.d_model, self.n_head, self.d_ff) < 1:
            raise ValueError("all dimensions must be >= 1")
        if min(self.n_calib_batches, self.tokens_per_batch) < 1:
            raise ValueError("calibration needs at least one batch of one token")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_head


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
        tensors.update(
            {
                names["wq"]: wq,
                names["wk"]: wk,
                names["wv"]: wv,
                names["wo"]: wo,
                names["w_up"]: w_up,
                names["w_gate"]: w_gate,
                names["w_down"]: w_down,
            }
        )
        entries.append(
            LayerEntry(
                attn_out=names["wo"],
                attn_coupled=[names["wq"], names["wk"], names["wv"]],
                ffn_down=names["w_down"],
                ffn_coupled=[names["w_up"], names["w_gate"]],
                n_head=spec.n_head,
                d_head=dh,
            )
        )
    manifest = ModelManifest(n_layers=spec.n_layers, layers=entries)
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


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


# Query rows per attention tile; on a 512-token head, 64 ran faster than 128.
_TILE = 64


def _attention(lw: LayerWeights, x: np.ndarray):
    """Causal attention; returns (stream after residual add, features into wo).

    Heads are evaluated one at a time and dead heads (all-zero output
    columns) are skipped: their contribution is exactly zero, and skipping
    keeps a zero-masked model numerically identical to its sliced form.
    Each head takes its query rows in tiles of ``_TILE``. A tile scores
    against the keys up to its last row only, so the masked future beyond
    its diagonal block is never computed, and it sees all of those keys at
    once: the softmax is the exact two-pass ``exp(z - max) / sum``, with no
    online rescaling. ``1/sqrt(d)`` is folded into the queries, and the
    division by the row sums is applied after the product with the values.
    """
    h = _rmsnorm(x)
    d = lw.d_head
    t = x.shape[1]
    future = np.triu(np.ones((_TILE, _TILE), dtype=bool), k=1)
    ho = np.zeros((lw.n_head * d, t))
    out = np.zeros_like(x)
    for head in range(lw.n_head):
        sl = slice(head * d, (head + 1) * d)
        wo_block = lw.wo[:, sl]
        if not wo_block.any():
            continue
        q = np.ascontiguousarray(lw.wq[sl]) @ h
        q /= np.sqrt(d)
        k = np.ascontiguousarray(lw.wk[sl]) @ h
        v = np.ascontiguousarray(lw.wv[sl]) @ h
        ctx = ho[sl]
        for start in range(0, t, _TILE):
            end = min(start + _TILE, t)
            p = q[:, start:end].T @ k[:, :end]
            np.putmask(p[:, start:], future[: end - start, : end - start], -np.inf)
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            ctx[:, start:end] = (v[:, :end] @ p.T) / p.sum(axis=1)
        out += np.ascontiguousarray(wo_block) @ ctx
    return x + out, ho


def _ffn(lw: LayerWeights, x: np.ndarray):
    """Gated FFN; returns (stream after residual add, features into w_down).

    Channels whose down-projection column is all zero contribute exactly
    zero and are dropped before the matmuls, for the same masked/sliced
    equivalence as in attention.
    """
    h = _rmsnorm(x)
    d_ff = lw.w_down.shape[1]
    act = np.zeros((d_ff, x.shape[1]))
    live = np.flatnonzero(lw.w_down.any(axis=0))
    if live.size == 0:
        return x.copy(), act
    u = np.ascontiguousarray(lw.w_up[live]) @ h
    g = np.ascontiguousarray(lw.w_gate[live]) @ h
    a = _silu(g) * u
    act[live] = a
    y = np.ascontiguousarray(lw.w_down[:, live]) @ a
    return x + y, act


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
    x1, attn_feats = _attention(lw, x)
    x2, ffn_feats = _ffn(lw, x1)
    if collect:
        return x2, attn_feats, ffn_feats
    return x2


def forward_model(tensors: dict, manifest: ModelManifest, x: np.ndarray) -> np.ndarray:
    """Run activations through every layer of a manifest-described model."""
    for entry in manifest.layers:
        x = forward_layer(LayerWeights.from_tensors(entry, tensors), x)
    return x


# ---------------------------------------------------------------------------
# Pruning driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PruneConfig:
    """Knobs of one pruning run; snapshotted verbatim into the report."""

    damping: float = DEFAULT_DAMPING
    group_start: int = 1024
    group_min: int = 8

    def __post_init__(self):
        if not is_finite_real(self.damping) or self.damping < 0:
            raise ValueError(f"damping must be a finite number >= 0, got {self.damping!r}")
        sizes = (self.group_start, self.group_min)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in sizes):
            raise ValueError(f"group_start and group_min must be integers, got {sizes!r}")
        GroupSchedule(self.group_start, self.group_min)  # raises unless 1 <= min <= start

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LayerReport:
    layer: int
    ratio: float
    heads_removed: int
    channels_removed: int
    sum_step_error: float
    output_sq_error: float
    kept_heads: list = field(default_factory=list)
    kept_channels: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, row) -> "LayerReport":
        """One row of ``report.json``; ``ObslimError`` on a missing, extra or mistyped field."""
        names = [f.name for f in fields(cls)]
        if not isinstance(row, dict) or sorted(row) != sorted(names):
            raise ObslimError(f"a report layer row needs exactly the fields {names}")
        for f in fields(cls):
            val = row[f.name]
            if not (isinstance(val, list) if f.type is list else is_finite_real(val)
                    and (f.type is float or isinstance(val, numbers.Integral))):
                raise ObslimError(f"report layer {f.name} has the wrong type or value: {val!r}")
        return cls(**row)


@dataclass
class PruneReport:
    """Per-layer diagnostics plus the schedule and config that produced them."""

    layers: list = field(default_factory=list)
    variant: str = "uniform"
    ratios: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "ratios": list(self.ratios),
            "config": dict(self.config),
            "layers": [asdict(row) for row in self.layers],
        }

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
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["layer", "ratio", "heads_removed", "channels_removed",
             "sum_step_error", "output_sq_error"]
        )
        for row in self.layers:
            writer.writerow(
                [row.layer, repr(row.ratio), row.heads_removed, row.channels_removed,
                 repr(row.sum_step_error), repr(row.output_sq_error)]
            )
        return buf.getvalue()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PruneReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _hessian_over_batches(feature_batches, damping: float, w: np.ndarray):
    """Damped Hessian of the features into ``w``, with dead features made harmless.

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
    return acc.finalize(damping)


def _sublayer(fn, cur, ref, kernel):
    """Advance the pruned stream ``cur`` and the original stream ``ref`` past one sublayer.

    ``fn(x)`` runs the sublayer with its weights before pruning and returns
    ``(output, features into its projection)``; ``kernel(features)``, if
    not None, prunes the projection on the pruned stream's features and
    returns ``(w, kept)``. Streams that are the same list share one pass; a
    separate ``ref`` makes its pass after the kernel. Returns the advanced
    ``(cur, ref)``.
    """
    if kernel is None:
        out = [fn(x)[0] for x in cur]
        return out, out if ref is cur else [fn(x)[0] for x in ref]
    if ref is cur:
        ref_out, feats = map(list, zip(*map(fn, cur)))
    else:
        ref_out, feats = None, [fn(x)[1] for x in cur]
    w, kept = kernel(feats)
    out = [x + w @ f[kept] for x, f in zip(cur, feats)]
    del feats  # not alive during the reference pass below
    return out, ref_out if ref_out is not None else [fn(x)[0] for x in ref]


def prune_model(
    tensors: dict,
    manifest: ModelManifest,
    calib,
    sched: PruneSchedule,
    config: PruneConfig = PruneConfig(),
):
    """Prune every layer at its scheduled ratio.

    Per layer, the damped Hessian of the features into ``wo`` picks the
    heads to remove (the coupled q/k/v rows are sliced), then that of the
    features into ``w_down`` picks the channels. Both come from the
    calibration stream through the pruned prefix, the FFN features after the
    layer's own head pruning; the original model's stream is only the
    reference for ``output_sq_error``. Each of the two streams makes one
    attention and one FFN pass per batch and layer: the pruned one advances
    from the features it collected, as ``x + wo' @ feats[kept]`` and then
    ``x1 + w_down' @ act[kept]``, and until a layer removes something the
    streams are the same arrays and run once. Returns
    ``(pruned_tensors, pruned_manifest, report)``.
    """
    validate_manifest(manifest, tensors)
    if sched.n_layers != manifest.n_layers:
        raise ValueError(
            f"schedule covers {sched.n_layers} layers, manifest has {manifest.n_layers}"
        )
    if not calib:
        raise ValueError("need at least one calibration batch")

    pruned = {name: np.array(arr, dtype=np.float64) for name, arr in tensors.items()}
    cur = [np.asarray(x, dtype=np.float64) for x in calib]
    ref = cur
    new_entries = []
    report = PruneReport(
        variant=sched.variant,
        ratios=[float(r) for r in sched.ratios],
        config=config.to_dict(),
    )

    for idx, entry in enumerate(manifest.layers):
        ratio = float(sched.ratios[idx])
        orig_lw = LayerWeights.from_tensors(entry, tensors)
        if any(x.ndim != 2 or x.shape[0] != orig_lw.wo.shape[0] for x in cur):
            raise ValueError(f"calibration activations do not match d_model of layer {idx}")
        d_ff = pruned[entry.ffn_down].shape[1]
        n_prune_heads = counts_from_ratio(ratio, entry.n_head)
        n_prune_ch = counts_from_ratio(ratio, d_ff)
        row = LayerReport(
            layer=idx,
            ratio=ratio,
            heads_removed=n_prune_heads,
            channels_removed=n_prune_ch,
            sum_step_error=0.0,
            output_sq_error=0.0,
            kept_heads=list(range(entry.n_head)),
            kept_channels=list(range(d_ff)),
        )

        def heads(feats):
            h_attn = _hessian_over_batches(feats, config.damping, pruned[entry.attn_out])
            layout = HeadLayout(entry.n_head, entry.d_head)
            result = prune_heads(pruned[entry.attn_out], h_attn, layout, n_prune_heads)
            pruned[entry.attn_out] = result.pruned_w
            for name in entry.attn_coupled:
                pruned[name] = pruned[name][result.kept_columns, :]
            row.sum_step_error += float(result.step_error_sum)
            row.kept_heads = list(result.kept_heads)
            return result.pruned_w, result.kept_columns

        def channels(feats):
            h_ffn = _hessian_over_batches(feats, config.damping, pruned[entry.ffn_down])
            sizes = GroupSchedule(config.group_start, config.group_min)
            new_w, kept, steps = prune_channels(pruned[entry.ffn_down], h_ffn, n_prune_ch, sizes)
            pruned[entry.ffn_down] = new_w
            for name in entry.ffn_coupled:
                pruned[name] = pruned[name][kept, :]
            row.sum_step_error += sum(err for _, err in steps)
            row.kept_channels = kept
            return new_w, kept

        try:
            attn, ffn = partial(_attention, orig_lw), partial(_ffn, orig_lw)
            cur, ref = _sublayer(attn, cur, ref, heads if n_prune_heads else None)
            cur, ref = _sublayer(ffn, cur, ref, channels if n_prune_ch else None)
        except (NotSpdError, np.linalg.LinAlgError) as exc:
            raise NotSpdError(f"pruning failed at layer {idx}: {exc}") from exc
        new_entries.append(replace(entry, n_head=len(row.kept_heads)))
        row.output_sq_error = float(sum(((a - b) ** 2).sum() for a, b in zip(cur, ref)))
        report.layers.append(row)

    pruned_manifest = ModelManifest(n_layers=manifest.n_layers, layers=new_entries)
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
    problems = []
    n = len(report.layers)
    if len(report.ratios) != n:
        problems.append(f"{len(report.ratios)} ratios for {n} layer rows")
    for row in report.layers:
        if not (np.isfinite(row.sum_step_error) and row.sum_step_error >= 0):
            problems.append(f"layer {row.layer}: bad sum_step_error {row.sum_step_error}")
        if not (np.isfinite(row.output_sq_error) and row.output_sq_error >= 0):
            problems.append(f"layer {row.layer}: bad output_sq_error {row.output_sq_error}")
        if not 0.0 <= row.ratio < 1.0:
            problems.append(f"layer {row.layer}: ratio {row.ratio} outside [0, 1)")
        if row.heads_removed < 0 or row.channels_removed < 0:
            problems.append(f"layer {row.layer}: negative removal count")
    if [row.layer for row in report.layers] != list(range(n)):
        problems.append("layer indices are not 0..n-1 in order")
    if report.variant in VARIANTS and n >= 2:
        r0, rn = report.ratios[0], report.ratios[-1]
        try:
            expect = [ratio_at(i, n, r0, rn, report.variant) for i in range(n)]
            if any(abs(a - b) > 1e-9 for a, b in zip(report.ratios, expect)):
                problems.append(f"ratios do not follow variant {report.variant!r}")
        except ValueError as exc:
            problems.append(f"schedule invalid for variant {report.variant!r}: {exc}")
    elif report.variant not in VARIANTS and report.variant != "custom":
        problems.append(f"unknown variant {report.variant!r}")

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
