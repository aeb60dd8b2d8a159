"""Toy model generation, forward pass, and end-to-end pruning."""

import json
import multiprocessing
import os
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from obslim import linalg, pipeline
from obslim.calib import HessianAccumulator
from obslim.errors import NotSpdError, ObslimError
from obslim.linalg import SpdMatrix, invert_spd
from obslim.obs_core import least_squares_oracle, mask_residual
from obslim.pipeline import (
    LayerReport,
    LayerWeights,
    PruneConfig,
    PruneReport,
    ToyModelSpec,
    forward_layer,
    forward_model,
    gen_toy,
    layer_names,
    prune_model,
    verify_report,
)
from obslim.schedule import PruneSchedule, build_schedule
from obslim.tensorstore import ModelManifest, validate_manifest

from conftest import NON_FINITE, dense_causal_attention, ffn_in_worker, reinvert_prune_heads

TOY = ToyModelSpec(n_layers=3, d_model=16, n_head=4, d_ff=24,
                   n_calib_batches=2, tokens_per_batch=24)
CONFIG = PruneConfig(group_start=8, group_min=2)


def custom_schedule(ratios):
    return PruneSchedule(ratios=tuple(ratios), variant="custom")


def shared_counts(keys):
    """A count per key in shared memory, which a forked process adds to as well."""
    ctx = multiprocessing.get_context("fork")
    return {key: ctx.Value("i", 0) for key in keys}


def two_pass_attention(lw, live, x):
    """``pipeline._attention`` with the two-pass softmax ``exp(z - max) / sum``
    in every tile, as it was before heads under the exp bound took one pass."""
    h = x / np.sqrt((x * x).mean(axis=0, keepdims=True) + 1e-6)
    d = lw.d_head
    t = x.shape[1]
    future = np.triu(np.ones((pipeline._TILE, pipeline._TILE), dtype=bool), k=1)
    ho = np.zeros((lw.n_head * d, t))
    for head in np.flatnonzero(live.reshape(lw.n_head, d).any(axis=1)):
        sl = slice(head * d, (head + 1) * d)
        q = lw.wq[sl] @ h
        q /= np.sqrt(d)
        k = lw.wk[sl] @ h
        v = lw.wv[sl] @ h
        ctx = ho[sl]
        for start in range(0, t, pipeline._TILE):
            end = min(start + pipeline._TILE, t)
            p = q[:, start:end].T @ k[:, :end]
            np.putmask(p[:, start:], future[: end - start, : end - start], -np.inf)
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            ctx[:, start:end] = (v[:, :end] @ p.T) / p.sum(axis=1)
    return ho


def score_bounds(lw, x):
    """Per head, ``max_i |q_i| * max_j |k_j|`` with ``q`` scaled by ``1/sqrt(d)``:
    by Cauchy-Schwarz, a bound on every attention score of that head."""
    h = x / np.sqrt((x * x).mean(axis=0, keepdims=True) + 1e-6)
    d = lw.d_head
    q = (lw.wq @ h / np.sqrt(d)).reshape(lw.n_head, d, -1)
    k = (lw.wk @ h).reshape(lw.n_head, d, -1)
    return np.linalg.norm(q, axis=1).max(axis=1) * np.linalg.norm(k, axis=1).max(axis=1)


def push_over_the_bound(lw, x, head, over=2.0):
    """Scale ``head``'s query rows in place until its score bound is ``over``
    times ``_EXP_BOUND``; check that it is the one head over the bound."""
    rows = slice(head * lw.d_head, (head + 1) * lw.d_head)
    lw.wq[rows] *= over * pipeline._EXP_BOUND / score_bounds(lw, x)[head]
    bounds = score_bounds(lw, x)
    assert bounds[head] > pipeline._EXP_BOUND >= np.delete(bounds, head).max(), bounds


class TestGenToy:
    def test_determinism(self):
        t1, m1, c1 = gen_toy(TOY)
        t2, m2, c2 = gen_toy(TOY)
        assert list(t1) == list(t2)
        assert all(np.array_equal(t1[k], t2[k]) for k in t1)
        assert m1 == m2
        assert all(np.array_equal(a, b) for a, b in zip(c1, c2))

    def test_different_seed_differs(self):
        t1, _, _ = gen_toy(TOY)
        t2, _, _ = gen_toy(replace(TOY, seed=1))
        assert not np.array_equal(t1["layers.0.attn.wo"], t2["layers.0.attn.wo"])

    def test_manifest_shapes(self):
        spec = ToyModelSpec(n_layers=1, d_model=32, n_head=4, d_ff=16)
        tensors, manifest, calib = gen_toy(spec)
        validate_manifest(manifest, tensors)
        entry = manifest.layers[0]
        assert tensors[entry.attn_out].shape[1] == 4 * 8
        assert all(x.shape[0] == 32 for x in calib)

    def test_nbytes_counts_every_array(self):
        spec = ToyModelSpec(n_layers=3, d_model=12, n_head=3, d_ff=20,
                            n_calib_batches=2, tokens_per_batch=5)
        tensors, _, calib = gen_toy(spec)
        assert spec.nbytes == sum(a.nbytes for a in (*tensors.values(), *calib))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ToyModelSpec(d_model=30, n_head=4)


class TestForwardLayer:
    def test_zero_weights_residual_path(self):
        rng = np.random.default_rng(0)
        lw = LayerWeights(
            wq=np.zeros((8, 8)), wk=np.zeros((8, 8)), wv=np.zeros((8, 8)),
            wo=np.zeros((8, 8)), w_up=np.zeros((12, 8)), w_gate=np.zeros((12, 8)),
            w_down=np.zeros((8, 12)), n_head=2, d_head=4,
        )
        x = rng.normal(size=(8, 5))
        assert np.array_equal(forward_layer(lw, x), x)

    def test_hand_computed_single_head(self):
        # 1 head, d_model 2, 2 tokens; every intermediate evaluated by hand
        # with independent formulas (loops, no shared helper code)
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.0, 1.0], [1.0, 0.0]])
        wv = np.array([[2.0, 0.0], [0.0, 2.0]])
        wo = np.array([[1.0, 1.0], [0.0, 1.0]])
        w_up = np.array([[1.0, -1.0]])
        w_gate = np.array([[0.5, 0.5]])
        w_down = np.array([[1.0], [2.0]])
        lw = LayerWeights(wq=wq, wk=wk, wv=wv, wo=wo, w_up=w_up, w_gate=w_gate,
                          w_down=w_down, n_head=1, d_head=2)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])

        h = np.empty_like(x)
        for t in range(2):
            rms = np.sqrt((x[0, t] ** 2 + x[1, t] ** 2) / 2.0 + 1e-6)
            h[:, t] = x[:, t] / rms
        q, k, v = wq @ h, wk @ h, wv @ h
        # token 0 attends to itself; token 1 softmax over both
        s10 = (q[0, 1] * k[0, 0] + q[1, 1] * k[1, 0]) / np.sqrt(2.0)
        s11 = (q[0, 1] * k[0, 1] + q[1, 1] * k[1, 1]) / np.sqrt(2.0)
        e10, e11 = np.exp(s10 - max(s10, s11)), np.exp(s11 - max(s10, s11))
        a10, a11 = e10 / (e10 + e11), e11 / (e10 + e11)
        ctx = np.empty((2, 2))
        ctx[:, 0] = v[:, 0]
        ctx[:, 1] = a10 * v[:, 0] + a11 * v[:, 1]
        x1 = x + wo @ ctx
        h2 = np.empty_like(x1)
        for t in range(2):
            rms = np.sqrt((x1[0, t] ** 2 + x1[1, t] ** 2) / 2.0 + 1e-6)
            h2[:, t] = x1[:, t] / rms
        u = w_up @ h2
        g = w_gate @ h2
        act = g / (1.0 + np.exp(-g)) * u
        expect = x1 + w_down @ act

        got = forward_layer(lw, x)
        assert np.abs(got - expect).max() < 1e-12

    def test_shape_errors(self):
        tensors, manifest, _ = gen_toy(TOY)
        lw = LayerWeights.from_tensors(manifest.layers[0], tensors)
        with pytest.raises(ValueError):
            forward_layer(lw, np.zeros((TOY.d_model + 1, 4)))

    @pytest.mark.parametrize("layout", [dict(n_head=3), dict(d_head=2)])
    def test_head_layout_mismatch_raises(self, layout):
        tensors, manifest, calib = gen_toy(TOY)
        lw = replace(LayerWeights.from_tensors(manifest.layers[0], tensors), **layout)
        with pytest.raises(ValueError, match="^attention tensors inconsistent with head layout$"):
            forward_layer(lw, calib[0])

    @pytest.mark.parametrize("tokens", [1, 2, 63, 64, 65, 128, 129, 300])
    def test_attention_matches_dense_reference(self, tokens):
        # tile edges on both sides of 64 and 128, and a partial last tile;
        # head 2 takes the two-pass softmax, heads 0 and 3 the one-pass one
        tensors, manifest, calib = gen_toy(ToyModelSpec(
            n_layers=1, d_model=16, n_head=4, d_ff=8,
            n_calib_batches=1, tokens_per_batch=tokens, seed=tokens))
        lw = LayerWeights.from_tensors(manifest.layers[0], tensors)
        lw.wo[:, 4:8] = 0.0  # head 1 is dead
        push_over_the_bound(lw, calib[0], head=2)
        feats = pipeline._attention(lw, lw.wo.any(axis=0), calib[0])
        out = pipeline._projection(lw.wo)(calib[0], feats)  # the caller's residual step
        want_out, want_feats = dense_causal_attention(lw, calib[0])
        assert not feats[4:8].any()
        assert np.linalg.norm(feats - want_feats) <= 1e-12 * np.linalg.norm(want_feats)
        assert np.linalg.norm(out - want_out) <= 1e-12 * np.linalg.norm(want_out)

    @pytest.mark.parametrize("over", [2.0, 20.0])
    def test_head_over_the_exp_bound_takes_two_passes(self, over):
        # at 20 times the bound, exp of the unshifted scores would overflow
        tensors, manifest, calib = gen_toy(ToyModelSpec(
            n_layers=1, d_model=16, n_head=4, d_ff=8,
            n_calib_batches=1, tokens_per_batch=150, seed=5))
        lw = LayerWeights.from_tensors(manifest.layers[0], tensors)
        push_over_the_bound(lw, calib[0], head=2, over=over)
        live = lw.wo.any(axis=0)
        feats = pipeline._attention(lw, live, calib[0])
        want = two_pass_attention(lw, live, calib[0])
        assert np.array_equal(feats[8:12], want[8:12])
        under = np.r_[0:8, 12:16]
        assert (np.linalg.norm(feats[under] - want[under])
                <= 1e-12 * np.linalg.norm(want[under]))

    @pytest.mark.parametrize("wq_scale, wk_scale, finite", [
        (1e200, 1e200, False), (1e300, 1.0, True)], ids=["scores-overflow", "bound-overflows"])
    def test_non_finite_bound_takes_two_passes(self, wq_scale, wk_scale, finite):
        # head 2's bound is inf: its scores overflow too (features NaN), or
        # only the norms in the bound do (features finite; one pass gives NaN)
        tensors, manifest, calib = gen_toy(ToyModelSpec(
            n_layers=1, d_model=16, n_head=4, d_ff=8,
            n_calib_batches=1, tokens_per_batch=150, seed=5))
        lw = LayerWeights.from_tensors(manifest.layers[0], tensors)
        lw.wq[8:12] *= wq_scale
        lw.wk[8:12] *= wk_scale
        live = lw.wo.any(axis=0)
        with np.errstate(all="ignore"):
            assert np.isinf(score_bounds(lw, calib[0])[2])
            feats = pipeline._attention(lw, live, calib[0])
            want = two_pass_attention(lw, live, calib[0])
        assert np.array_equal(feats[8:12], want[8:12], equal_nan=True)
        assert np.isfinite(feats[8:12]).all() == finite


class TestMaskedVsSliced:
    def test_layer_level_exact_equality(self):
        self.check_layer_level_exact_equality(tokens=19)

    def test_layer_level_exact_equality_multi_tile(self):
        # 150 tokens: three attention tiles, the last one partial; kept head
        # 2 takes the two-pass softmax, kept heads 0 and 3 the one-pass one
        self.check_layer_level_exact_equality(tokens=150, over_the_bound=2)

    @staticmethod
    def check_layer_level_exact_equality(tokens, over_the_bound=None):
        # zero-masking pruned structures and physically slicing them produce
        # numerically identical layer outputs
        rng = np.random.default_rng(1)
        tensors, manifest, calib = gen_toy(ToyModelSpec(
            n_layers=1, d_model=24, n_head=4, d_ff=17,
            n_calib_batches=1, tokens_per_batch=tokens, seed=3))
        entry = manifest.layers[0]
        if over_the_bound is not None:
            push_over_the_bound(LayerWeights.from_tensors(entry, tensors), calib[0],
                                head=over_the_bound)
        names = layer_names(0)
        kept_heads = [0, 2, 3]
        kept_cols = np.concatenate([np.arange(h * 6, h * 6 + 6) for h in kept_heads])
        kept_ch = np.sort(rng.choice(17, size=9, replace=False))

        masked = {k: v.copy() for k, v in tensors.items()}
        dead_cols = np.setdiff1d(np.arange(24), kept_cols)
        dead_ch = np.setdiff1d(np.arange(17), kept_ch)
        masked[names["wo"]][:, dead_cols] = 0.0
        for nm in ("wq", "wk", "wv"):
            masked[names[nm]][dead_cols, :] = 0.0
        masked[names["w_down"]][:, dead_ch] = 0.0
        for nm in ("w_up", "w_gate"):
            masked[names[nm]][dead_ch, :] = 0.0

        sliced = {k: v.copy() for k, v in tensors.items()}
        sliced[names["wo"]] = sliced[names["wo"]][:, kept_cols]
        for nm in ("wq", "wk", "wv"):
            sliced[names[nm]] = sliced[names[nm]][kept_cols, :]
        sliced[names["w_down"]] = sliced[names["w_down"]][:, kept_ch]
        for nm in ("w_up", "w_gate"):
            sliced[names[nm]] = sliced[names[nm]][kept_ch, :]

        lw_masked = LayerWeights.from_tensors(entry, masked)
        from dataclasses import replace
        lw_sliced = LayerWeights.from_tensors(replace(entry, n_head=3), sliced)
        x = calib[0]
        assert np.array_equal(forward_layer(lw_masked, x), forward_layer(lw_sliced, x))

    def test_model_level_after_real_prune(self, tmp_path):
        tensors, manifest, calib = gen_toy(TOY)
        sched = custom_schedule([0.5, 0.25, 0.5])
        pruned, pmanifest, report = prune_model(tensors, manifest, calib, sched, CONFIG,
                                                out=tmp_path / "model.obt")
        # rebuild the zero-masked model from the report's kept masks
        masked = {k: v.copy() for k, v in tensors.items()}
        for idx, row in enumerate(report.layers):
            names = layer_names(idx)
            entry = manifest.layers[idx]
            kept_cols = np.concatenate(
                [np.arange(h * entry.d_head, (h + 1) * entry.d_head)
                 for h in row.kept_heads]
            )
            dead_cols = np.setdiff1d(np.arange(entry.n_head * entry.d_head), kept_cols)
            dead_ch = np.setdiff1d(
                np.arange(tensors[entry.ffn_down].shape[1]), row.kept_channels
            )
            masked[names["wo"]] = masked[names["wo"]].copy()
            masked[names["wo"]][:, kept_cols] = pruned[names["wo"]]
            masked[names["wo"]][:, dead_cols] = 0.0
            for nm in ("wq", "wk", "wv"):
                masked[names[nm]] = masked[names[nm]].copy()
                masked[names[nm]][dead_cols, :] = 0.0
            masked[names["w_down"]] = masked[names["w_down"]].copy()
            masked[names["w_down"]][:, row.kept_channels] = pruned[names["w_down"]]
            masked[names["w_down"]][:, dead_ch] = 0.0
            for nm in ("w_up", "w_gate"):
                masked[names[nm]] = masked[names[nm]].copy()
                masked[names[nm]][dead_ch, :] = 0.0
        for x in calib:
            out_masked = forward_model(masked, manifest, x)
            out_sliced = forward_model(pruned, pmanifest, x)
            assert np.array_equal(out_masked, out_sliced)


class TestPruneModel:
    def test_zero_ratios_bit_identical(self, tmp_path):
        tensors, manifest, calib = gen_toy(TOY)
        sched = build_schedule(3, "uniform", global_target=0.0)
        pruned, pmanifest, report = prune_model(tensors, manifest, calib, sched, CONFIG,
                                                out=tmp_path / "model.obt")
        assert all(np.array_equal(pruned[k], tensors[k]) for k in tensors)
        assert pmanifest == manifest
        assert all(r.output_sq_error == 0.0 for r in report.layers)
        assert all(r.sum_step_error == 0.0 for r in report.layers)

    def test_single_layer_head_only_output_error_oracle(self, tmp_path):
        # d_ff = 1 so no channel is ever pruned; FFN weights zeroed so the
        # block is attention-only and the output error is exactly the
        # projection residual ||W X - W_hat X_kept||^2
        spec = ToyModelSpec(n_layers=1, d_model=16, n_head=4, d_ff=1,
                            n_calib_batches=2, tokens_per_batch=32, seed=5)
        tensors, manifest, calib = gen_toy(spec)
        names = layer_names(0)
        for nm in ("w_up", "w_gate", "w_down"):
            tensors[names[nm]] = np.zeros_like(tensors[names[nm]])
        sched = custom_schedule([0.5])
        pruned, _, report = prune_model(tensors, manifest, calib, sched, CONFIG,
                                        out=tmp_path / "model.obt")
        row = report.layers[0]
        assert row.heads_removed == 2
        assert row.channels_removed == 0

        lw = LayerWeights.from_tensors(manifest.layers[0], tensors)
        w_orig = tensors[names["wo"]]
        w_hat = pruned[names["wo"]]
        kept_cols = np.concatenate(
            [np.arange(h * 4, (h + 1) * 4) for h in row.kept_heads]
        )
        expect = 0.0
        for x in calib:
            feats = forward_layer(lw, x, collect=True)[1]
            expect += ((w_orig @ feats - w_hat @ feats[kept_cols]) ** 2).sum()
        assert abs(row.output_sq_error - expect) < 1e-9 * max(1.0, expect)

    def test_determinism(self, tmp_path):
        tensors, manifest, calib = gen_toy(TOY)
        sched = build_schedule(3, "log_increase", r0=0.2, global_target=0.4)
        out1 = prune_model(tensors, manifest, calib, sched, CONFIG, out=tmp_path / "1.obt")
        out2 = prune_model(tensors, manifest, calib, sched, CONFIG, out=tmp_path / "2.obt")
        assert all(np.array_equal(out1[0][k], out2[0][k]) for k in out1[0])
        assert out1[1] == out2[1]
        assert out1[2].to_json() == out2[2].to_json()

    def test_every_layer_matches_least_squares_oracle(self, tmp_path):
        self.check_every_layer_matches_least_squares_oracle(TOY, tmp_path / "model.obt")

    def test_every_layer_matches_least_squares_oracle_multi_tile(self, tmp_path):
        # 150 tokens: three attention tiles, the last one partial
        self.check_every_layer_matches_least_squares_oracle(replace(TOY, tokens_per_batch=150),
                                                            tmp_path / "model.obt")

    @staticmethod
    def check_every_layer_matches_least_squares_oracle(spec, out):
        # Hessians rebuilt from public forward_layer(collect=True) by the
        # documented rule: the stream through the pruned prefix, with the
        # FFN features taken after the layer's own head pruning
        tensors, manifest, calib = gen_toy(spec)
        pruned, pmanifest, report = prune_model(
            tensors, manifest, calib, custom_schedule([0.5, 0.25, 0.5]), CONFIG, out=out)

        def hessian(feats):
            acc = HessianAccumulator(feats[0].shape[0])
            for f in feats:
                acc.accumulate(f)
            return acc.finalize(CONFIG.damping)

        def rel_dev(got, want):
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        cur = list(calib)
        for idx, row in enumerate(report.layers):
            orig = LayerWeights.from_tensors(manifest.layers[idx], tensors)
            new = LayerWeights.from_tensors(pmanifest.layers[idx], pruned)
            assert row.heads_removed > 0 and row.channels_removed > 0
            kept_cols = np.concatenate(
                [np.arange(h * orig.d_head, (h + 1) * orig.d_head) for h in row.kept_heads])
            h_attn = hessian([forward_layer(orig, x, collect=True)[1] for x in cur])
            assert rel_dev(new.wo, least_squares_oracle(orig.wo, h_attn, kept_cols)) <= 1e-8
            ffn_input_layer = replace(
                orig, wq=new.wq, wk=new.wk, wv=new.wv, wo=new.wo, n_head=new.n_head)
            h_ffn = hessian([forward_layer(ffn_input_layer, x, collect=True)[2] for x in cur])
            want = least_squares_oracle(orig.w_down, h_ffn, row.kept_channels)
            assert rel_dev(new.w_down, want) <= 1e-8
            # the summed step errors are the exact residuals of the two masks
            paid = (mask_residual(orig.wo, h_attn, kept_cols)
                    + mask_residual(orig.w_down, h_ffn, row.kept_channels))
            assert abs(row.sum_step_error - paid) <= 1e-9 * paid

            n = idx + 1
            head = ModelManifest(layers=manifest.layers[:n])
            phead = ModelManifest(layers=pmanifest.layers[:n])
            err = sum(((forward_model(pruned, phead, x) - forward_model(tensors, head, x)) ** 2).sum()
                      for x in calib)
            assert abs(row.output_sq_error - err) <= 1e-9 * err
            cur = [forward_layer(new, x) for x in cur]

    def test_attention_and_ffn_passes_per_layer(self, monkeypatch, tmp_path):
        # Per-layer counts come from pruning the 1-, 2- and 3-layer prefixes.
        # Layer 0 removes nothing, so the pruned and the original stream are
        # still the same arrays and each sublayer runs once per batch. Layer 1
        # shares its attention pass, then its head pruning splits the streams,
        # so its FFN and all of layer 2 run once per stream. The counts are
        # shared memory, so the forked reference worker's passes count too.
        calls = shared_counts(["_attention", "_ffn"])
        for name, count in calls.items():
            def counted(*args, _fn=getattr(pipeline, name), _count=count):
                with _count.get_lock():
                    _count.value += 1
                return _fn(*args)
            monkeypatch.setattr(pipeline, name, counted)
        tensors, manifest, calib = gen_toy(TOY)
        ratios = [0.0, 0.5, 0.5]
        expect = [(1, 1), (1, 2), (2, 2)]
        before = (0, 0)
        for n in range(1, 4):
            for count in calls.values():
                count.value = 0
            prune_model(tensors, ModelManifest(layers=manifest.layers[:n]),
                        calib, custom_schedule(ratios[:n]), CONFIG, out=tmp_path / "model.obt")
            now = tuple(count.value for count in calls.values())
            per_batch = tuple((a - b) / len(calib) for a, b in zip(now, before))
            assert per_batch == expect[n - 1], (n - 1, per_batch)
            before = now

    def test_original_weights_projected_once_per_batch(self, monkeypatch, tmp_path):
        # Layer 0 removes nothing; layer 1 removes heads, which splits the
        # streams, and then channels; layer 2 removes both. Every original
        # wo / w_down is multiplied once per batch, by the reference stream's
        # residual step: the pruned stream's features-only passes make no
        # such product, and it advances with the pruned weights of the four
        # pruned sublayers instead.
        tensors, manifest, calib = gen_toy(TOY)
        names = {id(tensors[n]): n for e in manifest.layers for n in (e.attn_out, e.ffn_down)}
        calls = shared_counts([*names.values(), "pruned"])  # the worker forks with these ids

        def counted(w, _fn=pipeline._projection):
            step, count = _fn(w), calls[names.get(id(w), "pruned")]

            def wrapped(x, f):
                with count.get_lock():
                    count.value += 1
                return step(x, f)
            return wrapped

        monkeypatch.setattr(pipeline, "_projection", counted)
        prune_model(tensors, manifest, calib, custom_schedule([0.0, 0.5, 0.5]), CONFIG,
                    out=tmp_path / "model.obt")
        assert {key: count.value for key, count in calls.items()} == {
            **{n: len(calib) for n in names.values()}, "pruned": 4 * len(calib)}

    def test_refresh_modes_agree_end_to_end(self, monkeypatch, tmp_path):
        # the whole run matches one whose head pruning re-inverts every round
        # from the Hessian whose inverse the pipeline hands to prune_heads
        tensors, manifest, calib = gen_toy(TOY)
        sched = build_schedule(3, "uniform", global_target=0.5)
        p_t, _, _ = prune_model(tensors, manifest, calib, sched, CONFIG, out=tmp_path / "t.obt")
        hessians = {}

        def hessian_over_batches(feats, damping, w, _fn=pipeline._hessian_over_batches):
            acc = HessianAccumulator(w.shape[1])
            for f in feats:
                acc.accumulate(f)
            h, h_inv = acc.finalize(damping), _fn(feats, damping, w)
            assert np.array_equal(h_inv, invert_spd(h))
            hessians[id(h_inv)] = h
            return h_inv

        def prune_heads(w, h_inv, d_head, n_prune):
            return reinvert_prune_heads(w, hessians[id(h_inv)], d_head, n_prune)

        monkeypatch.setattr(pipeline, "_hessian_over_batches", hessian_over_batches)
        monkeypatch.setattr(pipeline, "prune_heads", prune_heads)
        p_r, _, _ = prune_model(tensors, manifest, calib, sched, CONFIG, out=tmp_path / "r.obt")
        assert hessians
        for k in p_t:
            assert np.abs(p_t[k] - p_r[k]).max() < 1e-6

    def test_failure_names_layer(self, tmp_path):
        # 8 tokens for 16 attention features: rank-deficient, but no feature
        # is dead, so undamped Cholesky fails
        tensors, manifest, calib = gen_toy(TOY)
        calib = [calib[0][:, :8]]
        sched = build_schedule(3, "uniform", global_target=0.5)
        cfg = PruneConfig(damping=0.0, group_start=8, group_min=2)
        with pytest.raises(NotSpdError, match="layer 0"):
            prune_model(tensors, manifest, calib, sched, cfg, out=tmp_path / "model.obt")

    @pytest.mark.parametrize("ratio, sublayer", [(0.5, "attention"), (0.1, "FFN")])
    def test_failure_names_sublayer(self, ratio, sublayer, tmp_path):
        # 8 tokens leave both undamped Hessians (16 and 24 features)
        # rank-deficient; ratio 0.1 removes 0 of 4 heads but 2 of 24
        # channels, so only the FFN Hessian is built
        tensors, manifest, calib = gen_toy(TOY)
        cfg = PruneConfig(damping=0.0, group_start=8, group_min=2)
        sched = custom_schedule([ratio, 0.0, 0.0])
        with pytest.raises(NotSpdError, match=rf"^pruning failed at layer 0 \({sublayer}\): "):
            prune_model(tensors, manifest, [calib[0][:, :8]], sched, cfg,
                        out=tmp_path / "model.obt")

    def test_overflowing_features_name_layer_and_sublayer(self, tmp_path):
        # layer 1's values are finite but their squares overflow, so its
        # attention Hessian sum holds inf
        tensors, manifest, calib = gen_toy(replace(TOY, n_layers=2))
        tensors["layers.1.attn.wv"] *= 1e160
        with pytest.raises(NotSpdError, match=r"^pruning failed at layer 1 \(attention\): "
                           r"singular Hessian: matrix contains non-finite entries$"):
            prune_model(tensors, manifest, calib, custom_schedule([0.0, 0.5]), CONFIG,
                        out=tmp_path / "model.obt")

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_values_name_the_layer(self, case, tmp_path):
        # no numpy warning either: the suite would raise it instead
        scaled, scale, message = NON_FINITE[case]
        ratios = [0.5, 0.3, 0.0] if case == "c" else [0.0, 0.5, 0.75]  # c prunes no layer 2
        tensors, manifest, calib = gen_toy(replace(TOY, seed=1))
        for name in scaled:
            tensors[name] = tensors[name] * scale
        out = tmp_path / "model.obt"
        out.write_bytes(b"kept")
        with pytest.raises(ObslimError, match=f"^{re.escape(message)}$"):
            prune_model(tensors, manifest, calib, custom_schedule(ratios), CONFIG, out=out)
        assert out.read_bytes() == b"kept"
        assert list(tmp_path.iterdir()) == [out]

    def test_empty_calibration_list_raises(self, tmp_path):
        tensors, manifest, _ = gen_toy(TOY)
        with pytest.raises(ValueError, match="^need at least one calibration batch$"):
            prune_model(tensors, manifest, [], custom_schedule([0.5] * 3), CONFIG,
                        out=tmp_path / "model.obt")

    def test_stacked_calibration_array_prunes_as_its_list(self, tmp_path):
        # truth-testing the stacked array once raised numpy's "ambiguous" ValueError
        tensors, manifest, calib = gen_toy(replace(TOY, seed=1))
        sched = custom_schedule([0.5, 0.25, 0.5])
        *_, listed = prune_model(tensors, manifest, calib, sched, CONFIG,
                                 out=tmp_path / "list.obt")
        *_, stacked = prune_model(tensors, manifest, np.stack(calib), sched, CONFIG,
                                  out=tmp_path / "stacked.obt")
        assert (tmp_path / "stacked.obt").read_bytes() == (tmp_path / "list.obt").read_bytes()
        assert stacked.to_json() == listed.to_json()
        with pytest.raises(ValueError, match="^need at least one calibration batch$"):
            prune_model(tensors, manifest, np.stack(calib)[:0], sched, CONFIG,
                        out=tmp_path / "empty.obt")

    def test_calibration_rows_not_d_model_raise(self, tmp_path):
        tensors, manifest, calib = gen_toy(TOY)
        with pytest.raises(ValueError, match="^calibration activations do not match d_model "
                                             "of layer 0$"):
            prune_model(tensors, manifest, [x[:-1] for x in calib],
                        custom_schedule([0.5] * 3), CONFIG, out=tmp_path / "model.obt")

    def test_one_factorization_per_hessian(self, monkeypatch, tmp_path):
        # HessianAccumulator.inverse factors each full Hessian once, in its
        # own buffer, as its positive-definiteness check, and inverts from
        # that factor; no SpdMatrix is built on the way. Head blocks (4) and
        # channel groups (<= 8) are smaller than both dims.
        counts = Counter()
        full = (TOY.d_model, TOY.d_ff)

        def counting(fn, key, dims=None):
            def wrapped(a, *args, **kwargs):
                if dims is None or (np.ndim(a) == 2 and len(a) in dims):
                    counts[key] += 1
                return fn(a, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(linalg, "dpotrf", counting(linalg.dpotrf, "factor", full))
        monkeypatch.setattr(np.linalg, "cholesky", counting(np.linalg.cholesky, "factor", full))
        monkeypatch.setattr(HessianAccumulator, "inverse",
                            counting(HessianAccumulator.inverse, "hessian"))
        monkeypatch.setattr(SpdMatrix, "__init__", counting(SpdMatrix.__init__, "spd_init"))
        tensors, manifest, calib = gen_toy(TOY)
        prune_model(tensors, manifest, calib, custom_schedule([0.5, 0.25, 0.5]), CONFIG,
                    out=tmp_path / "model.obt")
        assert counts == {"hessian": 6, "factor": 6}
        assert counts["spd_init"] == 0

    def test_dead_channel_matches_oracle_on_live_subspace(self, tmp_path):
        # Channel 5 of layer 1 never fires (its w_up row is zero), so at
        # damping 0 its Hessian row and column are zero. It is removed at no
        # cost, and the kept channels get the least-squares weights of the
        # live channels alone.
        spec = ToyModelSpec(n_layers=2, seed=7)
        tensors, manifest, calib = gen_toy(spec)
        tensors["layers.1.ffn.w_up"][5] = 0.0
        cfg = PruneConfig(damping=0.0, group_start=8, group_min=2)
        pruned, pmanifest, report = prune_model(
            tensors, manifest, calib, custom_schedule([0.0, 0.25]), cfg, out=tmp_path / "model.obt")
        row = report.layers[1]
        assert row.channels_removed == 16 and 5 not in row.kept_channels
        orig = LayerWeights.from_tensors(manifest.layers[1], tensors)
        new = LayerWeights.from_tensors(pmanifest.layers[1], pruned)
        layer0 = LayerWeights.from_tensors(manifest.layers[0], tensors)
        ffn_input_layer = replace(
            orig, wq=new.wq, wk=new.wk, wv=new.wv, wo=new.wo, n_head=new.n_head)
        feats = [forward_layer(ffn_input_layer, forward_layer(layer0, x), collect=True)[2]
                 for x in calib]
        assert not any(f[5].any() for f in feats)
        live = np.setdiff1d(np.arange(spec.d_ff), [5])
        h_live = SpdMatrix(sum(2.0 * f[live] @ f[live].T for f in feats))
        want = least_squares_oracle(
            orig.w_down[:, live], h_live, np.searchsorted(live, row.kept_channels))
        assert np.linalg.norm(new.w_down - want) <= 1e-8 * np.linalg.norm(want)

    def test_leaves_its_input_alone(self, tmp_path):
        # layer 0 removes nothing, so its tensors come back unsliced; layer 1
        # has a dead FFN channel at damping 0, whose w_down column the
        # dead-feature rule zeroes in place; "embed" belongs to no layer and
        # is float32
        tensors, manifest, calib = gen_toy(ToyModelSpec(n_layers=2, seed=7))
        tensors["layers.1.ffn.w_up"][5] = 0.0
        tensors["embed"] = np.ones((3, 4), dtype=np.float32)
        before = {name: arr.copy() for name, arr in tensors.items()}
        calib_before = [x.copy() for x in calib]
        cfg = PruneConfig(damping=0.0, group_start=8, group_min=2)
        pruned, _, report = prune_model(tensors, manifest, calib, custom_schedule([0.0, 0.25]), cfg,
                                        out=tmp_path / "model.obt")
        assert report.layers[0].channels_removed == 0 and 5 not in report.layers[1].kept_channels
        assert list(pruned) == list(tensors)
        for name, arr in tensors.items():
            assert arr.dtype == before[name].dtype and arr.tobytes() == before[name].tobytes(), name
            assert pruned[name].dtype == np.float64, name
            assert not np.shares_memory(pruned[name], arr), name
        assert all(x.tobytes() == y.tobytes() for x, y in zip(calib, calib_before))

    def test_read_only_inputs_prune_the_same(self, tmp_path):
        # read_tensor_file's arrays map the file copy-on-write, and a write
        # into one would make private pages that tracemalloc cannot see;
        # read-only inputs make any such write raise. Layer 1 has a dead FFN
        # channel at damping 0, so the dead-feature rule runs too
        tensors, manifest, calib = gen_toy(ToyModelSpec(n_layers=3, seed=7))
        tensors["layers.1.ffn.w_up"][5] = 0.0
        tensors["embed"] = np.ones((3, 4), dtype=np.float32)
        cfg = PruneConfig(damping=0.0, group_start=8, group_min=2)
        sched = custom_schedule([0.0, 0.25, 0.5])
        want = prune_model({name: arr.copy() for name, arr in tensors.items()}, manifest,
                           [x.copy() for x in calib], sched, cfg, out=tmp_path / "want.obt")
        for arr in (*tensors.values(), *calib):
            arr.setflags(write=False)
        got = prune_model(tensors, manifest, calib, sched, cfg, out=tmp_path / "got.obt")
        assert sum(row.heads_removed for row in got[2].layers) > 0
        assert 5 not in got[2].layers[1].kept_channels
        assert list(got[0]) == list(want[0])
        assert all(got[0][name].tobytes() == want[0][name].tobytes() for name in want[0])
        assert got[1] == want[1] and got[2].to_json() == want[2].to_json()

    def test_dead_feature_rule(self):
        rng = np.random.default_rng(0)
        feats = [rng.normal(size=(6, 20)) for _ in range(2)]
        w = rng.normal(size=(3, 6))
        w0 = w.copy()
        acc = HessianAccumulator(6)
        for f in feats:
            acc.accumulate(f)
        # no dead feature: the same bits as the plain damped sum's inverse,
        # w untouched
        h_inv = pipeline._hessian_over_batches(feats, 0.01, w)
        assert np.array_equal(h_inv, invert_spd(acc.finalize(0.01)))
        assert np.array_equal(w, w0)
        for f in feats:
            f[2] = 0.0
        h_inv = pipeline._hessian_over_batches(feats, 0.01, w)
        acc = HessianAccumulator(6)
        for f in feats:
            acc.accumulate(f)
        acc.sum[2, 2] = 1.0
        h = acc.finalize(0.01)
        diag = np.diag(sum(2.0 * f @ f.T for f in feats)).copy()
        diag[2] = 1.0
        assert h.a[2, 2] == 1.0 + 0.01 * diag.mean()
        assert not np.delete(h.a[2], 2).any()
        assert np.array_equal(h_inv, invert_spd(h))
        assert not w[:, 2].any()
        assert np.array_equal(np.delete(w, 2, axis=1), np.delete(w0, 2, axis=1))

    def test_schedule_length_mismatch(self, tmp_path):
        tensors, manifest, calib = gen_toy(TOY)
        with pytest.raises(ValueError, match="layers"):
            prune_model(tensors, manifest, calib, custom_schedule([0.5]), CONFIG,
                        out=tmp_path / "model.obt")


class TestPruneConfig:
    # the values a JSON config file could hold and a flag cannot
    @pytest.mark.parametrize("bad", [
        {"damping": "x"},
        {"damping": None},
        {"damping": True},
        {"group_start": "8"},
        {"group_start": 8.5},
        {"group_min": True},
    ])
    def test_mistyped_value_raises(self, bad):
        with pytest.raises(ValueError, match="^(damping|group_start and group_min) must be "):
            PruneConfig(**bad)


class TestReports:
    def run_once(self, out):
        tensors, manifest, calib = gen_toy(TOY)
        sched = build_schedule(3, "log_increase", r0=0.2, global_target=0.4)
        return prune_model(tensors, manifest, calib, sched, CONFIG, out=out)

    def test_round_trip(self, tmp_path):
        _, _, report = self.run_once(tmp_path / "model.obt")
        path = tmp_path / "report.json"
        report.save(path)
        back = PruneReport.load(path)
        assert back.to_json() == report.to_json()
        assert "wall_clock_s" not in json.loads(report.to_json())  # timing is not persisted

    def test_json_key_order(self, tmp_path):
        data = json.loads(self.run_once(tmp_path / "model.obt")[2].to_json())
        assert list(data) == ["variant", "ratios", "config", "layers"]
        assert list(data["layers"][0]) == [
            "layer", "ratio", "heads_removed", "channels_removed", "sum_step_error",
            "output_sq_error", "kept_heads", "kept_channels"]

    @pytest.mark.parametrize("field", ["kept_heads", "kept_channels"])
    @pytest.mark.parametrize("units", [["x"], [None], [True], [1.0]])
    def test_kept_units_must_be_json_integers(self, field, units, tmp_path):
        row = json.loads(self.run_once(tmp_path / "model.obt")[2].to_json())["layers"][1]
        LayerReport.from_dict(row)
        with pytest.raises(ObslimError, match=field):
            LayerReport.from_dict({**row, field: row[field][:-1] + units})

    def test_csv_columns(self, tmp_path):
        _, _, report = self.run_once(tmp_path / "model.obt")
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == ("layer,ratio,heads_removed,channels_removed,"
                            "sum_step_error,output_sq_error")
        assert len(lines) == 1 + 3

    def test_verify_clean(self, tmp_path):
        _, pmanifest, report = self.run_once(tmp_path / "model.obt")
        assert verify_report(report) == []
        assert verify_report(report, pmanifest) == []

    def test_verify_flags_problems(self, tmp_path):
        _, pmanifest, report = self.run_once(tmp_path / "1.obt")
        report.layers[1].output_sq_error = -1.0
        problems = verify_report(report, pmanifest)
        assert any("output_sq_error" in p for p in problems)
        report2 = self.run_once(tmp_path / "2.obt")[2]
        report2.ratios[0] = 0.9  # no longer follows the variant formula
        assert any("variant" in p for p in verify_report(report2))


def spy_workers(monkeypatch) -> list:
    """The process of every reference worker that ``prune_model`` starts."""
    procs = []

    class Spy(pipeline._ReferenceWorker):
        def __init__(self, *args):
            super().__init__(*args)
            procs.append(self._proc)

    monkeypatch.setattr(pipeline, "_ReferenceWorker", Spy)
    return procs


@pytest.mark.usefixtures("deadline")
class TestReferenceWorker:
    """The original model's stream runs in one forked worker, which ends with ``prune_model``."""

    def test_success_leaves_no_process(self, monkeypatch, tmp_path):
        procs = spy_workers(monkeypatch)
        tensors, manifest, calib = gen_toy(TOY)
        _, _, report = prune_model(tensors, manifest, calib,
                                   custom_schedule([0.0, 0.5, 0.5]), CONFIG,
                                   out=tmp_path / "model.obt")
        assert len(procs) == 1 and procs[0].exitcode is not None
        assert multiprocessing.active_children() == []
        assert report.layers[0].output_sq_error == 0.0 < report.layers[1].output_sq_error

    def test_no_worker_while_nothing_is_removed(self, monkeypatch, tmp_path):
        procs = spy_workers(monkeypatch)
        tensors, manifest, calib = gen_toy(TOY)
        _, _, report = prune_model(tensors, manifest, calib, custom_schedule([0.0] * 3), CONFIG,
                                   out=tmp_path / "model.obt")
        assert procs == []
        assert [row.output_sq_error for row in report.layers] == [0.0] * 3

    def test_failure_after_the_split_leaves_no_process(self, monkeypatch, tmp_path):
        # layer 1 splits the streams; layer 2's attention Hessian overflows
        procs = spy_workers(monkeypatch)
        tensors, manifest, calib = gen_toy(TOY)
        tensors["layers.2.attn.wv"] = tensors["layers.2.attn.wv"] * 1e160
        with pytest.raises(NotSpdError, match=r"^pruning failed at layer 2 \(attention\): "):
            prune_model(tensors, manifest, calib, custom_schedule([0.0, 0.5, 0.5]), CONFIG,
                        out=tmp_path / "model.obt")
        assert len(procs) == 1 and procs[0].exitcode is not None
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_raised_by_prune_model(self, monkeypatch, tmp_path):
        class ArrayMemoryError(MemoryError):
            # like numpy's: its message is built from arguments a pickle drops
            def __init__(self, shape):
                super().__init__(shape)
                self.shape = shape

            def __str__(self):
                return f"Unable to allocate an array with shape {self.shape}"

        def fail():
            raise ArrayMemoryError((2**20, 2**20))

        ffn_in_worker(monkeypatch, fail)
        tensors, manifest, calib = gen_toy(TOY)
        with pytest.raises(MemoryError, match=r"^Unable to allocate an array with shape "
                                              r"\(1048576, 1048576\)$"):
            prune_model(tensors, manifest, calib, custom_schedule([0.0, 0.5, 0.5]), CONFIG,
                        out=tmp_path / "model.obt")
        assert multiprocessing.active_children() == []

    def test_one_floating_point_policy_in_both_processes(self, monkeypatch, tmp_path):
        # prune_model sets it before the worker forks, and the worker inherits it
        ignore = sorted(dict.fromkeys(["divide", "over", "under", "invalid"], "ignore").items())
        before, pruning = np.geterr(), []

        def prune_heads(*args, _fn=pipeline.prune_heads, **kwargs):
            pruning.append(sorted(np.geterr().items()))
            return _fn(*args, **kwargs)

        def fail():
            raise ObslimError(f"worker policy {sorted(np.geterr().items())}")

        monkeypatch.setattr(pipeline, "prune_heads", prune_heads)
        ffn_in_worker(monkeypatch, fail)
        tensors, manifest, calib = gen_toy(TOY)
        with pytest.raises(ObslimError, match=f"^worker policy {re.escape(str(ignore))}$"):
            prune_model(tensors, manifest, calib, custom_schedule([0.0, 0.5, 0.5]), CONFIG,
                        out=tmp_path / "model.obt")
        assert pruning == [ignore]
        assert np.geterr() == before

    def test_worker_death_names_the_layer(self, monkeypatch, tmp_path):
        ffn_in_worker(monkeypatch, lambda: os._exit(3))
        tensors, manifest, calib = gen_toy(TOY)
        with pytest.raises(ObslimError, match="^the reference stream's worker exited with "
                                              "code 3 before sending layer 1$"):
            prune_model(tensors, manifest, calib, custom_schedule([0.0, 0.5, 0.5]), CONFIG,
                        out=tmp_path / "model.obt")
        assert multiprocessing.active_children() == []
